"""Sampling of fractal-percolation construction steps as lattices.

A realization of ``F_n`` is generated level by level: each surviving cell
of level ``l-1`` spawns ``M^d`` candidate children, and only candidates of
living parents draw a uniform (dead subtrees are pruned, so the work and
the memory up to the last level are proportional to the number of living
nodes). Uniforms come from the
counter-based hash in :mod:`fracperc.rng`, so equal
``(M, p, d, n, seed, sample_index)`` always reproduce the grid bit for
bit, in any traversal order and on any machine.

The hash does not depend on p, so a cell lives at p exactly when every
uniform along its ancestry is below p. ``sample_grid`` draws a block of
replicates once for an ascending p grid: per cell it keeps the number of
grid points at which the cell lives (in the smallest unsigned dtype that
holds the grid's size), the least over its ancestry of the points p with
``u < p``, so a cell dead at the grid's largest p hashes no children.
Thresholding the counts at a grid point gives that p's lattice, bit for
bit. A grid of a few points is counted one compare per point; a larger
one from a bucket table built once per call: [0, 1) cut into a power of
two of buckets, so that the points above a uniform's bucket are one
lookup and only the points inside it are compared. Both run the same
compare loop, over the points or over the table's gathered rows.

Lattices are stored as row-major arrays, one byte per cell; for d = 1 the
array has a single row so the 2-d code paths are shared. A block of
replicates is one ``(B, rows, columns)`` stack. Each level keeps only its
living cells, as their flat positions in the level's stack and their
counts; each level makes their children's positions arithmetically,
hashes one key per replicate, splits each position into (replicate, cell)
and draws its uniform from that replicate's key. A grid of several points
writes its last level into one zeroed stack; a one-point grid scatters its
last level's living cells into it once. Every lattice of the stack equals
the one ``sample`` draws for its index, and no level's lattice is ever
expanded or scanned in full. ``sample`` is the one-replicate, one-point
grid, whose 0/1 counts are the lattice viewed as bool. Only ``F_n`` is
drawn: the functionals of its closed complement ``C_n`` come from the same
lattice through the window pass of :mod:`fracperc.geometry`. Monte Carlo
draws through ``_draw``, which also hands over a one-point stack's living
positions, so that the window pass need not scan the stack for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analytic import ArgumentError, ModelParams, _integer

#: Default memory budget for one realization or stack (2 GiB).
DEFAULT_BUDGET_BYTES = 2 << 30

#: Modelled peak bytes per cell of one replicate or stack. Under tracemalloc
#: at p = 1, ``sample`` peaks at 16.5 at n = 8 and 11.25 at n = 10 and 12
#: (the stack, the last level's living positions, 8 bytes per cell, those
#: of level n - 1 and one hash chunk), at 5.2 at n = 12, p = 0.9 and 1.3 at
#: n = 12, p = 0.7, and a one-point ``sample_grid`` at 19.4 for a block of
#: 256 lattices at n = 4. The F+C window pass peaks at 11 at n = 8 and 17
#: for that block read from every window, at 1.1 at n = 10, p = 0.7 and
#: 0.44-0.67 at n = 12 read from the living cells (32 per living cell,
#: their 8-byte positions included), and ``label`` at 5. One-point
#: ``montecarlo._run_block`` at p = 1, the positions held through the
#: window pass, peaks at 26 for a block of 1024 at n = 4 and 19 at n = 10.
#: A block of 1024 lattices at n = 4 drawn by ``sample_grid`` over 37
#: points up to 0.98 peaks at 5.5, and at 19 with its thresholds and window
#: passes; over 300 points up to p = 1 (uint16 counts) at 6.9 and 20.
#: ``montecarlo._run_block`` on a block of 1000 over 37 points peaks at 24
#: beside its value table, on one of 230 over 300 points at 171, within its
#: scoring charge. Blocks of 1, 10, 50 and 100 lattices over 37 points peak
#: at 43, 41, 39 and 27, where fixed costs of a few kB weigh most (the block
#: of 1 holds the 1.2 kB bucket table and counts its 256-uniform chunks by
#: compares, ``_TABLE_CANDIDATES``). The constant stays above every figure,
#: and the block sizes rest on it.
PEAK_BYTES_PER_CELL = 48

#: Candidates hashed per call, the children of ``_HASH_CHUNK // M^d`` living
#: parents (of one parent where M^d is larger): bounds the hash's
#: temporaries (about 32 bytes per candidate: its position, cell, hash
#: buffer and one temporary) and the count's (its position, uniform, the
#: bucket table's intp indices and gathered points, about 35) to a constant.
_HASH_CHUNK = 1 << 14

#: Grids of _TABLE_POINTS points or more count a chunk of _TABLE_CANDIDATES
#: uniforms or more from a bucket table (``_bucket_table``); smaller grids
#: and chunks take one compare per point. Measured on a 2-vCPU box, points
#: 0.26 .. 0.98: a 16,384-uniform chunk takes 5.4 us per point by compares
#: (19 at 2 points, 80 at 12, 198-207 at 37) and 73-89 us from the table at
#: any grid size (90 at 300 points); 2,048 uniforms 9 .. 61 us by compares
#: at 2 .. 20 points, 18-24 from the table. ``sample_grid`` per block of 4 at
#: n = 8, 64 at n = 6 and 1,024 at n = 4, compares against table: even at
#: 10 to 16 points, the table slower by 6 to 20 % at 2 to 8, faster by 20 to
#: 45 % at 37. The table holds about 17 bytes per uniform more than the
#: compares (its intp indices and gathered points); in a chunk of a few
#: hundred, as in a block of one n = 4 lattice, that lifted the block's
#: traced peak from 40 to 56 bytes per cell, over its charge.
_TABLE_POINTS, _TABLE_CANDIDATES = 12, 1024


class MemoryBudgetError(RuntimeError):
    """The requested lattice would exceed the configured memory budget."""


@dataclass(frozen=True, eq=False)
class GridRealization:
    """A sampled lattice: occupancy[i, j] is True when the closed cell
    of side M^-n at row i, column j belongs to the target set."""

    M: int
    p: float
    d: int
    n: int
    seed: int
    sample_index: int
    occupancy: np.ndarray

    @property
    def cell_size(self) -> float:
        return float(self.M) ** -self.n


def _children(f: np.ndarray, offsets: list, M: int, d: int, side: int) -> np.ndarray:
    """Flat stack positions of the children of the cells at positions ``f``
    of a level of side ``side``, shape ``(M^d, len(f))``: row k at
    ``offsets[k]`` from each parent's first child. A parent at row r, column
    c of the stack (rows run on across replicates) has its first child at
    ``r * M^2 * side + c * M``, that is ``M * (f + r * (M - 1) * side)``,
    or at ``M * f`` for d = 1."""
    base = f * M
    if d == 2:
        row = f // side  # the stack's row, across replicates
        row *= M * (M - 1) * side
        base += row
    out = np.empty((len(offsets), len(f)), dtype=base.dtype)
    for k, offset in enumerate(offsets):  # one add per child offset
        np.add(base, offset, out=out[k])
    return out


def _replicate_indices(indices) -> np.ndarray:
    """``indices`` as a flat uint64 array; ArgumentError unless each is an integer in [0, 2^64)."""
    flat = np.asarray(indices).reshape(-1)
    if not isinstance(indices, np.ndarray) or flat.dtype.kind not in "iu":
        # each value as given: numpy would cast bools to int and big ints to float
        flat = np.asarray(indices, dtype=object).reshape(-1)
    integers = flat.dtype.kind in "iu" or all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in flat
    )
    if not integers or (flat.size and (flat.min() < 0 or flat.max() >= 1 << 64)):
        raise ArgumentError(f"sample indices must be integers in [0, 2^64), got {indices!r}")
    return flat.astype(np.uint64)


def _grid_points(M: int, d: int, grid) -> np.ndarray:
    """``grid`` as float64 points; ArgumentError unless it is a nonempty
    ascending sequence of survival probabilities of the model (M, d)."""
    points = np.asarray(grid, dtype=np.float64)
    if points.ndim != 1 or not points.size or not np.all(np.diff(points) >= 0):
        raise ArgumentError(f"grid must be a nonempty ascending sequence of p, got {grid!r}")
    for p in (points[0], points[-1]):  # M, d and the range of every point
        ModelParams(M, float(p), d)
    return points


def _bucket_table(points: np.ndarray) -> tuple:
    """The bucket table of an ascending grid of G points: (K, above, inside).

    [0, 1) is split into K buckets, K the least power of two at or above
    2G, so u K and p K are exact and bucket b = floor(p K) orders as p does
    (p = 1 falls in bucket K, above every uniform). ``above[b]`` is the
    number of points in buckets above b, in the counts' dtype; row r of
    ``inside`` holds the r-th point of each bucket times K, -1 where the
    bucket has fewer than r + 1 points. Repeated or clustered points only
    add rows: there is one where the points lie 1 / K apart or more.
    """
    K = 1 << (2 * len(points) - 1).bit_length()
    scaled = points * K
    bucket = scaled.astype(np.int64)
    above = len(points) - np.searchsorted(bucket, np.arange(K), side="right")
    inner = bucket < K
    rank = np.arange(len(points)) - np.searchsorted(bucket, bucket)  # within its bucket
    inside = np.full((rank[inner].max(initial=-1) + 1, K), -1.0)
    inside[rank[inner], bucket[inner]] = scaled[inner]
    return K, above.astype(np.min_scalar_type(len(points))), inside


def _count_below(u: np.ndarray, points: np.ndarray, table, out: np.ndarray) -> None:
    """Write to ``out`` the number of ``points`` p with ``u < p``, per uniform.

    With their ``_bucket_table`` ``table``, a chunk of ``_TABLE_CANDIDATES``
    uniforms or more is read from it: the points above u's bucket, then one
    row per row of the table, the points inside u's bucket gathered.
    Otherwise the count starts at 0 with one row per point. One compare
    loop adds ``u < row`` for every row. ``u`` may be scaled by K in place;
    it, its bucket indices (uint8 up to K = 256) and the gathered points are
    freed on return, before the next chunk hashes."""
    below = np.empty(len(u), dtype=bool)
    if table is None or len(u) < _TABLE_CANDIDATES:
        out.fill(0)
        rows = points  # one row per point
    else:
        K, above, inside = table
        u *= K
        index = u.astype(np.min_scalar_type(K - 1))  # the floor: u K lies in [0, K)
        above.take(index, out=out, mode="clip")  # "clip" writes out unbuffered; no index clips
        gathered = np.empty(len(u))
        rows = (row.take(index, out=gathered, mode="clip") for row in inside)  # one per table row
    for row in rows:
        np.less(u, row, out=below)
        np.add(out, below.view(np.uint8), out=out)


def sample_grid(
    M: int,
    d: int,
    grid,
    n: int,
    seed: int,
    indices,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> np.ndarray:
    """Draw the replicates ``indices`` of F_n once for every p of ``grid``.

    ``grid`` is a nonempty ascending sequence of G survival probabilities.
    Returns the alive-count stack, shape ``(B, M^n, M^n)`` or ``(B, 1, M^n)``
    for d = 1, of the smallest unsigned dtype that holds G (uint8 up to 255
    points): per cell, the number of grid points at which the cell lives, so
    ``counts >= G - j`` is the lattice of F_n at ``grid[j]``, equal to the
    one-point grid's at that p. The k-th lattice is replicate
    ``indices[k]``, an integer in [0, 2^64), as is ``seed`` (ArgumentError
    otherwise). A cell's uniform u passes the test ``u < p`` at
    ``sum(u < p for p in grid)`` points, and its count is the smaller of
    that and its parent's; level 0 counts G. Each level keeps only the
    cells with a nonzero count, as flat stack positions, and makes their
    children's positions from them (``_children``), so a cell dead at the
    grid's largest p hashes no children and no lattice below level n is
    built. Each level hashes one key per replicate, then the children's
    uniforms ``_HASH_CHUNK`` at a time; the last level's counts end in the
    zeroed stack that is returned (``_draw``).

    Raises :class:`MemoryBudgetError` when the stack's modelled peak,
    ``PEAK_BYTES_PER_CELL`` bytes per cell, would exceed ``budget_bytes``.
    """
    return _draw(M, d, grid, n, seed, indices, budget_bytes)[0]


def _draw(M: int, d: int, grid, n: int, seed: int, indices,
          budget_bytes: int = DEFAULT_BUDGET_BYTES) -> tuple:
    """``sample_grid``'s stack and the flat stack positions of its living
    cells: ``(counts, living)``.

    A one-point grid's last level is kept like every level above it, as
    its living cells' positions in chunk order (their counts are all 1),
    and scattered into the zeroed stack once; those positions are
    ``living`` (an intp array, empty for extinct lattices). A grid of
    several points writes its last level into the stack chunk by chunk,
    and ``living`` is None.
    """
    _integer("level n", n, 0)
    points = _grid_points(M, d, grid)
    _integer("seed", seed, 0, 2**64 - 1)
    indices = _replicate_indices(indices)
    cells = M ** (d * n)
    need = len(indices) * cells * PEAK_BYTES_PER_CELL
    if need > budget_bytes:
        raise MemoryBudgetError(
            f"{len(indices)} lattice(s) of {cells} cells need {need} bytes, over {budget_bytes}"
        )
    dtype = np.min_scalar_type(len(points))
    table = _bucket_table(points) if len(points) >= _TABLE_POINTS and n else None
    per_chunk = max(1, _HASH_CHUNK // M**d)  # parents whose children one hash chunk holds
    live = np.arange(len(indices))  # flat stack positions of the living cells, level 0
    counts = np.full(len(indices), len(points), dtype=dtype)  # and their counts
    for level in range(1, n + 1):
        keys = rng.node_key(seed, indices, level)
        side = M ** (level - 1)  # of the parents' level
        level_cells = M ** (d * level)
        # a child in row a, column b of its parent's M x M block sits at
        # a * M * side + b from the parent's first child (b for d = 1)
        offsets = [a * M * side + b for a in range(M if d == 2 else 1) for b in range(M)]
        parents = counts
        dense = level == n and len(points) > 1  # several points: the last level is the stack
        if dense:
            counts = np.zeros(len(indices) * level_cells, dtype=dtype)
        else:
            # a one-point grid's living counts are all 1: its last level keeps none
            counts = np.empty(len(live) * M**d if level < n else 0, dtype=dtype)
            children, kept = np.empty(len(live) * M**d, dtype=live.dtype), 0
        for first in range(0, len(live), per_chunk):
            f = live[first : first + per_chunk]
            part = _children(f, offsets, M, d, side)
            if len(indices) == 1:  # one replicate: the flat position is the cell
                key, cell = keys[0], part
            else:
                replicate = f // side**d
                key = np.broadcast_to(keys[replicate], part.shape)  # each parent's, for its children
                cell = part - replicate * level_cells
            u = rng.cell_uniforms(key, cell).reshape(-1)
            del key, cell
            own = np.empty(part.shape, dtype=dtype)
            _count_below(u, points, table, own.reshape(-1))
            del u
            np.minimum(own, parents[first : first + per_chunk], out=own)
            if dense:
                counts[part] = own
            else:
                alive = np.flatnonzero(own != 0)  # numpy finds nonzeros of bool faster
                if level < n:
                    counts[kept : kept + len(alive)] = own.reshape(-1)[alive]
                children[kept : kept + len(alive)] = part.reshape(-1)[alive]
                kept += len(alive)
                del alive
            del part, own  # before the next chunk hashes
        if not dense:
            live, counts = children[:kept], counts[:kept]
    shape = (len(indices), M**n if d == 2 else 1, M**n)
    if len(points) > 1:
        return counts.reshape(shape), None
    stack = np.zeros(len(indices) * cells, dtype=dtype)
    stack[live] = 1
    return stack.reshape(shape), live


def sample(
    params: ModelParams,
    n: int,
    seed: int,
    sample_index: int = 0,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> GridRealization:
    """Draw one realization of F_n: the one-replicate, one-point
    :func:`sample_grid`, whose 0/1 counts are the lattice viewed as bool
    without a copy. It raises on a bad index and guards the memory budget."""
    p = float(params.p)
    counts = sample_grid(params.M, params.d, (p,), n, seed, [sample_index], budget_bytes)
    return GridRealization(params.M, p, params.d, n, seed, sample_index, counts[0].view(bool))


def to_pbm(grid: GridRealization) -> str:
    """Portable bitmap (P1) text; occupied cells are black (1). Each row
    is cut into lines of at most 70 characters."""
    occ = np.asarray(grid.occupancy, dtype=bool)
    rows, columns = occ.shape
    lines = -(-columns // 70)
    body = np.zeros((rows, lines * 70), dtype=np.uint8)  # zero bytes pad each row's last line
    body[:, :columns] = np.where(occ, ord("1"), ord("0"))
    newlines = np.full((rows, lines, 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate((body.reshape(rows, lines, 70), newlines), axis=-1)
    return f"P1\n{columns} {rows}\n" + text[text != 0].tobytes().decode("ascii")


def write_pbm(grid: GridRealization, path, mask: np.ndarray | None = None) -> None:
    """Write the grid (or an arbitrary boolean mask of its shape) as PBM."""
    out = grid if mask is None else replace(grid, occupancy=np.asarray(mask, bool))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_pbm(out))
