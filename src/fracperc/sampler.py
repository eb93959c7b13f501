"""Sampling of fractal-percolation construction steps as lattices.

A realization of ``F_n`` is generated level by level: each surviving cell
of level ``l-1`` spawns ``M^d`` candidate children, and only candidates of
living parents draw a uniform (dead subtrees are pruned, so the work is
proportional to the number of living nodes). Uniforms come from the
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
bit.

Lattices are stored as row-major arrays, one byte per cell; for d = 1 the
array has a single row so the 2-d code paths are shared. A block of
replicates is one ``(B, rows, columns)`` stack: each level hashes one key
per replicate, and one pass over the stack's living candidates splits each
flat position into (replicate, cell) and draws its uniform from that
replicate's key, so every lattice of the stack equals the one ``sample``
draws for its index. ``sample`` is the one-replicate, one-point grid,
whose 0/1 counts are the lattice viewed as bool. Only ``F_n`` is drawn:
the functionals of its closed complement ``C_n`` come from the same
lattice through the window pass of :mod:`fracperc.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analytic import ArgumentError, ModelParams, _integer

#: Default memory budget for one realization or stack (2 GiB).
DEFAULT_BUDGET_BYTES = 2 << 30

#: Modelled peak bytes per cell of one replicate or stack. Under tracemalloc
#: at p = 1, ``sample`` peaks at 18 at n = 8 and a one-point ``sample_grid``
#: at 24 for a block of 256 lattices at n = 4; the F+C window pass peaks at
#: 11 at n = 8 and 17 for that block read from every window, at 1.8 at
#: n = 10, p = 0.7 and 0.85 at n = 12 read from the living cells (about 52
#: per living cell), and ``label`` at 5. A block of 1024 lattices at n = 4
#: drawn by ``sample_grid`` over 37 points up to 0.98 peaks at 14, and at 19
#: with its thresholds and window passes; over 300 points up to p = 1
#: (uint16 counts) at 17 and 20. ``montecarlo._run_block`` on a block of
#: 1000 over 37 points peaks at 24 beside its value table, on one of 230 over
#: 300 points at 171, within its scoring charge. Blocks of 1, 10, 50 and 100
#: lattices over 37 points (one hash chunk each) at 40, 42, 40, 30.
PEAK_BYTES_PER_CELL = 48

#: Candidates hashed per call: bounds the hash's temporaries (32 bytes per
#: candidate: its cell, key, hash buffer and one temporary) to a constant.
_HASH_CHUNK = 1 << 14


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


def _expand(occ: np.ndarray, M: int, d: int) -> np.ndarray:
    """Blow each cell up into its M^d children (on the last two axes)."""
    out = np.repeat(occ, M, axis=-1)
    if d == 2:
        out = np.repeat(out, M, axis=-2)
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


def _count_below(u: np.ndarray, points, out: np.ndarray) -> None:
    """Add to ``out`` the number of ``points`` p with ``u < p``, per uniform;
    ``u`` and its mask are freed on return, before the next chunk hashes."""
    below = np.empty(len(u), dtype=bool)
    for p in points:
        np.less(u, p, out=below)
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
    that and its parent's; level 0 counts G. Each level hashes one key per
    replicate, then the uniforms of the whole stack's candidates with a
    nonzero parent count, ``_HASH_CHUNK`` at a time, so a cell dead at the
    grid's largest p hashes no children.

    Raises :class:`MemoryBudgetError` when the stack's modelled peak,
    ``PEAK_BYTES_PER_CELL`` bytes per cell, would exceed ``budget_bytes``.
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
    counts = np.full((len(indices), 1, 1), len(points), dtype=dtype)
    for level in range(1, n + 1):
        candidates = _expand(counts, M, d)
        idx = np.flatnonzero(candidates != 0)  # numpy finds nonzeros of bool faster
        keys = rng.node_key(seed, indices, level)
        level_cells = M ** (d * level)
        own = np.zeros(len(idx), dtype=dtype)
        for lo in range(0, len(idx), _HASH_CHUNK):
            part = idx[lo : lo + _HASH_CHUNK]
            if len(indices) == 1:  # one replicate: the flat position is the cell
                key, cell = keys[0], part
            else:
                replicate = part // level_cells
                key = keys[replicate]
                replicate *= level_cells  # the buffer becomes the cell index
                cell = np.subtract(part, replicate, out=replicate)
            _count_below(rng.cell_uniforms(key, cell), points, own[lo : lo + _HASH_CHUNK])
        flat = candidates.reshape(-1)
        flat[idx] = np.minimum(flat[idx], own, out=own)
        counts = candidates
    return counts


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
