"""Batch estimation of lattice functionals with Welford statistics.

Each estimate is Welford's recurrence run once over a column of replicate
values in replicate order (``McEstimate.of``). Because the sampler
hashes ``(seed, sample index, tree position)`` rather than keeping
generator state, the same seed always produces the same replicate set
regardless of the worker count. The block is the one unit of work and
of memory (``_block_size``): each lattice is charged the larger of its
draw and its scoring, and a block holds at most the charge of
``BLOCK_CELLS`` drawn cells, within the memory budget and a worker's
share of the replicates. One worker runs the blocks in turn; several
take them in contiguous runs. One ``sampler.sample_grid`` call draws a
block once for a whole coupled p grid (a one-point grid by default), and
one ``geometry.minkowski`` call given the grid size scores the whole
block: V_0 .. V_d of F and C of every lattice at every point at cell side
M^-n, by the window lookup over one point, one graded pass over several.
Spanning labels no lattice it can prove needless. A replicate's lattices
are nested in p, so spanning is monotone over the grid, and a bisection
finds each axis's first spanning point in at most ceil(log2(G + 1))
probes of G points (``_first_spanning``); a probe is ``geometry.spans``,
which labels the lattice only where its coarse shadow spans. A block
returns one float64 array, a row per replicate for each grid point:
V_0 .. V_d of F, then of C, then a 0/1 column per spanning axis. The
blocks' rows are concatenated in replicate order and each column at the
requested p becomes one estimate, so the estimates (and
``simulation.csv``) are bit-identical for every block size, worker count
and grid that holds the p. A coupled sweep over a p grid draws its
replicates once and reads one point per ``run_experiment`` call from the
cached values of the last grid. Independent per-p streams are derived on
request and drawn one p at a time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry, rng, sampler
from .analytic import ArgumentError, ModelParams, _integer, rescale_factor

_FUNCTIONAL_INDEX = {"V0": 0, "V1": 1, "V2": 2}

#: Lattice cells drawn and measured per block of replicates: B = BLOCK_CELLS //
#: cells where the draw outweighs the scoring (``_block_size``), so blocks
#: serve n <= 8 at M = 2, d = 2. Measured on a 2-vCPU box,
#: microseconds per replicate over the 37-point grid p = 0.26..0.98, one
#: replicate per block -> this B (best B): n = 4 515 -> 30 (26 at B = 512);
#: n = 5 626 -> 38; n = 6 781 -> 116 (92 at B = 256); n = 7 921 -> 374
#: (348 at B = 64); n = 8 1829 -> 1411 at B = 4, within 3 % of B = 1 at
#: p = 0.98 (1302 at B = 16, but up to 17 % slower than B = 1 at p = 0.98);
#: n = 9 5087 at B = 1 (B = 2 and 4 up to 14 % slower at p >= 0.7).
BLOCK_CELLS = 1 << 18

#: Peak bytes of one ``geometry.minkowski`` call over a grid per lattice cell
#: (the reductions and their int64 codes) and per lattice and grid point
#: (int64 histograms and counters, integer scores, float64 V_k): traced at
#: up to 16 and 144 for M = 2, d = 2, n = 4 .. 10, 2 .. 300 points. Read only
#: by ``_block_size``, which charges each lattice this or its draw.
SCORE_BYTES_PER_CELL, SCORE_BYTES_PER_POINT = 20, 160

#: Peak bytes of scoring per lattice whatever its size: the window lookup's
#: two 81-bin int64 histograms (the running sum and one ``bincount``) and
#: the block's counters. Traced through ``_run_block`` at p = 1, beside its
#: value table, one point: 1,414 per lattice at n = 0 (blocks of 7,332),
#: 1,234 of it beyond the cell and point terms. Every block of M = 2 and 3,
#: d = 1 and 2, n = 0 .. 4, 1 .. 300 points, 1 MiB to the default budget,
#: peaks within its charge, at most 0.95 of it (n = 0, 300 points, 1 MiB).
SCORE_BYTES_PER_LATTICE = 1536


@dataclass(frozen=True)
class McEstimate:
    """Mean/variance summary of a sequence of values: count, mean and sum of
    squared deviations."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, values) -> McEstimate:
        """Welford's recurrence over ``values`` (a sequence or an array) in order."""
        count, mean, m2 = 0, 0.0, 0.0
        for x in np.asarray(values, dtype=np.float64).tolist():
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        return cls(count, mean, m2)

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else float("nan")

    @property
    def stderr(self) -> float:
        if self.count > 1:
            return math.sqrt(self.m2 / (self.count * (self.count - 1)))
        return float("nan")


@dataclass
class ExperimentResult:
    """Per-(target, functional) estimates for one (M, p, d, n) cell."""

    params: ModelParams
    n: int
    samples: int
    estimates: dict
    spanning: dict

    def rescaled_mean(self, target: str, functional: str) -> float | None:
        """Mean scaled by r^{n(D-k)}, attached only in the nonempty regime."""
        if not self.params.non_empty_regime:
            return None
        scale = rescale_factor(self.params, self.n, _FUNCTIONAL_INDEX[functional])
        return self.estimates[(target, functional)].mean * scale

    def to_rows(self) -> list:
        estimates = sorted(self.estimates.items())
        items = [(t, f, est, self.rescaled_mean(t, f)) for (t, f), est in estimates]
        items += [("F", f"span_{axis}", est, None) for axis, est in sorted(self.spanning.items())]
        return [
            {"M": self.params.M, "p": float(self.params.p), "n": self.n, "functional": functional,
             "target": target, "mean": est.mean, "stderr": est.stderr, "count": est.count,
             "rescaled_mean": rescaled}
            for target, functional, est, rescaled in items
        ]


def _block_size(params: ModelParams, n: int, budget_bytes: int, points: int) -> int:
    """Replicates per block over a grid of ``points`` p: each lattice is
    charged the larger of its draw and its scoring (per cell, per lattice and
    per point), and a block holds at most the charge of ``BLOCK_CELLS`` drawn
    cells and the memory budget. Raises :class:`sampler.MemoryBudgetError`
    when the budget holds no lattice."""
    cells = params.M ** (params.d * n)
    lattice = max(cells * sampler.PEAK_BYTES_PER_CELL,
                  cells * SCORE_BYTES_PER_CELL + SCORE_BYTES_PER_LATTICE
                  + points * SCORE_BYTES_PER_POINT)
    if lattice > budget_bytes:
        raise sampler.MemoryBudgetError(
            f"a lattice of {cells} cells scored at {points} point(s) needs {lattice} bytes,"
            f" over {budget_bytes}"
        )
    return max(1, min(BLOCK_CELLS * sampler.PEAK_BYTES_PER_CELL, budget_bytes) // lattice)


def _run_block(args):
    """Values of replicates first .. last - 1 at every grid point, shape
    ``(G, last - first, width)``: per replicate V_0 .. V_d of F, then of C,
    then a 0/1 column per spanning axis."""
    params, grid, n, seed, first, last, connectivity, axes, budget_bytes = args
    d, G = params.d, len(grid)
    width = 2 * (d + 1)
    values = np.empty((G, last - first, width + len(axes)))
    counts = sampler.sample_grid(params.M, d, grid, n, seed, np.arange(first, last), budget_bytes)
    # (replicate, point) rows into the (point, replicate) table through a view
    values[..., :width] = geometry.minkowski(counts, float(params.M) ** -n, d, G).reshape(
        last - first, G, width).swapaxes(0, 1)
    for row, lattice in enumerate(counts if axes else ()):
        for column, j in enumerate(_first_spanning(lattice, G, axes, connectivity), width):
            values[:j, row, column] = 0.0
            values[j:, row, column] = 1.0
    return values


def _first_spanning(counts: np.ndarray, G: int, axes: tuple, connectivity: int) -> list:
    """Per axis of ``axes``, the first grid point j whose lattice
    ``counts >= G - j`` spans along it, G if none. The lattices are nested
    in j, so spanning is monotone in j and a bisection finds each point in
    at most ceil(log2(G + 1)) probes; a probe's flags for every axis are
    kept for the others' bisections."""
    flags = {}
    firsts = []
    for a in range(len(axes)):
        lo, hi = 0, G
        while lo < hi:
            mid = (lo + hi) // 2
            if mid not in flags:  # one point's 0/1 counts are its lattice: no copy
                occ = counts.view(bool) if G == 1 else counts >= G - mid
                flags[mid] = geometry.spans(occ, axes, connectivity)
            lo, hi = (lo, mid) if flags[mid][a] else (mid + 1, hi)
        firsts.append(lo)
    return firsts


@functools.lru_cache(maxsize=1)
def _grid_values(params, grid, n, samples, seed, connectivity, axes, workers, budget_bytes):
    """Values of every replicate at every point of ``grid``, shape
    ``(G, samples, width)``, read-only; ``params`` is the model at the grid's
    largest p. The replicates run in blocks of ``_block_size``, cut to a
    worker's share so that every worker has one; several workers take the
    blocks in contiguous runs. The key holds every argument, so a different
    worker count or budget draws again."""
    step = min(_block_size(params, n, budget_bytes, len(grid)), -(-samples // workers))
    blocks = [(params, grid, n, seed, first, min(first + step, samples), connectivity, axes,
               budget_bytes) for first in range(0, samples, step)]
    if workers == 1:
        partials = list(map(_run_block, blocks))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            partials = list(pool.map(_run_block, blocks, chunksize=-(-len(blocks) // workers)))
    values = np.concatenate(partials, axis=1)
    values.flags.writeable = False
    return values


def run_experiment(
    params: ModelParams,
    n: int,
    samples: int,
    seed: int,
    connectivity: int = 8,
    spanning_axes: tuple = (),
    workers: int = 1,
    budget_bytes: int = sampler.DEFAULT_BUDGET_BYTES,
    grid=None,
) -> ExperimentResult:
    """Sample ``samples`` replicates of F_n and estimate every V_k with
    k <= d on F and on C, keyed by (target, functional), and for each of
    ``spanning_axes`` the probability that a component joins the opposite
    sides along it (binomial standard error), keyed by axis.

    The replicate set is fully determined by (params, n, seed), and every
    replicate's values are taken in replicate order, so the result is
    bit-identical for any worker count and memory budget.

    ``grid``, an ascending sequence of p that holds ``params.p`` (default
    ``(params.p,)``), is the coupled grid the replicates are drawn over,
    once for all its points (``sampler.sample_grid``); the estimates are
    those at ``params.p`` and equal a one-point run's. The last grid's
    values are cached, so a run at each of its points draws once.

    An invalid level, sample count, worker count, seed, spanning axis or
    grid, or a p outside ``grid``, raises :class:`ArgumentError` before any
    replicate is drawn or worker started.
    """
    _integer("level n", n, 0)
    _integer("samples", samples, 2)  # a standard error needs two
    _integer("workers", workers, 1)
    # the seed also here: the cache would serve seed True the draw of seed 1
    _integer("seed", seed, 0, 2**64 - 1)
    for axis in spanning_axes:
        if axis not in ("x", "y"):
            raise ArgumentError(f"spanning axis must be 'x' or 'y', got {axis!r}")
        if axis == "y" and params.d == 1:
            raise ArgumentError("spanning along y needs d = 2: a d = 1 lattice has one row")
    p = float(params.p)
    # checked here, not only in the blocks: before any worker pool starts
    grid = (p,) if grid is None else tuple(sampler._grid_points(params.M, params.d, grid).tolist())
    if p not in grid:
        raise ArgumentError(f"p = {p!r} is not a point of the grid {grid}")
    _block_size(params, n, budget_bytes, len(grid))  # a budget under one lattice, refused here
    keys = [(t, f) for t in ("F", "C") for f in list(_FUNCTIONAL_INDEX)[: params.d + 1]]
    axes = tuple(dict.fromkeys(spanning_axes))
    values = _grid_values(
        ModelParams(params.M, grid[-1], params.d), grid, n, samples, seed, connectivity, axes,
        workers, budget_bytes,
    )
    summaries = [McEstimate.of(column) for column in values[grid.index(p)].T]
    estimates = dict(zip(keys, summaries))
    spanning = dict(zip(axes, summaries[len(keys) :]))
    return ExperimentResult(params, n, samples, estimates, spanning)


def per_p_seed(master_seed: int, p) -> int:
    """Derived seed giving independent streams across a p grid."""
    return rng.derive_seed(master_seed, f"p={float(p)!r}")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("M", "p", "n", "functional", "target", "mean", "stderr", "count", "rescaled_mean")


def format_float(x) -> str:
    """17 significant digits: round-trips float64 exactly."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def write_csv(rows: list, path) -> None:
    """Rows are dicts with the CSV_COLUMNS keys; strings are written as they
    are and every other field through ``format_float``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            values = (row.get(col) for col in CSV_COLUMNS)
            fields = (v if isinstance(v, str) else format_float(v) for v in values)
            fh.write(",".join(fields) + "\n")


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(path, *, seed: int, config_text: str, elapsed: float, extra=None) -> dict:
    """JSON sidecar recording how a randomized run was produced."""
    manifest = {
        "seed": seed,
        "config_sha256": config_digest(config_text),
        "config": config_text,
        "elapsed_seconds": elapsed,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
