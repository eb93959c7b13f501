"""Batch estimation of lattice functionals with Welford statistics.

Each estimate is Welford's recurrence run once over a column of replicate
values in replicate order (``McEstimate.of``). Because the sampler
hashes ``(seed, sample index, tree position)`` rather than keeping
generator state, the same seed always produces the same replicate set
regardless of the shard plan or worker count. A shard walks its
replicates in blocks of about ``BLOCK_CELLS`` lattice cells, capped by the
memory budget: one ``sampler.sample_stack`` call draws a block and one
``geometry.window_scores`` call gives the integer V_k scores of F and C of
all its lattices (spanning labels each lattice). A shard returns one
float64 array, a row per replicate: per (target, functional) the score
times s^k with s = M^-n the cell side, then a 0/1 column per spanning
axis. The shards' rows are concatenated in replicate order and each column
becomes one estimate, so the estimates (and ``simulation.csv``) are
bit-identical for every shard plan, block size and worker count. A
sweep over a p grid reuses one shared set of uniforms per seed (coupled
mode: grids are cell-wise monotone in p). Independent per-p streams are
derived on request.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import geometry, rng, sampler
from .analytic import ModelParams, rescale_factor

_FUNCTIONAL_INDEX = {"V0": 0, "V1": 1, "V2": 2}

#: Lattice cells drawn and measured per block of replicates: B = BLOCK_CELLS //
#: cells, so blocks serve n <= 8 at M = 2, d = 2. Measured on a 2-vCPU box,
#: microseconds per replicate over the 37-point grid p = 0.26..0.98, one
#: replicate per block -> this B (best B): n = 4 515 -> 30 (26 at B = 512);
#: n = 5 626 -> 38; n = 6 781 -> 116 (92 at B = 256); n = 7 921 -> 374
#: (348 at B = 64); n = 8 1829 -> 1411 at B = 4, within 3 % of B = 1 at
#: p = 0.98 (1302 at B = 16, but up to 17 % slower than B = 1 at p = 0.98);
#: n = 9 5087 at B = 1 (B = 2 and 4 up to 14 % slower at p >= 0.7).
BLOCK_CELLS = 1 << 18

#: Replicates per block at most: below n = 4 a block's int64 window
#: histograms, counters and scores outweigh its cells. Traced peak of one
#: block at M = 2, p = 1, n = 0 (sampling and window pass): 5.8 MB at this
#: cap, 38 MB at the 262,144 replicates of BLOCK_CELLS alone; 100,000
#: replicates at n = 0, 1 and 2 run at the same speed either way.
BLOCK_REPLICATES = 4096


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
    seed: int
    samples: int
    connectivity: int
    estimates: dict
    spanning: dict = field(default_factory=dict)

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


def _block_size(params: ModelParams, n: int, budget_bytes: int) -> int:
    """Replicates per block: ``BLOCK_CELLS`` cells, at most ``BLOCK_REPLICATES``
    replicates, and one block within the memory budget."""
    cells = params.M ** (params.d * n)
    fit = budget_bytes // (cells * sampler.PEAK_BYTES_PER_CELL)
    return max(1, min(BLOCK_CELLS // cells, BLOCK_REPLICATES, fit))


def _run_shard(args):
    """Values of replicates start .. start + count - 1, one row each: a
    column per (target, functional) of ``keys``, then a 0/1 column per axis."""
    params, n, seed, start, count, keys, connectivity, axes, budget_bytes = args
    d = params.d
    s = float(params.M) ** -n  # cell side: V_k is the integer score times s^k
    scale = np.array((1.0, s, s * s)[: d + 1])
    flat = [("F", "C").index(target) * (d + 1) + _FUNCTIONAL_INDEX[f] for target, f in keys]
    values = np.empty((count, len(flat) + len(axes)))
    step = _block_size(params, n, budget_bytes)
    for first in range(0, count, step):
        rows = np.arange(first, min(first + step, count))
        stack = sampler.sample_stack(params, n, seed, start + rows, budget_bytes)
        if flat:
            scores = geometry.window_scores(stack, d) * scale
            values[rows, : len(flat)] = scores.reshape(len(rows), -1)[:, flat]
        for row, occ in zip(rows, stack if axes else ()):
            lab = geometry.label(occ, connectivity)
            values[row, len(flat) :] = [getattr(lab, f"spans_{axis}") for axis in axes]
    return values


def _shard_plan(samples: int, shards: int):
    base, extra = divmod(samples, shards)
    start = 0
    for i in range(shards):
        count = base + (1 if i < extra else 0)
        if count:
            yield start, count
        start += count


def run_experiment(
    params: ModelParams,
    n: int,
    samples: int,
    seed: int,
    functionals: tuple | None = None,
    connectivity: int = 8,
    spanning_axes: tuple = (),
    workers: int = 1,
    shards: int | None = None,
    budget_bytes: int = sampler.DEFAULT_BUDGET_BYTES,
) -> ExperimentResult:
    """Sample ``samples`` replicates of F_n and accumulate the requested
    functionals (by default every V_k with k <= d) on F and on C.

    The replicate set is fully determined by (params, n, seed), and every
    replicate's values are taken in replicate order, so the result is
    bit-identical for any shard plan and worker count.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    shards = workers if shards is None else shards
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if functionals is None:
        functionals = tuple(_FUNCTIONAL_INDEX)[: params.d + 1]
    for f in functionals:
        if f not in _FUNCTIONAL_INDEX:
            raise ValueError(f"unknown functional {f!r}")
        if _FUNCTIONAL_INDEX[f] > params.d:
            raise ValueError(f"{f} undefined for d = {params.d}")
    for axis in spanning_axes:
        if axis not in ("x", "y"):
            raise ValueError(f"spanning axis must be 'x' or 'y', got {axis!r}")
        if axis == "y" and params.d == 1:
            raise ValueError("spanning along y needs d = 2: a d = 1 lattice has one row")
    keys = tuple(dict.fromkeys((t, f) for t in ("F", "C") for f in functionals))
    axes = tuple(dict.fromkeys(spanning_axes))
    shard_args = [
        (params, n, seed, start, count, keys, connectivity, axes, budget_bytes)
        for start, count in _shard_plan(samples, shards)
    ]
    if workers > 1 and len(shard_args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_shard, shard_args))
    else:
        partials = [_run_shard(a) for a in shard_args]
    summaries = [McEstimate.of(column) for column in np.concatenate(partials).T]
    estimates = dict(zip(keys, summaries))
    spanning = dict(zip(axes, summaries[len(keys) :]))
    return ExperimentResult(params, n, seed, samples, connectivity, estimates, spanning)


def spanning_probability(
    params: ModelParams,
    n: int,
    samples: int,
    seed: int,
    connectivity: int = 8,
    axis: str = "x",
    workers: int = 1,
    budget_bytes: int = sampler.DEFAULT_BUDGET_BYTES,
) -> McEstimate:
    """Fraction of replicates with a component joining the opposite
    boundaries along ``axis`` (binomial standard error)."""
    result = run_experiment(
        params, n, samples, seed,
        functionals=(), connectivity=connectivity,
        spanning_axes=(axis,), workers=workers, budget_bytes=budget_bytes,
    )
    return result.spanning[axis]


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
