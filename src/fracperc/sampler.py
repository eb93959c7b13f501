"""Sampling of fractal-percolation construction steps as boolean lattices.

A realization of ``F_n`` is generated level by level: each surviving cell
of level ``l-1`` spawns ``M^d`` candidate children, and only candidates of
living parents draw a uniform (dead subtrees are pruned, so the work is
proportional to the number of living nodes). Uniforms come from the
counter-based hash in :mod:`fracperc.rng`, so equal
``(M, p, d, n, seed, sample_index)`` always reproduce the grid bit for
bit, in any traversal order and on any machine.

Grids are stored as row-major boolean arrays, one byte per cell; for
d = 1 the array has a single row so the 2-d code paths are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analytic import ModelParams

#: Default memory budget for one realization (2 GiB).
DEFAULT_BUDGET_BYTES = 2 << 30

#: Modelled peak bytes per cell of one replicate: under tracemalloc ``sample``
#: peaks at 41.5 at p = 1, the F+C window pass at 11 and ``label`` at 5.
PEAK_BYTES_PER_CELL = 48


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
    target: str  # "F" for the construction step, "C" for its closed complement
    occupancy: np.ndarray

    @property
    def side(self) -> int:
        return self.M**self.n

    @property
    def cell_size(self) -> float:
        return float(self.M) ** -self.n

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())


def _expand(occ: np.ndarray, M: int, d: int) -> np.ndarray:
    """Blow each cell up into its M^d children."""
    out = np.repeat(occ, M, axis=1)
    if d == 2:
        out = np.repeat(out, M, axis=0)
    return out


def sample(
    params: ModelParams,
    n: int,
    seed: int,
    sample_index: int = 0,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> GridRealization:
    """Draw one realization of F_n.

    Raises :class:`MemoryBudgetError` when the lattice's modelled peak,
    ``PEAK_BYTES_PER_CELL`` bytes per cell, would exceed ``budget_bytes``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    M, d = params.M, params.d
    cells = M ** (d * n)
    if cells * PEAK_BYTES_PER_CELL > budget_bytes:
        raise MemoryBudgetError(
            f"lattice of {cells} cells needs {cells * PEAK_BYTES_PER_CELL} bytes, over {budget_bytes}"
        )
    p = float(params.p)
    occ = np.ones((1, 1), dtype=bool)
    for level in range(1, n + 1):
        candidates = _expand(occ, M, d)
        idx = np.flatnonzero(candidates)
        keep = rng.node_uniforms(seed, sample_index, level, idx) < p
        occ = np.zeros(candidates.shape, dtype=bool)
        occ.flat[idx[keep]] = True
    return GridRealization(M, p, d, n, seed, sample_index, "F", occ)


def complement(grid: GridRealization) -> GridRealization:
    """The closed complement within the unit cube: occupancy inverted."""
    return replace(
        grid,
        target="C" if grid.target == "F" else "F",
        occupancy=~grid.occupancy,
    )


def to_pbm(grid: GridRealization) -> str:
    """Portable bitmap (P1) text; occupied cells are black (1)."""
    occ = grid.occupancy.astype(np.uint8)
    lines = ["P1", f"{occ.shape[1]} {occ.shape[0]}"]
    for row in occ:
        text = "".join("1" if v else "0" for v in row)
        lines.extend(text[i : i + 70] for i in range(0, len(text), 70))
    return "\n".join(lines) + "\n"


def write_pbm(grid: GridRealization, path, mask: np.ndarray | None = None) -> None:
    """Write the grid (or an arbitrary boolean mask of its shape) as PBM."""
    out = grid if mask is None else replace(grid, occupancy=np.asarray(mask, bool))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_pbm(out))
