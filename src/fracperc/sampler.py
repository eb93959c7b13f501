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
``sample_stack`` draws a block of replicates as one ``(B, rows, columns)``
stack: each level hashes one key per replicate, and one pass over the
stack's living candidates splits each flat position into (replicate,
cell) and draws its uniform from that replicate's key, so every lattice
of the stack equals the one ``sample`` draws for its index. ``sample`` is
the one-replicate stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analytic import ModelParams

#: Default memory budget for one realization or stack (2 GiB).
DEFAULT_BUDGET_BYTES = 2 << 30

#: Modelled peak bytes per cell of one replicate or stack. Under tracemalloc
#: at p = 1, ``sample`` peaks at 18 at n = 8 and ``sample_stack`` at 24 for
#: a block of 256 lattices at n = 4; the F+C window pass peaks at 11 at
#: n = 8 and 17 for that block, and ``label`` at 5.
PEAK_BYTES_PER_CELL = 48

#: Candidates hashed per call: bounds the hash's temporaries (about 40 bytes
#: per candidate) to a constant.
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
    """Blow each cell up into its M^d children (on the last two axes)."""
    out = np.repeat(occ, M, axis=-1)
    if d == 2:
        out = np.repeat(out, M, axis=-2)
    return out


def sample_stack(
    params: ModelParams,
    n: int,
    seed: int,
    indices,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> np.ndarray:
    """Draw the replicates ``indices`` of F_n as one boolean stack.

    Returns shape ``(B, M^n, M^n)``, or ``(B, 1, M^n)`` for d = 1, whose
    k-th lattice is replicate ``indices[k]``. Each level hashes one key per
    replicate, then draws the uniforms of the whole stack's living
    candidates together, ``_HASH_CHUNK`` at a time.

    Raises :class:`MemoryBudgetError` when the stack's modelled peak,
    ``PEAK_BYTES_PER_CELL`` bytes per cell, would exceed ``budget_bytes``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    indices = np.asarray(indices, dtype=np.uint64).reshape(-1)
    M, d = params.M, params.d
    cells = M ** (d * n)
    need = len(indices) * cells * PEAK_BYTES_PER_CELL
    if need > budget_bytes:
        raise MemoryBudgetError(
            f"{len(indices)} lattice(s) of {cells} cells need {need} bytes, over {budget_bytes}"
        )
    p = float(params.p)
    occ = np.ones((len(indices), 1, 1), dtype=bool)
    for level in range(1, n + 1):
        candidates = _expand(occ, M, d)
        idx = np.flatnonzero(candidates)
        keys = rng.node_key(seed, indices, level)
        level_cells = M ** (d * level)
        keep = np.empty(len(idx), dtype=bool)
        for lo in range(0, len(idx), _HASH_CHUNK):
            part = idx[lo : lo + _HASH_CHUNK]
            if len(indices) == 1:  # one replicate: the flat position is the cell
                key, cell = keys[0], part
            else:
                replicate = part // level_cells
                key, cell = keys[replicate], part - replicate * level_cells
            keep[lo : lo + _HASH_CHUNK] = rng.cell_uniforms(key, cell) < p
        occ = candidates
        occ.flat[idx] = keep
    return occ


def sample(
    params: ModelParams,
    n: int,
    seed: int,
    sample_index: int = 0,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> GridRealization:
    """Draw one realization of F_n: the one-replicate :func:`sample_stack`.

    Raises :class:`MemoryBudgetError` when the lattice's modelled peak,
    ``PEAK_BYTES_PER_CELL`` bytes per cell, would exceed ``budget_bytes``.
    """
    occ = sample_stack(params, n, seed, [sample_index], budget_bytes)[0]
    return GridRealization(params.M, float(params.p), params.d, n, seed, sample_index, "F", occ)


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
