"""Exact Minkowski functionals and connectivity of boolean lattices.

Cells are closed axis-aligned squares (closed intervals for d = 1), so two
occupied cells touching in a single corner are connected. The Euler
characteristic of such a union is computed combinatorially from the cell
complex it spans:

    V0 = #vertices touched - #edges touched + #cells,

the half-perimeter is V1 = s (2 #cells - #shared edges) and the area is
V2 = s^2 #cells, with s the cell side length. ``vk_scores`` alone maps
counters to the integer scores V_k / s^k, for Monte Carlo and the oracle too.

Two independent implementations are kept on purpose. The performance path
counts the 2x2 windows of the image, one per lattice vertex (Michielsen &
De Raedt, Phys. Rep. 347, 461, 2001). A cell is 0 empty, 1 occupied or
2 outside, so one 81-entry table gives each window's contribution both to
F, which reads 1 as occupied, and to the closed complement C, which reads 0
as occupied: one histogram pass measures F and C of a lattice or a stack.
The audit path computes the same counters with direct boolean reductions.
A third, structurally different cross-check obtains the Euler
characteristic as components minus holes from connected-component
labelling (occupied cells 8-connected, complement cells 4-connected,
matching closed-set semantics). A d = 1 lattice is one row of cells.

Cluster labelling and spanning detection (``label``) are one
``scipy.ndimage.label`` call at 4- or 8-connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np
from scipy import ndimage

from .sampler import GridRealization

Number = Union[int, float, Fraction]

_EIGHT = np.ones((3, 3), dtype=int)
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


#: Windows per offset ``bincount``, each lattice of a block also charged its
#: 81 histogram bins: bounds the int64 codes and histograms of one block.
_BLOCK_WINDOWS = 1 << 20


def _window_table() -> np.ndarray:
    """Contributions of window code a + 3 b + 9 c + 27 d (cells NW, NE, SW, SE)
    to the F, then the C (faces, edges_any, edges_shared, vertices), scaled by
    4: the vertex is counted once per window, each incident edge is split
    between its two endpoint windows and each cell between its four corners.
    """
    states = np.arange(81)[:, None] // 3 ** np.arange(4) % 3
    columns = []
    for inside in (1, 0):  # F reads 1 as occupied, C reads 0; outside is neither
        a, b, c, d = (states == inside).T.astype(np.int64)
        pairs = ((a, b), (c, d), (a, c), (b, d))  # N, S, W, E edges at the vertex
        columns += [a + b + c + d, 2 * sum(x | y for x, y in pairs),
                    2 * sum(x & y for x, y in pairs), 4 * (a | b | c | d)]
    return np.stack(columns, axis=1)


_WINDOW_TABLE = _window_table()


@dataclass(frozen=True)
class MinkowskiValues:
    """Lattice counts and derived functionals in unit-cube units.

    ``v2`` is None for d = 1 (the top functional there is ``v1``, the
    total length).
    """

    d: int
    cell_size: Number
    faces: int
    edges_any: int
    edges_shared: int
    vertices_any: int
    v0: int
    v1: Number
    v2: Number | None

    def vk(self, k: int) -> Number:
        value = (self.v0, self.v1, self.v2)[k] if k <= 2 else None
        if k < 0 or k > self.d or value is None:
            raise ValueError(f"V_{k} undefined for d = {self.d}")
        return value


def _as_occupancy(grid) -> tuple[np.ndarray, Number, int]:
    """(occupancy, cell size, d); a raw boolean array is a d = 2 lattice of unit cells."""
    if isinstance(grid, GridRealization):
        return grid.occupancy, grid.cell_size, grid.d
    return np.asarray(grid, bool), 1, 2


def vk_scores(counters, d: int) -> np.ndarray:
    """Integer scores (V0, V1 M^n[, V2 M^2n]) of lattices at level n from their
    counters (faces, edges_any, edges_shared, vertices_any) on the last axis:
    shape ``(..., 4)`` -> int64 ``(..., d + 1)``. A d = 1 lattice is one row."""
    faces, edges_any, edges_shared, vertices_any = np.asarray(counters).T
    v0 = vertices_any - edges_any + faces  # on a 1 x L row: one per run of cells
    return np.array((v0, faces) if d == 1 else (v0, 2 * faces - edges_shared, faces)).T


def _values(d, cell_size, *counters):
    faces, _, edges_shared, _ = counters
    v0, v1, *v2 = vk_scores(counters, d).tolist()
    if d == 1:  # a run of L cells touches L + 1 lattice points
        return MinkowskiValues(
            1, cell_size, faces, faces, edges_shared, faces + v0, v0, cell_size * v1, None
        )
    area = cell_size * cell_size * v2[0]
    return MinkowskiValues(2, cell_size, *counters, v0, cell_size * v1, area)


def _window_counters(occ: np.ndarray) -> np.ndarray:
    """Counters of F and C for one lattice or a stack on leading axes.

    Returns int64 of shape ``occ.shape[:-2] + (2, 4)``: F, then C, each
    (faces, edges_any, edges_shared, vertices_any). Small lattices are
    grouped into blocks of about ``_BLOCK_WINDOWS`` windows; a lattice with
    more windows is split into bands of window rows, whose slices of the
    padded lattice overlap by one row, so each window is counted once.
    """
    occ = np.asarray(occ, dtype=bool)
    H, W = occ.shape[-2:]
    stack = occ.reshape((math.prod(occ.shape[:-2]), H, W))
    out = np.empty((len(stack), 8), dtype=np.int64)
    group = max(1, _BLOCK_WINDOWS // ((H + 1) * (W + 1) + 81))
    rows = max(1, _BLOCK_WINDOWS // (W + 1))
    for start in range(0, len(stack), group):
        block = stack[start : start + group]
        size = len(block)
        P = np.pad(block.view(np.uint8), ((0, 0), (1, 1), (1, 1)), constant_values=2)
        offsets = 81 * np.arange(size)[:, None]
        hist = np.zeros(81 * size, dtype=np.int64)
        for top in range(0, H + 1, rows):
            band = P[:, top : top + rows + 1]
            codes = (band[:, :-1, :-1] + 3 * band[:, :-1, 1:]
                     + 9 * band[:, 1:, :-1] + 27 * band[:, 1:, 1:])
            hist += np.bincount((codes.reshape(size, -1) + offsets).ravel(), minlength=81 * size)
        del P
        counts4 = hist.reshape(size, 81) @ _WINDOW_TABLE
        assert not (counts4 % 4).any()
        out[start : start + size] = counts4 // 4
    return out.reshape(occ.shape[:-2] + (2, 4))


def _counting_counters(occ: np.ndarray) -> tuple:
    """(faces, edges_any, edges_shared, vertices_any) by direct boolean reductions."""
    faces = int(occ.sum())
    edges_shared = int((occ[:-1, :] & occ[1:, :]).sum()) + int(
        (occ[:, :-1] & occ[:, 1:]).sum()
    )
    P = np.pad(occ, 1)
    edges_any = int((P[:-1, 1:-1] | P[1:, 1:-1]).sum()) + int(
        (P[1:-1, :-1] | P[1:-1, 1:]).sum()
    )
    vertices_any = int((P[:-1, :-1] | P[:-1, 1:] | P[1:, :-1] | P[1:, 1:]).sum())
    return faces, edges_any, edges_shared, vertices_any


def minkowski_of_array(occ: np.ndarray, cell_size: Number, d: int = 2) -> MinkowskiValues:
    """Functionals of a raw boolean array (the F half of the window pass)."""
    return _values(d, cell_size, *_window_counters(np.atleast_2d(occ))[0].tolist())


def minkowski(grid: GridRealization) -> MinkowskiValues:
    """Exact functionals of a sampled grid; single histogram pass."""
    return minkowski_of_array(*_as_occupancy(grid))


def minkowski_pair(grid) -> tuple[MinkowskiValues, MinkowskiValues]:
    """Functionals of the occupied cells (F) and of their closed complement
    (C) from one window pass; ``grid`` may also be a raw boolean array."""
    occ, cell_size, d = _as_occupancy(grid)
    f, c = _window_counters(occ).tolist()
    return _values(d, cell_size, *f), _values(d, cell_size, *c)


def window_scores(stack: np.ndarray, d: int = 2) -> np.ndarray:
    """:func:`vk_scores` of F, then C, of every lattice of a ``(B, H, W)``
    stack from one window pass: int64 of shape ``(B, 2, d + 1)``."""
    return vk_scores(_window_counters(stack), d)


def minkowski_audit(grid) -> MinkowskiValues:
    """Independent counting-path evaluation (audit route)."""
    occ, cell_size, d = _as_occupancy(grid)
    return _values(d, cell_size, *_counting_counters(occ))


# ---------------------------------------------------------------------------
# Connected components, spanning detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClusterLabeling:
    """Component labels of occupied cells (-1 on empty cells).

    ``spans_x`` is True when one component touches both the leftmost and
    the rightmost column (the percolation event along the horizontal
    axis); ``spans_y`` is the vertical analogue.
    """

    labels: np.ndarray
    connectivity: int
    component_count: int
    spans_x: bool
    spans_y: bool

    def spanning_mask(self, axis: str = "x") -> np.ndarray:
        """Boolean mask of all cells lying in a spanning component."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        return np.isin(self.labels, _spanning_labels(self.labels, axis))


def _spanning_labels(labels: np.ndarray, axis: str) -> np.ndarray:
    """Component labels present on both opposite borders along ``axis``."""
    if axis == "x":
        first, last = labels[:, 0], labels[:, -1]
    else:
        first, last = labels[0, :], labels[-1, :]
    return np.intersect1d(first[first >= 0], last[last >= 0])


def label(grid, connectivity: int = 8) -> ClusterLabeling:
    """Connected-component labelling of the occupied cells (``scipy.ndimage``).

    Connectivity 8 matches the closed-set semantics of the construction
    cells (corner contact connects); connectivity 4 is the
    nearest-neighbour variant.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    occ = grid.occupancy if isinstance(grid, GridRealization) else np.asarray(grid, bool)
    labels, count = ndimage.label(occ, structure=_EIGHT if connectivity == 8 else _FOUR)
    labels -= 1  # empty cells -1, components 0-based; in place, no second full-size array
    return ClusterLabeling(
        labels, connectivity, int(count),
        bool(_spanning_labels(labels, "x").size), bool(_spanning_labels(labels, "y").size),
    )


def euler_crosscheck(grid) -> int:
    """Euler characteristic as components minus holes (independent route).

    Components of occupied cells are 8-connected; holes are 4-connected
    components of empty cells that do not reach the lattice boundary.
    """
    occ = grid.occupancy if isinstance(grid, GridRealization) else np.asarray(grid, bool)
    _, ncomp = ndimage.label(occ, structure=_EIGHT)
    inv = np.pad(~occ, 1, constant_values=True)
    lab, nabs = ndimage.label(inv, structure=_FOUR)
    border = np.unique(
        np.concatenate([lab[0, :], lab[-1, :], lab[:, 0], lab[:, -1]])
    )
    holes = nabs - np.count_nonzero(border)
    return int(ncomp - holes)
