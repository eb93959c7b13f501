"""Exact Minkowski functionals and connectivity of boolean lattices.

Cells are closed axis-aligned squares (closed intervals for d = 1), so two
occupied cells touching in a single corner are connected. The Euler
characteristic of such a union is computed combinatorially from the cell
complex it spans:

    V0 = #vertices touched - #edges touched + #cells,

the half-perimeter is V1 = s (2 #cells - #shared edges) and the area is
V2 = s^2 #cells, with s the cell side length.

Two independent implementations are kept on purpose. The performance path
classifies all 2x2 windows of the zero-padded image (each window sits at
one lattice vertex) and accumulates the four counters through a 16-entry
lookup table in a single histogram pass. The audit path computes the same
counters with direct boolean reductions. A third, structurally different
cross-check obtains the Euler characteristic as components minus holes
from connected-component labelling (occupied cells 8-connected, complement
cells 4-connected, matching closed-set semantics).

Cluster labelling and spanning detection (``label``) are one
``scipy.ndimage.label`` call at 4- or 8-connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np
from scipy import ndimage

from .sampler import GridRealization

Number = Union[int, float, Fraction]

_EIGHT = np.ones((3, 3), dtype=int)
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


def _window_tables():
    """Per-pattern contributions of one 2x2 window, scaled by 4.

    Window bits (a, b, c, d) are the four cells around one lattice vertex
    (NW, NE, SW, SE). The vertex is counted once per window, each of the
    four incident edges is split between its two endpoint windows, and
    each cell between its four corner windows, hence the scaling by 4.
    """
    faces = np.zeros(16, dtype=np.int64)
    vertices = np.zeros(16, dtype=np.int64)
    edges_any = np.zeros(16, dtype=np.int64)
    edges_shared = np.zeros(16, dtype=np.int64)
    for code in range(16):
        a, b, c, d = (code & 1, (code >> 1) & 1, (code >> 2) & 1, (code >> 3) & 1)
        faces[code] = a + b + c + d
        vertices[code] = 4 * ((a | b | c | d) != 0)
        pairs = ((a, b), (c, d), (a, c), (b, d))  # N, S, W, E edges at the vertex
        edges_any[code] = 2 * sum((x | y) != 0 for x, y in pairs)
        edges_shared[code] = 2 * sum((x & y) != 0 for x, y in pairs)
    return faces, vertices, edges_any, edges_shared


_LUT_FACES, _LUT_VERTICES, _LUT_EDGES_ANY, _LUT_EDGES_SHARED = _window_tables()


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
    if isinstance(grid, GridRealization):
        return grid.occupancy, grid.cell_size, grid.d
    raise TypeError("expected a GridRealization; use minkowski_of_array for raw arrays")


def _values_2d(occ, cell_size, faces, edges_any, edges_shared, vertices_any):
    v0 = int(vertices_any - edges_any + faces)
    v1 = cell_size * (2 * faces - edges_shared)
    v2 = cell_size * cell_size * faces
    return MinkowskiValues(
        2, cell_size, int(faces), int(edges_any), int(edges_shared), int(vertices_any), v0, v1, v2
    )


def _minkowski_2d_lookup(occ: np.ndarray, cell_size: Number) -> MinkowskiValues:
    P = np.pad(occ, 1).astype(np.uint8)
    codes = (
        P[:-1, :-1] + 2 * P[:-1, 1:] + 4 * P[1:, :-1] + 8 * P[1:, 1:]
    )
    hist = np.bincount(codes.ravel(), minlength=16).astype(np.int64)
    faces4 = int(hist @ _LUT_FACES)
    vert4 = int(hist @ _LUT_VERTICES)
    ea4 = int(hist @ _LUT_EDGES_ANY)
    es4 = int(hist @ _LUT_EDGES_SHARED)
    assert faces4 % 4 == ea4 % 4 == es4 % 4 == vert4 % 4 == 0
    return _values_2d(occ, cell_size, faces4 // 4, ea4 // 4, es4 // 4, vert4 // 4)


def _minkowski_2d_counting(occ: np.ndarray, cell_size: Number) -> MinkowskiValues:
    faces = int(occ.sum())
    edges_shared = int((occ[:-1, :] & occ[1:, :]).sum()) + int(
        (occ[:, :-1] & occ[:, 1:]).sum()
    )
    P = np.pad(occ, 1)
    edges_any = int((P[:-1, 1:-1] | P[1:, 1:-1]).sum()) + int(
        (P[1:-1, :-1] | P[1:-1, 1:]).sum()
    )
    vertices_any = int((P[:-1, :-1] | P[:-1, 1:] | P[1:, :-1] | P[1:, 1:]).sum())
    return _values_2d(occ, cell_size, faces, edges_any, edges_shared, vertices_any)


def _minkowski_1d(occ: np.ndarray, cell_size: Number) -> MinkowskiValues:
    row = occ.ravel()
    faces = int(row.sum())
    shared = int((row[:-1] & row[1:]).sum())  # interior endpoints shared by two cells
    runs = faces - shared
    vertices_any = faces + runs  # a run of L cells touches L + 1 lattice points
    return MinkowskiValues(
        1, cell_size, faces, faces, shared, vertices_any, runs, cell_size * faces, None
    )


def minkowski_of_array(occ: np.ndarray, cell_size: Number, d: int = 2) -> MinkowskiValues:
    """Functionals of a raw boolean array (lookup path)."""
    occ = np.asarray(occ, dtype=bool)
    if d == 1:
        return _minkowski_1d(occ, cell_size)
    return _minkowski_2d_lookup(occ, cell_size)


def minkowski(grid: GridRealization) -> MinkowskiValues:
    """Exact functionals of a sampled grid; single histogram pass."""
    occ, cell_size, d = _as_occupancy(grid)
    return minkowski_of_array(occ, cell_size, d)


def minkowski_audit(grid) -> MinkowskiValues:
    """Independent counting-path evaluation (audit route)."""
    if isinstance(grid, GridRealization):
        occ, cell_size, d = _as_occupancy(grid)
    else:
        occ, cell_size, d = np.asarray(grid, bool), 1, 2
    if d == 1:
        return _minkowski_1d(occ, cell_size)
    return _minkowski_2d_counting(occ, cell_size)


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
