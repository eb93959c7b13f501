"""Exact Minkowski functionals and connectivity of boolean lattices.

Cells are closed axis-aligned squares (closed intervals for d = 1), so two
occupied cells touching in a single corner are connected. The Euler
characteristic of such a union is computed combinatorially from the cell
complex it spans:

    V0 = #vertices touched - #edges touched + #cells,

the half-perimeter is V1 = s (2 #cells - #shared edges) and the area is
V2 = s^2 #cells, with s the cell side length. ``vk_scores`` alone maps
counters to the integer scores V_k / s^k, ``minkowski`` alone to float V_k.

Two independent implementations are kept on purpose. ``window_counters``,
the kernel of one-point Monte Carlo runs, the oracle and verification,
counts the 2x2 windows of the image, one per lattice vertex (Michielsen &
De Raedt, Phys. Rep. 347, 461, 2001). A cell is 0 empty, 1 occupied or 2
outside, so one 81-entry table gives each window's contribution both to F,
which reads 1 as occupied, and to the closed complement C, which reads 0
as occupied: one histogram pass measures F and C of a lattice or a stack.
``audit_counters``, the graded pass, computes the same counters with
direct reductions of an alive-count stack (``sampler.sample_grid``): each
counter counts cells, pairs or windows whose min or max count reaches a
threshold, so one histogram per quantity gives F and C at every point of a
coupled p grid at once. Its bool (one-point) case is the audit route of
the lookup; ``minkowski`` given a grid of several points takes its graded
case, which scores Monte Carlo blocks drawn over that grid. A third,
structurally different cross-check
obtains the Euler characteristic as components minus holes from
connected-component labelling (occupied cells 8-connected, complement
cells 4-connected, matching closed-set semantics). A d = 1 lattice is one
row of cells.

Cluster labelling and spanning detection (``label``) are one
``scipy.ndimage.label`` call at 4- or 8-connectivity. ``spans`` gives
the same span flags but labels a lattice only where its coarse shadow,
the tiles that hold an occupied cell, spans: a lattice that spans has a
shadow that spans. At n = 12, M = 2 the 64 x 64 shadow takes about 1 ms
to build and label, the 4096 x 4096 lattice 80-130 ms to label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .analytic import ArgumentError, _integer
from .sampler import GridRealization

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


def vk_scores(counters, d: int) -> np.ndarray:
    """Integer scores (V0, V1 M^n[, V2 M^2n]) of lattices at level n from their
    counters (faces, edges_any, edges_shared, vertices_any) on the last axis:
    shape ``(..., 4)`` -> int64 ``(..., d + 1)``. A d = 1 lattice is one row."""
    faces, edges_any, edges_shared, vertices_any = np.asarray(counters).T
    v0 = vertices_any - edges_any + faces  # on a 1 x L row: one per run of cells
    return np.array((v0, faces) if d == 1 else (v0, 2 * faces - edges_shared, faces)).T


def window_counters(occ: np.ndarray) -> np.ndarray:
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


def _reductions(cells: np.ndarray):
    """(counter index, values) of a ``(B, H, W)`` count stack, one at a time:
    the cells for faces, the max over adjacent pairs for edges_any and over
    2x2 windows for vertices_any, the outside padded with 0, and the min
    over interior pairs for edges_shared."""
    B, H, W = cells.shape
    P = np.zeros((B, H + 2, W + 2), dtype=cells.dtype)
    P[:, 1:-1, 1:-1] = cells
    columns = np.maximum(P[:, :-1], P[:, 1:])  # vertical pairs; their pairs are the windows
    yield 0, cells
    yield 1, columns[:, :, 1:-1]
    yield 1, np.maximum(P[:, 1:-1, :-1], P[:, 1:-1, 1:])
    yield 2, np.minimum(cells[:, :-1], cells[:, 1:])
    yield 2, np.minimum(cells[:, :, :-1], cells[:, :, 1:])
    yield 3, np.maximum(columns[:, :, :-1], columns[:, :, 1:])


def _graded(counts: np.ndarray, G: int) -> np.ndarray:
    """The graded pass over a count stack of G points: int64
    ``counts.shape[:-2] + (G, 2, 4)``."""
    H, W = counts.shape[-2:]
    size, bins = math.prod(counts.shape[:-2]), G + 1
    block = counts.reshape((size, H, W))
    offsets = bins * np.arange(size).reshape(size, 1, 1)
    hist = np.zeros((2, 4, size * bins), dtype=np.int64)
    for target, cells in zip(hist, (block, G - block)):
        for quantity, values in _reductions(cells):
            codes = values + offsets
            target[quantity] += np.bincount(codes.ravel(), minlength=size * bins)
            del codes, values  # before the generator makes the next
    # in place, the counts at or above G, G - 1, .., 1: F at point j, C at point G - 1 - j
    above = hist.reshape(2, 4, size, bins)[..., ::-1]
    np.cumsum(above, axis=-1, out=above)
    # at or above 0: each cell, pair and window of each lattice binned once
    binned = (H * W, (H + 1) * W + H * (W + 1), (H - 1) * W + H * (W - 1), (H + 1) * (W + 1))
    assert (above[..., -1] == np.array(binned)[:, None]).all()
    out = np.empty((size, G, 2, 4), dtype=np.int64)
    out[:, :, 0] = above[0, ..., :G].transpose(1, 2, 0)
    out[:, :, 1] = above[1, ..., G - 1 :: -1].transpose(1, 2, 0)
    return out.reshape(counts.shape[:-2] + (G, 2, 4))


def _grades(counts, points) -> tuple:
    """(G, counts) of an alive-count stack of G = ``points`` grid points, the
    counts in the least unsigned dtype holding G; ArgumentError unless they
    are bool or unsigned integers in 0..G."""
    G, counts = _integer("grid points", points, 1), np.asarray(counts)
    if counts.dtype.kind not in "bu" or (counts.size and counts.max() > G):
        raise ArgumentError(f"counts must be unsigned integers in 0..{G}, got {counts.dtype}")
    # G - counts stays in this dtype: no G + 1, which would wrap uint8 at G = 255;
    # and no uint64, which bincount refuses
    return G, counts.astype(np.min_scalar_type(G), copy=False)


def audit_counters(counts: np.ndarray, points: int | None = None) -> np.ndarray:
    """The counters of :func:`window_counters` by direct reductions (audit
    route), at every point of a coupled p grid in one pass.

    ``counts`` is an alive-count stack of G = ``points`` grid points, values
    0..G as ``sampler.sample_grid`` returns them: F at point j is
    ``counts >= G - j``. Returns int64 ``counts.shape[:-2] + (G, 2, 4)``.
    Without ``points`` the lattice or stack is read as bool (G = 1) and the
    point axis is dropped: ``window_counters``' shape.

    Each counter counts the cells, adjacent pairs or 2x2 windows whose
    reduced count reaches the point's threshold: faces the counts,
    edges_any the max over pairs and vertices_any the max over windows (the
    outside padded with 0), edges_shared the min over interior pairs. C
    takes the same reductions of ``G - counts``, whose outside pads as 0
    too, so it is never in C. One ``bincount`` per quantity, offset by
    lattice, histograms the values 0..G, and a reversed cumulative sum
    counts those at or above every threshold. The stack is graded whole:
    ``montecarlo._block_size`` sizes the blocks it scores.
    """
    if points is None:
        return _graded(np.asarray(counts, dtype=bool).view(np.uint8), 1)[..., 0, :, :]
    G, counts = _grades(counts, points)
    return _graded(counts, G)


def minkowski(occ: np.ndarray, cell_side: float, d: int = 2,
              points: int | None = None) -> np.ndarray:
    """V_0 .. V_d of F, then of C, of a lattice of cells of side
    ``cell_side``, or of every lattice of a ``(B, H, W)`` stack: float64 of
    shape ``occ.shape[:-2] + (2, d + 1)``. A d = 1 lattice is one row;
    ArgumentError for any other d or a d = 1 lattice of several rows.

    With ``points``, ``occ`` is an alive-count stack of G = ``points`` grid
    points (see :func:`audit_counters`) and the result gains a point axis,
    ``occ.shape[:-2] + (G, 2, d + 1)``, point j measuring ``occ >= G - j``.
    One point is measured by the window lookup, several by one graded pass
    (at one point, n = 12, the graded pass is 18.6 times slower).
    """
    if d not in (1, 2):
        raise ArgumentError(f"dimension d must be 1 or 2, got {d!r}")
    if d == 1 and np.shape(occ)[-2] != 1:
        raise ArgumentError(f"a d = 1 lattice is one row of cells, got shape {np.shape(occ)}")
    if points is None:
        scores = vk_scores(window_counters(occ), d)
    else:  # the counters go with the call, before the float V_k are made
        G, counts = _grades(occ, points)
        # one point's 0/1 counts are its lattices: the lookup reads them without a copy
        scores = vk_scores(window_counters(counts.view(bool))[..., None, :, :] if G == 1
                           else _graded(counts, G), d)
    s = cell_side
    return scores * np.array((1.0, s, s * s)[: d + 1])


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
        return np.isin(self.labels, _spanning_labels(self.labels, axis))


def _spanning_labels(labels: np.ndarray, axis: str) -> np.ndarray:
    """Component labels present on both opposite borders along ``axis``."""
    if axis not in ("x", "y"):
        raise ArgumentError(f"axis must be 'x' or 'y', got {axis!r}")
    if axis == "x":
        first, last = labels[:, 0], labels[:, -1]
    else:
        first, last = labels[0, :], labels[-1, :]
    return np.intersect1d(first[first >= 0], last[last >= 0])


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in (4, 8):
        raise ArgumentError(f"connectivity must be 4 or 8, got {connectivity}")
    return _EIGHT if connectivity == 8 else _FOUR


def label(grid, connectivity: int = 8) -> ClusterLabeling:
    """Connected-component labelling of the occupied cells (``scipy.ndimage``).

    Connectivity 8 matches the closed-set semantics of the construction
    cells (corner contact connects); connectivity 4 is the
    nearest-neighbour variant.
    """
    structure = _structure(connectivity)
    occ = grid.occupancy if isinstance(grid, GridRealization) else np.asarray(grid, bool)
    labels, count = ndimage.label(occ, structure=structure)
    labels -= 1  # empty cells -1, components 0-based; in place, no second full-size array
    return ClusterLabeling(
        labels, connectivity, int(count),
        bool(_spanning_labels(labels, "x").size), bool(_spanning_labels(labels, "y").size),
    )


def _tile(side: int) -> int:
    """The least divisor of ``side`` at or above its square root: M^ceil(n/2)
    for a side M^n with M prime."""
    return next(t for t in range(math.isqrt(side - 1) + 1, side + 1) if side % t == 0)


def spans(occ: np.ndarray, axes=("x", "y"), connectivity: int = 8) -> tuple:
    """``label(occ, connectivity)``'s span flags along ``axes``, a tuple of
    bools, labelling the lattice in full only where it can span.

    The shadow of the lattice marks the tiles that hold an occupied cell:
    tiles of ``_tile(rows)`` x ``_tile(columns)`` cells, so a d = 1 row
    has tiles of one row and a 4096 x 4096 lattice a 64 x 64 shadow. Two
    adjacent cells lie in one tile or in adjacent tiles, and a border cell
    in a border tile, so a component spanning an axis maps into one
    spanning it in the shadow. The shadow is labelled first, and the
    lattice only if it spans some axis of ``axes``.
    """
    structure = _structure(connectivity)
    occ = np.asarray(occ, dtype=bool)
    H, W = occ.shape
    th, tw = _tile(H), _tile(W)
    # rows, then columns: 0.9 ms at 4096 x 4096, against 7 ms for one any() over both
    shadow = occ.reshape(H // th, th, W).any(axis=1).reshape(H // th, W // tw, tw).any(axis=2)
    labels, _ = ndimage.label(shadow, structure=structure)  # so calls of label() count lattices
    labels -= 1
    coarse = [bool(_spanning_labels(labels, axis).size) for axis in axes]
    if not any(coarse):
        return tuple(coarse)
    lab = label(occ, connectivity)
    return tuple(c and getattr(lab, f"spans_{axis}") for c, axis in zip(coarse, axes))


def euler_crosscheck(grid) -> int:
    """Euler characteristic as components minus holes (independent route).

    Components of occupied cells are 8-connected; holes are 4-connected
    components of empty cells that do not reach the lattice boundary.
    """
    occ = grid.occupancy if isinstance(grid, GridRealization) else np.asarray(grid, bool)
    _, ncomp = ndimage.label(occ, structure=_EIGHT)
    # the empty ring joins every empty component that reaches the boundary into one
    _, empty = ndimage.label(np.pad(~occ, 1, constant_values=True), structure=_FOUR)
    return int(ncomp - (empty - 1))
