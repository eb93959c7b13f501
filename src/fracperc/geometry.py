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
which scores one-point Monte Carlo blocks, the oracle's patterns and
verification, counts the 2x2 windows of the image, one per lattice vertex
(Michielsen & De Raedt, Phys. Rep. 347, 461, 2001). A cell is 0 empty, 1
occupied or 2 outside, so one 81-entry table gives each window's
contribution both to F, which reads 1 as occupied, and to the closed
complement C, which reads 0 as occupied: one histogram of window codes
measures F and C of a lattice or a stack. A stack where few cells live
(one in ``_SPARSE_RATIO`` or fewer, as at n = 12, p = 0.7) has its
histogram read from the corner windows of its living cells, the windows
they do not touch added per border class; any other is read window by
window. ``audit_counters``, the graded pass, computes the same counters with
direct reductions of an alive-count stack (``sampler.sample_grid``): F
counts the cells, pairs or windows whose max count reaches a threshold, C
all but those whose min count does, so seven histograms shared by F and C
give both at every point of a coupled p grid at once. Where a lattice has
a few windows per (max, min) pair of counts, each pair and window is binned
once by that pair and the histograms are its marginals. Its bool (one-point)
case is the audit route of the lookup; ``minkowski`` given a grid of
several points takes its graded case, which scores Monte Carlo blocks
drawn over that grid. A third, structurally different cross-check obtains
the Euler characteristic as components minus holes from
connected-component labelling (occupied cells 8-connected, complement
cells 4-connected, matching closed-set semantics), of a lattice or a stack
in two ``ndimage.label`` calls: 3-D structures that join no two lattices,
each lattice's count read off its label range, which is asserted to follow
the earlier lattices' (on a 2-vCPU box, verification's duality group
scores its 2,000 grids in 44 stacks in 0.12-0.19 s, one by one in 0.58-0.69
s). A d = 1 lattice is one row of cells.

Cluster labelling and spanning detection (``label``) are one
``scipy.ndimage.label`` call at 4- or 8-connectivity. ``first_spanning``
gives each lattice's first spanning point over a grid: a bisection that
labels a lattice only where its coarse shadow, the tiles holding an
occupied cell, spans (at n = 12, M = 2 the 64 x 64 shadow takes about 1 ms
to build and label, the 4096 x 4096 lattice 80-130 ms), a row nowhere.
"""

from __future__ import annotations

import itertools
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


#: Per window code a + 3 b + 9 c + 27 d: the states of its cells NW, NE, SW,
#: SE, each 0 empty, 1 occupied or 2 outside.
_STATES = np.arange(81)[:, None] // 3 ** np.arange(4) % 3


def _window_table() -> np.ndarray:
    """Contributions of each window code to the F, then the C (faces,
    edges_any, edges_shared, vertices), scaled by 4: the vertex is counted
    once per window, each incident edge is split between its two endpoint
    windows and each cell between its four corners.
    """
    columns = []
    for inside in (1, 0):  # F reads 1 as occupied, C reads 0; outside is neither
        a, b, c, d = (_STATES == inside).T.astype(np.int64)
        pairs = ((a, b), (c, d), (a, c), (b, d))  # N, S, W, E edges at the vertex
        columns += [a + b + c + d, 2 * sum(x | y for x, y in pairs),
                    2 * sum(x & y for x, y in pairs), 4 * (a | b | c | d)]
    return np.stack(columns, axis=1)


_WINDOW_TABLE = _window_table()

#: Per window code: the share 12 / k of each of its k occupied cells (12 is
#: the lcm of 1 .. 4; a code with none is never binned from a living cell),
#: and its border class, the mask of its outside cells (NW 1, NE 2, SW 4,
#: SE 8). The codes in order of class, where each class starts in that
#: order, and per class the code of its windows that hold no occupied cell.
_SHARES = 12 // np.maximum(1, (_STATES == 1).sum(axis=1))
_CLASS = ((_STATES == 2) << np.arange(4)).sum(axis=1)
_BY_CLASS = np.argsort(_CLASS, kind="stable")
_CLASS_STARTS = np.searchsorted(_CLASS[_BY_CLASS], np.arange(16))
_UNTOUCHED = (2 * (np.arange(16)[:, None] >> np.arange(4) & 1) * 3 ** np.arange(4)).sum(axis=1)

#: The window histogram is read from the living cells of a stack where at
#: most one cell in _SPARSE_RATIO lives, and from every window otherwise.
#: Measured on a 2-vCPU box, M = 2, d = 2, Bernoulli lattices, time from the
#: living cells over time from every window at 1 / 16, 1 / 24, 1 / 32 and
#: 1 / 64 of the cells living: one lattice at n = 8 1.33, 0.80, 0.65, 0.44;
#: n = 9 1.07, 0.74, 0.57, 0.32; n = 10 1.07, 0.80, 0.56, 0.37; n = 11 1.26,
#: 0.80, 0.60, 0.36; n = 12 1.57, 0.95, 0.76, 0.39 (83 ms from every window);
#: the default one-point blocks of 1,024 at n = 4 1.14, 0.95, 0.87, 0.72;
#: 256 at n = 5 0.95, 0.72, 0.59, 0.42; 64 at n = 6 0.95, 0.68, 0.56, 0.32;
#: 16 at n = 7 1.05, 0.92, 0.68, 0.37; 4 at n = 8 1.12, 0.71, 0.63, 0.42.
#: One lattice at n = 4 .. 6 costs 1.3 .. 1.9 times as much at every share,
#: and at n = 7 1.00 at 1 / 32: about 45 numpy calls against a pass of 40 ..
#: 110 us; Monte Carlo draws such lattices in blocks. Sampled lattices at
#: n = 12, p = 0.7 (1 in 61 to 68 living): 21-23 ms against 84-88 ms.
_SPARSE_RATIO = 32

#: The graded pass bins each pair and window once by (max, min) where a
#: lattice has at least _JOINT_RATIO windows per joint bin, (G + 1)^2, and by
#: max and by min apart otherwise. Measured on a 2-vCPU box, sampled stacks
#: of the default block sizes, M = 2, d = 2: time apart over time jointly at
#: 0.73 .. 0.89 windows per bin 0.72 (300 points, n = 8), 0.87 (37, n = 5),
#: 1.04 (17, n = 4), 1.05 (9, n = 3); at 1.47 .. 1.65 1.03 .. 1.20; at 2.0 ..
#: 2.3 1.09 .. 1.21 and 0.95 .. 0.99 for blocks of 7,084 one-point n = 1
#: lattices; at 2.9 .. 6.5 1.15 .. 1.29; at 11 .. 180 1.25 .. 1.43 (37 points:
#: 3.4 against 4.6 ms at n = 8, 4 lattices). A joint histogram holds 8 bytes
#: per bin, so at most 4 per window here. A stack of fewer than
#: _JOINT_WINDOWS windows in all bins apart: there the joint route's extra
#: numpy calls outweigh the ``bincount`` they save. One lattice at one point,
#: per pair kind or the windows: 47 x 47 cells 26 against 21 us jointly and
#: apart, 64 x 64 32 against 35, 90 x 90 48 against 60; 16 lattices of
#: 16 x 16 39 against 41.
_JOINT_RATIO, _JOINT_WINDOWS = 2, 4096


def vk_scores(counters, d: int) -> np.ndarray:
    """Integer scores (V0, V1 M^n[, V2 M^2n]) of lattices at level n from their
    counters (faces, edges_any, edges_shared, vertices_any) on the last axis:
    shape ``(..., 4)`` -> int64 ``(..., d + 1)``. A d = 1 lattice is one row."""
    faces, edges_any, edges_shared, vertices_any = np.asarray(counters).T
    v0 = vertices_any - edges_any + faces  # on a 1 x L row: one per run of cells
    return np.array((v0, faces) if d == 1 else (v0, 2 * faces - edges_shared, faces)).T


def _all_windows(block: np.ndarray) -> np.ndarray:
    """The (lattices, 81) window histogram of a bool stack from every window.
    A lattice with more than ``_BLOCK_WINDOWS`` windows is split into bands
    of window rows, whose slices of the padded lattice overlap by one row,
    so each window is counted once."""
    size, H, W = block.shape
    hist = np.zeros(81 * size, dtype=np.int64)
    rows = max(1, _BLOCK_WINDOWS // (W + 1))
    P = np.pad(block.view(np.uint8), ((0, 0), (1, 1), (1, 1)), constant_values=2)
    offsets = 81 * np.arange(size)[:, None]
    for top in range(0, H + 1, rows):
        band = P[:, top : top + rows + 1]
        codes = (band[:, :-1, :-1] + 3 * band[:, :-1, 1:]
                 + 9 * band[:, 1:, :-1] + 27 * band[:, 1:, 1:])
        hist += np.bincount((codes.reshape(size, -1) + offsets).ravel(), minlength=81 * size)
    return hist.reshape(size, 81)


def _living_windows(stack: np.ndarray) -> np.ndarray:
    """The (lattices, 81) window histogram of a bool stack from its living
    cells alone.

    Each living cell reads its 3 x 3 neighbourhood, a neighbour beyond its
    lattice as 2 (outside), and bins the codes of its four corner windows,
    so a window with k occupied cells is binned k times. A window that no
    living cell touches holds only empty and outside cells: its code is
    fixed by its border class (interior, one of four edges or of four
    corners), and it takes the windows of its class that were not touched.
    """
    size, H, W = stack.shape
    cells = np.flatnonzero(stack)  # nonzeros of bool are found fastest
    lattices, columns = np.divmod(cells, W)
    lattices, rows = np.divmod(lattices, H)
    lattices *= 81  # each lattice's offset into the histogram
    # per neighbour row (column) offset -1, 0, 1: where it lies inside the lattice
    inside_rows, inside_columns = (rows > 0, True, rows < H - 1), (columns > 0, True, columns < W - 1)
    del rows, columns
    flat = stack.reshape(-1).view(np.uint8)
    state = {(1, 1): 1}
    for i, j in itertools.product(range(3), repeat=2):
        if (i, j) != (1, 1):
            neighbour = flat.take(cells + ((i - 1) * W + j - 1), mode="clip")
            state[i, j] = np.where(inside_rows[i] & inside_columns[j], neighbour, np.uint8(2))
    del cells, inside_rows, inside_columns
    codes = np.empty((4, len(lattices)), dtype=np.intp)
    for k, (i, j) in enumerate(itertools.product(range(2), repeat=2)):  # the cell's NW corner .. SE
        np.add(state[i, j] + 3 * state[i, j + 1] + 9 * state[i + 1, j] + 27 * state[i + 1, j + 1],
               lattices, out=codes[k])
    del state, lattices
    hist = np.bincount(codes.reshape(-1), minlength=81 * size).reshape(size, 81)
    del codes
    # a touched window, binned once per occupied cell, takes 12 shares in all
    hist *= _SHARES
    assert not (hist % 12).any()
    hist //= 12
    touched = np.add.reduceat(hist[:, _BY_CLASS], _CLASS_STARTS, axis=1)
    windows = np.zeros(16, dtype=np.int64)
    for row_class, row_windows in ((3, 1), (0, H - 1), (12, 1)):  # the top row of windows .. bottom
        for column_class, column_windows in ((5, 1), (0, W - 1), (10, 1)):
            windows[row_class | column_class] = row_windows * column_windows
    hist[:, _UNTOUCHED] = windows - touched
    return hist


def window_counters(occ: np.ndarray) -> np.ndarray:
    """Counters of F and C for one lattice or a stack on leading axes.

    Returns int64 of shape ``occ.shape[:-2] + (2, 4)``: F, then C, each
    (faces, edges_any, edges_shared, vertices_any), the window histogram
    times ``_WINDOW_TABLE``. The histograms of a stack whose living cells
    are at most ``1 / _SPARSE_RATIO`` of its cells are read from those cells
    (``_living_windows``), of any other from every window (``_all_windows``).
    Small lattices are grouped into blocks of about ``_BLOCK_WINDOWS``
    windows, each lattice also charged its 81 histogram bins.
    """
    occ = np.asarray(occ, dtype=bool)
    H, W = occ.shape[-2:]
    stack = occ.reshape((math.prod(occ.shape[:-2]), H, W))
    sparse = stack.size and np.count_nonzero(stack) * _SPARSE_RATIO <= stack.size
    histogram = _living_windows if sparse else _all_windows
    out = np.empty((len(stack), 8), dtype=np.int64)
    group = max(1, _BLOCK_WINDOWS // ((H + 1) * (W + 1) + 81))
    for start in range(0, len(stack), group):
        counts4 = histogram(stack[start : start + group]) @ _WINDOW_TABLE
        assert not (counts4 % 4).any()
        out[start : start + len(counts4)] = counts4 // 4
    return out.reshape(occ.shape[:-2] + (2, 4))


def _bin_jointly(by_max: np.ndarray, by_min: np.ndarray, high: np.ndarray, low: np.ndarray,
                 bins: int) -> None:
    """Add to the flat (lattice, count) histograms ``by_max`` and ``by_min``
    the items of a stack whose max counts are ``high`` and min counts
    ``low``: one ``bincount`` of max * bins + min, offset by lattice, and
    its two marginals. The codes take the least unsigned dtype that holds
    them: at 4 lattices and 37 points uint16, which cut a call from 0.83 to
    0.62 ms against intp."""
    size = len(high)
    dtype = np.min_scalar_type(size * bins * bins - 1)
    code = np.multiply(high, bins, dtype=dtype)
    code += low
    code += (bins * bins * np.arange(size)).astype(dtype).reshape(size, 1, 1)
    joint = np.bincount(code.reshape(-1), minlength=size * bins * bins).reshape(size, bins, bins)
    del code
    # einsum: 3-5 times numpy's sum over the short axes of many lattices
    by_max += np.einsum("lhm->lh", joint).reshape(-1)
    by_min += np.einsum("lhm->lm", joint).reshape(-1)


def _graded(counts: np.ndarray, G: int) -> np.ndarray:
    """The graded pass over a count stack of G points: int64
    ``counts.shape[:-2] + (G, 2, 4)``. Pairs and windows are binned jointly
    by (max, min) (``_bin_jointly``) where a lattice has ``_JOINT_RATIO``
    windows per joint bin or more and the stack ``_JOINT_WINDOWS`` windows,
    and by max and by min apart otherwise."""
    H, W = counts.shape[-2:]
    size, bins = math.prod(counts.shape[:-2]), G + 1
    block = counts.reshape((size, H, W))
    offsets = bins * np.arange(size).reshape(size, 1, 1)
    hist = np.zeros((2, 4, size * bins), dtype=np.int64)
    (_, edges_any, edges_shared, vertices), (_, c_any, c_shared, c_vertices) = hist

    def count(target, values):
        target += np.bincount((values + offsets).ravel(), minlength=size * bins)

    count(hist[:, 0], block)  # faces, in F and in C
    # a border cell once per border edge, in F's edges_any and in C's
    count(hist[:, 1], np.hstack((block[:, 0], block[:, -1], block[:, :, 0], block[:, :, -1]))[:, None])
    P = np.empty((size, H + 2, W + 2), dtype=block.dtype)
    P[:, 1:-1, 1:-1] = block
    # interior pairs by max for F's edges_any and C's edges_shared, by min the other
    # way round; windows by max, the outside 0, for F, and by min, the outside G, for C
    lattice_windows = (H + 1) * (W + 1)
    if bins * bins * _JOINT_RATIO <= lattice_windows and size * lattice_windows >= _JOINT_WINDOWS:
        # horizontal pairs, vertical pairs (interior columns of the padded
        # ones), windows: each item binned once by (max, min)
        _bin_jointly(c_shared, edges_shared, np.maximum(block[:, :, :-1], block[:, :, 1:]),
                     np.minimum(block[:, :, :-1], block[:, :, 1:]), bins)
        P[:, 0] = P[:, -1] = P[:, :, 0] = P[:, :, -1] = 0
        high = np.maximum(P[:, :-1], P[:, 1:])
        P[:, 0] = P[:, -1] = P[:, :, 0] = P[:, :, -1] = G
        low = np.minimum(P[:, :-1], P[:, 1:])
        del P
        _bin_jointly(c_shared, edges_shared, high[:, 1:-1, 1:-1], low[:, 1:-1, 1:-1], bins)
        high = np.maximum(high[:, :, :-1], high[:, :, 1:])
        low = np.minimum(low[:, :, :-1], low[:, :, 1:])
        _bin_jointly(vertices, c_vertices, high, low, bins)
        del high, low
    else:
        for pad, reduce, pairs, windows in ((0, np.maximum, c_shared, vertices),
                                            (G, np.minimum, edges_shared, c_vertices)):
            P[:, 0] = P[:, -1] = P[:, :, 0] = P[:, :, -1] = pad
            columns = reduce(P[:, :-1], P[:, 1:])  # vertical pairs; their pairs are the windows
            count(pairs, columns[:, 1:-1, 1:-1])
            count(pairs, reduce(block[:, :, :-1], block[:, :, 1:]))
            count(windows, reduce(columns[:, :, :-1], columns[:, :, 1:]))
    edges_any += c_shared
    c_any += edges_shared
    # in place, the items reaching G, G - 1, .., 1: point 0, 1, .., G - 1
    above = hist.reshape(2, 4, size, bins)[..., ::-1]
    np.cumsum(above, axis=-1, out=above)
    # at or above 0: each cell, pair and window of each lattice binned once, in F and in C
    binned = np.array((H * W, (H + 1) * W + H * (W + 1), (H - 1) * W + H * (W - 1), (H + 1) * (W + 1)))
    assert (above[..., -1] == binned[:, None]).all()
    out = np.empty((size, G, 2, 4), dtype=np.int64)
    out[:, :, 0] = above[0, ..., :G].transpose(1, 2, 0)
    np.subtract(binned, above[1, ..., :G].transpose(1, 2, 0), out=out[:, :, 1])
    return out.reshape(counts.shape[:-2] + (G, 2, 4))


def _grades(counts, points) -> tuple:
    """(G, counts) of an alive-count stack of G = ``points`` grid points, the
    counts in the least unsigned dtype holding G; ArgumentError unless they
    are bool or unsigned integers in 0..G."""
    G, counts = _integer("grid points", points, 1), np.asarray(counts)
    if counts.dtype.kind not in "bu" or (counts.size and counts.max() > G):
        raise ArgumentError(f"counts must be unsigned integers in 0..{G}, got {counts.dtype}")
    # the outside pads as G in this dtype: no G + 1, which would wrap uint8 at
    # G = 255; and no uint64, which bincount refuses
    return G, counts.astype(np.min_scalar_type(G), copy=False)


def audit_counters(counts: np.ndarray, points: int | None = None) -> np.ndarray:
    """The counters of :func:`window_counters` by direct reductions (audit
    route), at every point of a coupled p grid in one pass.

    ``counts`` is an alive-count stack of G = ``points`` grid points, values
    0..G as ``sampler.sample_grid`` returns them: F at point j is
    ``counts >= G - j``. Returns int64 ``counts.shape[:-2] + (G, 2, 4)``.
    Without ``points`` the lattice or stack is read as bool (G = 1) and the
    point axis is dropped: ``window_counters``' shape.

    F counts the cells, adjacent pairs or 2x2 windows whose reduced count
    reaches the point's threshold: faces the counts, edges_any the max over
    pairs and vertices_any over windows (the outside padded with 0),
    edges_shared the min over interior pairs. C counts all items but those
    whose min (the outside padded with G; the max for edges_shared) reaches
    it, so F and C share seven histograms of the values 0..G and one of the
    border cells, summed from the top. Each is a ``bincount`` offset by
    lattice, or, where a lattice has ``_JOINT_RATIO`` windows per bin of
    (G + 1)^2 or more and the stack ``_JOINT_WINDOWS`` windows (a bool
    lattice from 63 x 63 cells on), a pair kind's or the windows' max and
    min histograms are the marginals of one ``bincount`` of (max, min). The
    stack is graded whole: ``montecarlo._block_size`` sizes the blocks it
    scores.
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
    One point is measured by :func:`window_counters`, several by one graded
    pass (at one point, n = 12, p = 0.7, the graded pass takes 0.8 s, the
    window histogram read from every window 77 ms, from the living cells
    18-28 ms).
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


def _checked_axis(axis: str) -> str:
    """``axis``; ArgumentError unless it is 'x' or 'y'."""
    if axis not in ("x", "y"):
        raise ArgumentError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def _spanning_labels(labels: np.ndarray, axis: str) -> np.ndarray:
    """Component labels present on both opposite borders along ``axis``."""
    if _checked_axis(axis) == "x":
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


def first_spanning(counts: np.ndarray, points: int, axes=("x", "y"),
                   connectivity: int = 8) -> np.ndarray:
    """Per lattice of an alive-count stack of G = ``points`` grid points (see
    :func:`audit_counters`) and per axis of ``axes``, the least point j whose
    lattice ``counts >= G - j`` spans along it as :func:`label` judges, G if
    none: int64 ``counts.shape[:-2] + (len(axes),)``.

    A row (d = 1, or n = 0) spans x iff every cell is occupied and y iff any
    is, so a stack of rows gives G less its min and max counts. Any other
    lattice is nested in j, so spanning is monotone in j: a bisection takes
    at most ceil(log2(G + 1)) probes per axis, each probe's flags kept for
    every axis. A probe labels the lattice only where its shadow spans: the
    tiles of ``_tile(rows)`` x ``_tile(columns)`` cells that hold an occupied
    cell, 64 x 64 of a 4096 x 4096 lattice. Adjacent cells lie in one tile
    or adjacent tiles, and a border cell in a border tile, so a spanning
    component maps into one spanning the shadow.
    """
    structure = _structure(connectivity)
    columns = ["xy".index(_checked_axis(axis)) for axis in axes]
    G, counts = _grades(counts, points)
    H, W = counts.shape[-2:]
    stack = counts.reshape((-1, H, W))
    if H == 1:
        ends = np.stack((stack.min(axis=(1, 2)), stack.max(axis=(1, 2))), axis=1)
        return (G - ends[:, columns].astype(np.int64)).reshape(counts.shape[:-2] + (len(axes),))
    th, tw = _tile(H), _tile(W)

    def probe(occ):
        # rows, then columns: 0.9 ms at 4096 x 4096, against 7 ms for one any() over both
        shadow = occ.reshape(H // th, th, W).any(axis=1).reshape(H // th, W // tw, tw).any(axis=2)
        labels, _ = ndimage.label(shadow, structure=structure)  # so calls of label() count lattices
        labels -= 1
        coarse = [bool(_spanning_labels(labels, axis).size) for axis in axes]
        if not any(coarse):
            return coarse
        lab = label(occ, connectivity)
        return [c and getattr(lab, f"spans_{axis}") for c, axis in zip(coarse, axes)]

    firsts = np.empty((len(stack), len(axes)), dtype=np.int64)
    for lattice, out in zip(stack, firsts):
        flags = {}
        for a in range(len(axes)):
            lo, hi = 0, G
            while lo < hi:
                mid = (lo + hi) // 2
                if mid not in flags:  # one point's 0/1 counts are its lattice: no copy
                    flags[mid] = probe(lattice.view(bool) if G == 1 else lattice >= G - mid)
                lo, hi = (lo, mid) if flags[mid][a] else (mid + 1, hi)
            out[a] = lo
    return firsts.reshape(counts.shape[:-2] + (len(axes),))


def _components(stack: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """Per lattice of a ``(B, H, W)`` bool stack, the number of components
    under the 2-D structure ``plane``: int64 ``(B,)`` from one
    ``ndimage.label`` call. Its 3-D structure is ``plane`` in the middle
    slice alone, so no component crosses from one lattice to another, and a
    lattice's count is its largest label less the largest of the lattices
    before it. That holds only where each lattice's labels follow every
    earlier lattice's, which is asserted, not assumed of ``ndimage``."""
    structure = np.zeros((3, 3, 3), dtype=int)
    structure[1] = plane
    labels, _ = ndimage.label(stack, structure=structure)
    flat = labels.reshape(len(stack), math.prod(stack.shape[1:]))
    # before[b]: the largest label of lattices 0 .. b - 1, a running maximum
    before = np.maximum.accumulate(np.concatenate(([0], flat.max(axis=1, initial=0))))
    # in place, no second full-size array: label 0 wraps to the largest
    # unsigned value, so the min is each lattice's least label less one
    flat -= 1
    unsigned = flat.view(f"u{flat.itemsize}")
    least = unsigned.min(axis=1, initial=np.iinfo(unsigned.dtype).max).astype(np.int64) + 1
    assert (least > before[:-1]).all(), "a lattice's labels do not follow the earlier lattices'"
    return np.diff(before)


def euler_crosscheck(grid):
    """Euler characteristic as components minus holes (independent route)
    of a lattice or a stack on leading axes: a Python ``int`` for a lattice
    or a ``GridRealization``, int64 of shape ``occ.shape[:-2]`` for a stack.

    Components of occupied cells are 8-connected; holes are 4-connected
    components of empty cells that do not reach the lattice boundary. A
    stack takes two ``ndimage.label`` calls in all (``_components``): its
    lattices are labelled as slices of one 3-D array that no component
    crosses, and each lattice's labels are asserted to follow the earlier
    lattices' before its count is read off the label range.
    """
    occ = grid.occupancy if isinstance(grid, GridRealization) else np.asarray(grid, bool)
    H, W = occ.shape[-2:]
    stack = occ.reshape((math.prod(occ.shape[:-2]), H, W))
    components = _components(stack, _EIGHT)
    # the empty ring joins every empty component that reaches the boundary into one
    empty = _components(np.pad(~stack, ((0, 0), (1, 1), (1, 1)), constant_values=True), _FOUR)
    chi = components - (empty - 1)
    return int(chi[0]) if occ.ndim == 2 else chi.reshape(occ.shape[:-2])
