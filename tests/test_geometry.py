"""Minkowski counters, the lookup/audit duality, labelling and spanning."""

from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from fracperc import geometry as G
from fracperc import oracle as O
from fracperc import sampler as S
from fracperc.analytic import ArgumentError, ModelParams


def mk(occ, s=1.0):
    """V_0, V_1, V_2 of the occupied cells (F) of a lattice of cell side s."""
    return G.minkowski(np.asarray(occ, bool), s)[0]


def test_single_cell():
    occ = np.zeros((3, 3), bool)
    occ[1, 1] = True
    v = mk(occ, 0.5)
    assert v[0] == 1
    assert v[1] == pytest.approx(1.0)  # 2s
    assert v[2] == pytest.approx(0.25)
    faces, _, edges_shared, _ = G.window_counters(occ)[0]
    assert (faces, edges_shared) == (1, 0)


def test_ring_has_zero_euler():
    occ = np.ones((3, 3), bool)
    occ[1, 1] = False
    assert mk(occ)[0] == 0
    assert G.euler_crosscheck(occ) == 0


def test_diagonal_pair_connected():
    occ = np.zeros((2, 2), bool)
    occ[0, 0] = occ[1, 1] = True
    v = mk(occ, 0.5)
    assert v[0] == 1
    assert v[1] == pytest.approx(2.0)  # 4s by inclusion-exclusion
    assert G.euler_crosscheck(occ) == 1


def test_full_grid_is_unit_cube():
    v = mk(np.ones((8, 8), bool), 1 / 8)
    assert tuple(v) == (1, pytest.approx(2.0), pytest.approx(1.0))


def test_empty_grid():
    v = mk(np.zeros((4, 4), bool))
    assert tuple(v) == (0, 0, 0)
    assert G.euler_crosscheck(np.zeros((4, 4), bool)) == 0


def _euler_by_labels(occ):
    """Components minus holes of one lattice from ``ndimage.label``'s own
    counts: the reference of the stacked cross-check."""
    _, components = ndimage.label(occ, structure=np.ones((3, 3), int))
    _, empty = ndimage.label(np.pad(~occ, 1, constant_values=True),
                             structure=ndimage.generate_binary_structure(2, 1))
    return components - (empty - 1)


def test_stacked_crosscheck_equals_the_per_lattice_loop():
    rng = np.random.default_rng(33)
    stacks = []
    for _ in range(300):
        side = int(rng.integers(1, 41))
        shape = (1, side) if rng.random() < 0.2 else (side, int(rng.integers(1, 41)))
        stacks.append(rng.random((int(rng.integers(1, 9)), *shape)) < rng.choice((0.2, 0.5, 0.8)))
    # empty lattices (no labels, so the running max stays flat) at the start,
    # the middle and the end, and full ones; rows and single cells
    mixed = rng.random((7, 6, 5)) < 0.5
    mixed[[0, 3, 6]] = False
    mixed[[2, 5]] = True
    stacks += [mixed, np.ones((4, 6, 5), bool), np.zeros((4, 6, 5), bool),
               rng.random((9, 1, 1)) < 0.5, rng.random((5, 1, 7)) < 0.5, np.zeros((0, 4, 4), bool)]
    for stack in stacks:
        got = G.euler_crosscheck(stack)
        assert got.dtype == np.int64 and got.shape == stack.shape[:1]
        loop = [G.euler_crosscheck(lattice) for lattice in stack]
        assert all(type(value) is int for value in loop)
        assert got.tolist() == loop == [_euler_by_labels(lattice) for lattice in stack], stack.shape
    # two leading axes
    stack = rng.random((3, 4, 7, 9)) < rng.choice((0.2, 0.5, 0.8), size=(3, 4, 1, 1))
    got = G.euler_crosscheck(stack)
    assert got.shape == (3, 4)
    for index in np.ndindex(3, 4):
        assert got[index] == _euler_by_labels(stack[index])
    # a GridRealization, as a lattice and as a stack of one
    grid = S.sample(ModelParams(2, 0.7, 2), 5, 11, 0)
    value = G.euler_crosscheck(grid)
    assert type(value) is int
    assert value == G.euler_crosscheck(grid.occupancy[None])[0] == _euler_by_labels(grid.occupancy)


def test_lookup_equals_audit_and_crosscheck():
    rng = np.random.default_rng(123)
    cases = [(shape, density) for shape in ((1, 1), (1, 9), (9, 1), (2, 7), (6, 3))
             for density in (0.0, 0.5, 1.0)]
    cases += [(tuple(int(v) for v in rng.integers(1, 40, size=2)),
               rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))) for _ in range(1000)]
    for shape, density in cases:
        occ = rng.random(shape) < density
        # both halves of the single F/C pass against the counting path
        assert np.array_equal(G.window_counters(occ), G.audit_counters(occ)), shape
        v = mk(occ)
        assert v[0] == G.euler_crosscheck(occ)
        assert v[2] == occ.sum()
        assert v[1] >= 0
    # one stacked kernel call (two leading axes, more lattices than one
    # bincount block) equals the per-slice calls
    group = G._BLOCK_WINDOWS // (5 * 6 + 81)
    stack = rng.random((2, group // 2 + 3, 4, 5)) < 0.5
    stacked = G.window_counters(stack)
    assert stacked.shape == stack.shape[:2] + (2, 4)
    for index in np.ndindex(*stack.shape[:2]):
        assert np.array_equal(stacked[index], G.window_counters(stack[index]))


def test_window_counters_in_small_blocks_and_row_bands(monkeypatch):
    # tiny window budgets split lattices into overlapping row bands and
    # stacks into many blocks; the counters stay those of one whole pass
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(60):
        shape = (int(rng.integers(1, 6)),) + tuple(int(v) for v in rng.integers(1, 30, size=2))
        cases.append(rng.random(shape) < rng.choice((0.0, 0.3, 0.6, 1.0)))
    cases += [rng.random((3, 1, 40)) < 0.5, rng.random((2, 40, 1)) < 0.5]
    whole = [G.window_counters(occ) for occ in cases]
    for budget in (1, 7, 50, 200, 1000):
        monkeypatch.setattr(G, "_BLOCK_WINDOWS", budget)
        for occ, expected in zip(cases, whole):
            assert np.array_equal(G.window_counters(occ), expected), (budget, occ.shape)
            # positions across several groups are not split: each group scans its own
            assert np.array_equal(G.window_counters(occ, np.flatnonzero(occ)), expected), budget
            assert np.array_equal(G.window_counters(occ[0]), expected[0]), (budget, occ.shape)


def _assert_branches_equal_audit(monkeypatch, occ):
    """``window_counters(occ)`` equals ``audit_counters(occ)`` with its
    histogram read from the living cells and from every window, each forced
    through ``_SPARSE_RATIO``: 1 sends every stack to the living cells, 1e30
    every stack with a living cell to the windows. So does
    ``window_counters(occ, living)`` given the living cells' flat positions
    in ``np.flatnonzero`` order, reversed and shuffled. Both histograms of
    the stack are also compared directly, which covers the windows of an
    empty stack."""
    stack = np.asarray(occ, bool).reshape((-1,) + np.shape(occ)[-2:])
    every = G._all_windows(stack)
    assert np.array_equal(G._living_windows(stack), every), stack.shape
    cells = np.flatnonzero(occ)
    orders = (cells, cells[::-1], np.random.default_rng(len(cells)).permutation(cells))
    for living in orders:
        assert np.array_equal(G._living_windows(stack, living), every), stack.shape
    audit = G.audit_counters(occ)
    for ratio in (1, 1e30):
        monkeypatch.setattr(G, "_SPARSE_RATIO", ratio)
        assert np.array_equal(G.window_counters(occ), audit), (np.shape(occ), ratio)
        for living in orders:
            assert np.array_equal(G.window_counters(occ, living), audit), (np.shape(occ), ratio)


def test_window_counters_from_living_cells_equal_every_window(monkeypatch):
    # sampled stacks near extinction (p = 1.1 / M^d) and at p = 0.7, one-row
    # lattices too; each stack is also scored lattice by lattice
    for M, d, n in ((2, 2, 10), (2, 2, 6), (3, 2, 5), (2, 1, 10), (3, 1, 6)):
        for p in (1.1 / M**d, 0.7):
            counts = S.sample_grid(M, d, [p], n, 9, np.arange(3 if n > 6 else 12))[0]
            _assert_branches_equal_audit(monkeypatch, counts.view(bool))
            for occ in counts.view(bool)[:3]:
                _assert_branches_equal_audit(monkeypatch, occ)
    # empty lattices and stacks, down to one cell
    for shape in ((1, 1), (1, 7), (7, 1), (5, 5), (3, 4, 6)):
        _assert_branches_equal_audit(monkeypatch, np.zeros(shape, bool))
    # one living cell at every position: on a border, in a corner, alone in a row or column
    for H, W in ((1, 1), (1, 7), (7, 1), (3, 3), (5, 5)):
        single = np.zeros((H * W, H, W), bool)
        single.reshape(H * W, -1)[np.arange(H * W), np.arange(H * W)] = True
        _assert_branches_equal_audit(monkeypatch, single)
        for occ in single:
            _assert_branches_equal_audit(monkeypatch, occ)
    # mixed stacks: empty, full, single-cell and random lattices side by side
    rng = np.random.default_rng(28)
    for _ in range(40):
        H, W = (int(v) for v in rng.integers(1, 12, size=2))
        stack = rng.random((int(rng.integers(3, 9)), H, W)) < rng.choice((0.02, 0.1, 0.5, 0.9))
        stack[0] = False
        stack[1] = True
        stack[2] = False
        stack[2, rng.integers(H), rng.integers(W)] = True
        _assert_branches_equal_audit(monkeypatch, stack)
        _assert_branches_equal_audit(monkeypatch, np.stack((stack, stack[::-1])))
    # a living cell on every border and in every corner of each lattice, and
    # empty lattices first, in the middle and last
    for H, W in ((1, 6), (2, 2), (4, 5), (6, 6)):
        rim = np.zeros((5, H, W), bool)
        rim[1, 0], rim[1, -1], rim[3, :, 0], rim[3, :, -1] = True, True, True, True
        _assert_branches_equal_audit(monkeypatch, rim)
        rim[1:4:2, 1:-1, 1:-1] = True
        _assert_branches_equal_audit(monkeypatch, rim)
    # sampled stacks with their draw's positions, in chunk order: one-row
    # lattices, and a block of 1,024 n = 4 lattices
    for M, d, n, block, p in ((2, 1, 10, 16, 0.7), (3, 1, 6, 16, 0.5), (2, 2, 8, 4, 0.3),
                              (3, 2, 5, 4, 0.2), (2, 2, 4, 1024, 0.3)):
        counts, living = S.sample_grid(M, d, [p], n, 4, np.arange(block))
        occ = counts.view(bool)
        assert np.array_equal(G._living_windows(occ, living), G._all_windows(occ)), (M, d, n)
        audit = G.audit_counters(occ)
        for ratio in (1, 1e30):
            monkeypatch.setattr(G, "_SPARSE_RATIO", ratio)
            assert np.array_equal(G.window_counters(occ, living), audit), (M, d, n, ratio)


def test_oracle_pattern_scores_from_either_branch(monkeypatch):
    # every 4 x 4 pattern of the oracle's (M, n, d) = (2, 2, 2) table
    keys = O._block_structure(2, 2, 2).keys
    occ = (keys[:, None] >> (15 - np.arange(16)) & 1).astype(bool).reshape(-1, 4, 4)
    audit = G.audit_counters(occ)
    for ratio in (1, 1e30):
        monkeypatch.setattr(G, "_SPARSE_RATIO", ratio)
        scores = O._pattern_scores.__wrapped__(2, 2, 2)  # past the cache: scored again
        assert np.array_equal(scores[..., :4], audit), ratio
    assert np.array_equal(scores, O._pattern_scores(2, 2, 2))


def test_window_counters_read_living_cells_under_the_ratio(monkeypatch):
    # the branch is chosen over the stack it is given: living * ratio <= cells
    calls = []
    monkeypatch.setattr(G, "_living_windows", lambda stack, cells=None: calls.append(stack.shape)
                        or G._all_windows(stack))
    occ = np.zeros((2, 8, 8), bool)
    occ[0, 3, 3] = occ[0, 4, 4] = occ[1, 0, 0] = occ[1, 7, 7] = True  # 4 of 128 cells
    G.window_counters(occ)
    assert calls == [(2, 8, 8)]
    G.window_counters(occ[0])  # 2 of 64
    assert calls == [(2, 8, 8), (1, 8, 8)]
    denser = occ.copy()
    denser[0, 5, 5] = True  # 5 of 128, 3 of 64
    G.window_counters(denser)
    G.window_counters(denser[0])
    assert len(calls) == 2
    G.window_counters(np.zeros((0, 3), bool))  # no cells: every window is outside
    assert len(calls) == 2
    # given positions, the branch follows their number: the stack is neither
    # counted nor scanned, and the positions reach _living_windows as given
    given = []
    monkeypatch.setattr(G, "_living_windows", lambda stack, cells=None: given.append(cells)
                        or G._all_windows(stack))
    living, denser_living = np.flatnonzero(occ)[::-1], np.flatnonzero(denser)
    expected, denser_expected = G.audit_counters(occ), G.audit_counters(denser)

    def no_scan(*args, **kwargs):
        raise AssertionError("the stack was scanned")

    monkeypatch.setattr(G.np, "flatnonzero", no_scan)
    monkeypatch.setattr(G.np, "count_nonzero", no_scan)
    assert np.array_equal(G.window_counters(occ, living), expected)
    assert len(given) == 1 and given[0] is living
    assert np.array_equal(G.window_counters(denser, denser_living), denser_expected)
    assert len(given) == 1  # every window, the positions unread


def _assert_graded_equals_thresholds(counts, points):
    """The graded pass of an alive-count stack equals a window pass of its
    lattice ``counts >= points - j`` at every point j."""
    graded = G.audit_counters(counts, points)
    assert graded.shape == counts.shape[:-2] + (points, 2, 4) and graded.dtype == np.int64
    for j in range(points):
        expected = G.window_counters(counts >= points - j)
        assert np.array_equal(graded[..., j, :, :], expected), (counts.shape, points, j)


def test_graded_pass_equals_window_counters_at_every_point():
    rng = np.random.default_rng(31)
    # a bool lattice or stack is one point: without the point axis, the lookup's shape
    occ = rng.random((4, 9, 7)) < 0.5
    assert np.array_equal(G.audit_counters(occ), G.window_counters(occ))
    assert np.array_equal(G.audit_counters(occ[0]), G.window_counters(occ[0]))
    _assert_graded_equals_thresholds(occ, 1)
    # sampled stacks: G = 2, 255 (uint8 at its limit) and 256 (uint16), M = 3, d = 1 rows
    for M, d, n, points in ((2, 2, 3, 2), (3, 2, 2, 255), (2, 2, 3, 256), (2, 1, 6, 37),
                            (3, 1, 3, 255)):
        counts = S.sample_grid(M, d, np.linspace(0.2, 1.0, points), n, 11, np.arange(5))[0]
        assert counts.dtype == (np.uint8 if points <= 255 else np.uint16)
        _assert_graded_equals_thresholds(counts, points)
    # random rectangles holding every count 0..G, as uint8 also above G = 255
    for _ in range(60):
        points = int(rng.choice((1, 2, 3, 9, 255, 256, 300)))
        shape = (int(rng.integers(1, 4)),) + tuple(int(v) for v in rng.integers(1, 14, size=2))
        counts = rng.integers(0, min(points, 255) + 1, size=shape)
        counts[(0,) * counts.ndim] = min(points, 255)
        _assert_graded_equals_thresholds(counts.astype(np.uint8), points)
    # lattices of border cells only, a 1 x 1 one with no interior pair: every
    # count 0..G at every cell, neighbours apart, and one lattice all at G
    for points in (2, 37, 255, 256):
        for H, W in ((1, 1), (1, 7), (7, 1), (2, 2)):
            values = (np.arange(points + 1)[:, None] + 5 * np.arange(H * W)) % (points + 1)
            counts = np.concatenate((values.reshape(-1, H, W), np.full((1, H, W), points)))
            _assert_graded_equals_thresholds(counts.astype(np.min_scalar_type(points)), points)
    _assert_graded_equals_thresholds(np.full((2, 3, 4), 255, np.uint8), 255)
    _assert_graded_equals_thresholds(np.arange(256, dtype=np.uint16).reshape(2, 8, 16), 256)
    # any unsigned width is graded in the least one holding G: uint64 too, for one lattice or more
    wide = rng.integers(0, 38, size=(3, 6, 5)).astype(np.uint64)
    _assert_graded_equals_thresholds(wide, 37)
    _assert_graded_equals_thresholds(wide[0], 37)
    _assert_graded_equals_thresholds(wide.astype(np.uint32), 300)


def test_graded_pass_takes_the_joint_route_from_its_boundaries(monkeypatch):
    # a stack bins its pairs and windows jointly by (max, min), three calls
    # of _bin, where each lattice has _JOINT_RATIO windows per joint bin,
    # (G + 1)^2: exactly at the boundary, and apart one column fewer, at any
    # size of the stack
    calls = []
    binning = G._bin
    monkeypatch.setattr(G, "_bin", lambda *args: calls.append(args[-2:]) or binning(*args))
    rng = np.random.default_rng(32)
    cases = []
    for points in (1, 2, 37, 255, 256):  # at 255 points one lattice's codes fill uint16
        # H = G and W = (G + 1) _JOINT_RATIO - 1: the ratio's boundary
        H, W = points, (points + 1) * G._JOINT_RATIO - 1
        assert (H + 1) * (W + 1) == (points + 1) ** 2 * G._JOINT_RATIO
        for size in (1, 3):
            cases += [(points, (size, H, W), True), (points, (size, H, W - 1), False)]
    # 7 x 7 lattices at one point have 64 windows, 16 per joint bin: jointly
    # for one lattice and for stacks of a few, as for many
    cases += [(1, (size, 7, 7), True) for size in (1, 4, 64)]
    for points, shape, jointly in cases:
        counts = rng.integers(0, points + 1, size=shape)
        counts[0, 0, 0] = points
        calls.clear()
        _assert_graded_equals_thresholds(counts.astype(np.min_scalar_type(points)), points)
        assert calls == [(points + 1, jointly)] * 3, (points, shape)


def test_graded_pass_kills_its_binning_mutants(monkeypatch):
    # each mutant of _bin makes the graded counters differ from the window
    # pass at the points, on a stack that bins jointly (n = 6, 37 points) and
    # on one that bins apart (n = 2, 300 points: 25 windows per lattice
    # against 301^2 joint bins); the pass's own check of its totals may be
    # the assertion that fails
    binning = G._bin

    def swapped(by_max, by_min, high, low, bins, jointly):  # the two marginals swapped
        binning(by_min, by_max, high, low, bins, jointly)

    def no_offset(by_max, by_min, high, low, bins, jointly):  # every lattice in the first's bins
        shape = (1, -1) + (1,) * (high.ndim - 2)
        binning(by_max[:bins], by_min[:bins], high.reshape(shape), low.reshape(shape), bins, jointly)

    for n, points in ((6, 37), (2, 300)):
        counts = S.sample_grid(2, 2, np.linspace(0.26, 0.98, points), n, 13, np.arange(4))[0]
        windows = (2**n + 1) ** 2
        assert (windows >= G._JOINT_RATIO * (points + 1) ** 2) == (n == 6)
        _assert_graded_equals_thresholds(counts, points)
        for mutant in (swapped, no_offset):
            monkeypatch.setattr(G, "_bin", mutant)
            with pytest.raises(AssertionError):
                _assert_graded_equals_thresholds(counts, points)
            monkeypatch.setattr(G, "_bin", binning)


def test_graded_pass_refuses_counts_it_cannot_grade():
    with pytest.raises(ArgumentError, match="0..2"):
        G.audit_counters(np.full((2, 2), 3, np.uint8), 2)
    with pytest.raises(ArgumentError, match="0..2"):
        G.audit_counters(np.zeros((2, 2), np.int64), 2)
    with pytest.raises(ArgumentError, match="grid points"):
        G.audit_counters(np.zeros((2, 2), np.uint8), 0)


def test_additivity_on_overlapping_column_splits():
    # V_k(A) + V_k(B) = V_k(A u B) + V_k(A n B) when A, B overlap in one column
    rng = np.random.default_rng(5)
    for _ in range(200):
        side = int(rng.integers(3, 24))
        occ = rng.random((side, side)) < rng.choice((0.3, 0.6))
        c = int(rng.integers(1, side - 1))
        A = occ.copy()
        A[:, c + 1 :] = False
        B = occ.copy()
        B[:, :c] = False
        meet = np.zeros_like(occ)
        meet[:, c] = occ[:, c]
        for k in (0, 1, 2):
            lhs = mk(A)[k] + mk(B)[k]
            rhs = mk(occ)[k] + mk(meet)[k]
            assert lhs == rhs


def test_one_dimensional_counts():
    pr = ModelParams(2, 0.5, 1)
    grid = S.sample(pr, 3, seed=3)
    v = G.minkowski(grid.occupancy, grid.cell_size, grid.d)
    row = grid.occupancy[0]
    runs = int(np.sum(row[1:] & ~row[:-1])) + int(row[0])
    assert v[0, 0] == runs
    assert v[0, 1] == pytest.approx(row.sum() / 8)
    # V_0 and V_1 of F, then of C: no V_2 on a line
    assert v.shape == (2, 2)


def test_minkowski_over_a_grid_measures_each_point():
    # with points, a count stack is measured at every point: point j is counts >= G - j
    rng = np.random.default_rng(12)
    for M, d, n, points in ((2, 2, 3, 1), (2, 2, 3, 2), (3, 2, 2, 37), (2, 1, 5, 1), (2, 1, 5, 9),
                            (2, 2, 2, 300)):
        counts = S.sample_grid(M, d, np.sort(rng.random(points)), n, 5, np.arange(4))[0]
        side = float(M) ** -n
        graded = G.minkowski(counts, side, d, points)
        assert graded.shape == (4, points, 2, d + 1)
        for j in range(points):
            assert np.array_equal(graded[:, j], G.minkowski(counts >= points - j, side, d)), j
        assert np.array_equal(G.minkowski(counts[0], side, d, points), graded[0])
    with pytest.raises(ValueError, match="one row"):
        G.minkowski(np.ones((2, 2), np.uint8), 1.0, 1, 2)
    with pytest.raises(ValueError, match="0..1"):
        G.minkowski(np.full((2, 2), 2, np.uint8), 1.0, 2, 1)


def test_minkowski_refuses_shapes_it_cannot_measure():
    with pytest.raises(ValueError, match="1 or 2"):
        G.minkowski(np.ones((2, 2), bool), 1.0, 3)
    with pytest.raises(ValueError, match="1 or 2"):
        G.minkowski(np.ones((1, 2), bool), 1.0, 0)
    for shape in ((2, 2), (3, 2, 4)):  # a lattice, and a stack, of several rows
        with pytest.raises(ValueError, match="one row"):
            G.minkowski(np.ones(shape, bool), 1.0, 1)
    # a stack of one-row lattices is measured lattice by lattice
    rows = np.array([[[1, 1, 0, 1]], [[0, 0, 0, 0]]], bool)
    assert G.minkowski(rows, 0.25, 1).tolist() == [[[2, 0.75], [1, 0.25]], [[0, 0], [1, 1]]]


def test_label_connectivity_difference():
    occ = np.zeros((2, 2), bool)
    occ[0, 0] = occ[1, 1] = True
    assert G.label(occ, 8).component_count == 1
    assert G.label(occ, 4).component_count == 2
    with pytest.raises(ValueError):
        G.label(occ, 6)


def test_label_full_and_empty():
    full = G.label(np.ones((5, 5), bool), 4)
    assert full.component_count == 1 and full.spans_x and full.spans_y
    empty = G.label(np.zeros((5, 5), bool), 8)
    assert empty.component_count == 0 and not empty.spans_x and not empty.spans_y


def test_label_matches_scipy_counts():
    rng = np.random.default_rng(42)
    eight = np.ones((3, 3), int)
    for _ in range(200):
        occ = rng.random((24, 24)) < rng.choice((0.4, 0.55, 0.7))
        assert G.label(occ, 8).component_count == ndimage.label(occ, structure=eight)[1]
        assert G.label(occ, 4).component_count == ndimage.label(occ)[1]


def _bfs_components(occ, connectivity):
    """Reference labelling by breadth-first search: (labels, component count)."""
    H, W = occ.shape
    steps = [
        (dr, dc)
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
        if (dr, dc) != (0, 0) and (connectivity == 8 or dr == 0 or dc == 0)
    ]
    labels = np.full((H, W), -1)
    count = 0
    for r in range(H):
        for c in range(W):
            if not occ[r, c] or labels[r, c] >= 0:
                continue
            labels[r, c] = count
            queue = deque([(r, c)])
            while queue:
                i, j = queue.popleft()
                for dr, dc in steps:
                    a, b = i + dr, j + dc
                    if 0 <= a < H and 0 <= b < W and occ[a, b] and labels[a, b] < 0:
                        labels[a, b] = count
                        queue.append((a, b))
            count += 1
    return labels, count


def test_label_matches_breadth_first_search():
    rng = np.random.default_rng(2718)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 2)]
    shapes += [tuple(int(v) for v in rng.integers(1, 14, size=2)) for _ in range(150)]
    for shape in shapes:
        for density in (0.0, 0.35, 0.55, 0.75, 1.0):
            occ = rng.random(shape) < density
            for connectivity in (4, 8):
                ref, count = _bfs_components(occ, connectivity)
                lab = G.label(occ, connectivity)
                case = (shape, density, connectivity)
                assert lab.component_count == count, case
                # same partition: -1 exactly on empty cells, labels in
                # one-to-one correspondence with the search's
                assert np.array_equal(lab.labels < 0, ~occ), case
                pairs = set(zip(lab.labels[occ].tolist(), ref[occ].tolist()))
                assert len(pairs) == count, case
                assert set(lab.labels[occ].tolist()) == set(range(count)), case
                for axis, spans in (("x", lab.spans_x), ("y", lab.spans_y)):
                    first, last = (ref[:, 0], ref[:, -1]) if axis == "x" else (ref[0], ref[-1])
                    expected = np.isin(ref, list((set(first) & set(last)) - {-1}))
                    assert np.array_equal(lab.spanning_mask(axis), expected), case
                    assert spans == expected.any(), case


def test_component_counts_ordered_by_connectivity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        occ = rng.random((16, 16)) < 0.5
        assert G.label(occ, 8).component_count <= G.label(occ, 4).component_count


def test_spanning_detection_and_mask():
    occ = np.zeros((5, 5), bool)
    occ[2, :] = True  # a horizontal bar spans x but not y
    lab = G.label(occ, 4)
    assert lab.spans_x and not lab.spans_y
    mask = lab.spanning_mask("x")
    assert np.array_equal(mask, occ)
    assert not lab.spanning_mask("y").any()
    with pytest.raises(ValueError):
        lab.spanning_mask("z")


def _counted_label(monkeypatch) -> list:
    """Replace ``G.label`` by a wrapper recording each call: the record."""
    calls, original = [], G.label

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(G, "label", counted)
    return calls


def _flags(lab, axes):
    return tuple(getattr(lab, f"spans_{axis}") for axis in axes)


def _assert_first_spanning(counts, points, axes, connectivity) -> set:
    """Assert that first_spanning gives label()'s span flags for every lattice
    of a count stack at every grid point; return the flags seen."""
    firsts = G.first_spanning(counts, points, axes, connectivity)
    assert firsts.dtype == np.int64 and firsts.shape == counts.shape[:-2] + (len(axes),)
    seen = set()
    for j in range(points):
        for occ, first in zip((counts >= points - j).reshape((-1,) + counts.shape[-2:]),
                              firsts.reshape(-1, len(axes))):
            flags = _flags(G.label(occ, connectivity), axes)
            assert tuple((first <= j).tolist()) == flags, (j, axes, connectivity)
            seen.add(flags)
    return seen


@pytest.mark.parametrize("M, d, n", [(2, 2, 6), (3, 2, 4), (2, 1, 7), (3, 1, 4)])
def test_spans_equal_label_flags(M, d, n):
    # 12 replicates at 11 p on both sides of the spanning transition, as nested lattices
    grid = [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.93, 0.96, 0.98, 1.0]
    counts = S.sample_grid(M, d, grid, n, 5, np.arange(12))[0]
    seen = set()
    for connectivity in (4, 8):
        for axes in (("x", "y"), ("y", "x"), ("x",), ("y",)):
            seen |= _assert_first_spanning(counts, len(grid), axes, connectivity)
    assert {(False,), (True,)} <= seen


def test_spans_on_any_shape():
    # sides with no divisor near their root have a coarse shadow, down to 1 x 1;
    # a line along each border spans in the border tiles alone
    rng = np.random.default_rng(4)
    for shape in ((1, 1), (5, 7), (6, 10), (1, 9), (12, 8), (9, 27), (16, 16)):
        for points in (1, 5):
            lattices = [rng.integers(0, points + 1, shape) * (rng.random(shape) < density)
                        for density in (0.3, 0.5, 0.7, 0.9)]
            for border in ((0, slice(None)), (-1, slice(None)), (slice(None), 0), (slice(None), -1)):
                lattices.append(np.zeros(shape, np.uint8))
                lattices[-1][border] = rng.integers(1, points + 1, shape)[border]
            counts = np.array(lattices, dtype=np.uint8)
            for connectivity in (4, 8):
                _assert_first_spanning(counts, points, ("x", "y"), connectivity)
        # a bool lattice is one point's
        occ = rng.random(shape) < 0.7
        assert np.array_equal(G.first_spanning(occ, 1), G.first_spanning(occ.view(np.uint8), 1))


def test_spans_of_one_row_without_labelling(monkeypatch):
    # a 1 x L row spans x iff every cell is occupied and y iff any is, at
    # either connectivity: the flags of label(), and no lattice labelled
    rng = np.random.default_rng(17)
    calls = _counted_label(monkeypatch)
    for points in (1, 3, 11):
        for length in (1, 2, 9, 29):
            rows = rng.integers(0, points + 1, (5, 8, 1, length)).astype(np.uint8)
            rows[0] = points  # occupied at every point
            rows[1] = 0  # at none
            seen = set()
            for connectivity in (4, 8):
                for axes in (("x", "y"), ("y", "x"), ("x",), ("y",)):
                    G.first_spanning(rows, points, axes, connectivity)
                    assert calls == []
                    seen |= _assert_first_spanning(rows, points, axes, connectivity)
                    calls.clear()
            assert {(False, False), (True, True)} <= seen, (points, length)
    with pytest.raises(ArgumentError, match="axis"):
        G.first_spanning(rows, 11, ("z",))
    with pytest.raises(ArgumentError, match="connectivity"):
        G.first_spanning(rows, 11, ("x",), 6)
    with pytest.raises(ArgumentError, match="counts"):
        G.first_spanning(rows, 3, ("x",))


def test_spans_labels_only_where_the_shadow_spans(monkeypatch):
    calls = _counted_label(monkeypatch)
    # the 27 x 27 shadow of this 729 x 729 lattice spans, the lattice does not
    occ = S.sample(ModelParams(3, 0.8, 2), 6, 1, 0).occupancy
    assert G.first_spanning(occ, 1, ("x", "y"), 8).tolist() == [1, 1]
    assert len(calls) == 1
    # a bar across x, alive at the points 4 .. 6 of 7: its 4 x 4 shadow spans x
    # only, so a request for y labels nothing, and x at most 3 probes
    bar = np.zeros((16, 16), np.uint8)
    bar[5] = 3
    calls.clear()
    assert G.first_spanning(bar, 7, ("y",), 4).tolist() == [7] and calls == []
    assert G.first_spanning(bar, 7, ("x", "y"), 4).tolist() == [4, 7]
    assert 0 < len(calls) <= 2 * 3
    calls.clear()
    assert G.first_spanning(np.zeros((3, 16, 16), np.uint8), 7).tolist() == [[7, 7]] * 3
    assert calls == []
    # sampled lattices over 11 points: at most ceil(log2(12)) = 4 labellings per
    # lattice and axis, none for those whose shadow never spans
    grid = [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.93, 0.96, 0.98, 1.0]
    for M, n in ((2, 6), (3, 4)):
        counts = S.sample_grid(M, 2, grid, n, 5, np.arange(12))[0]
        for axes in (("x",), ("y",), ("x", "y")):
            for lattice in counts:
                calls.clear()
                G.first_spanning(lattice, len(grid), axes, 8)
                assert len(calls) <= 4 * len(axes), (M, n, axes)
    sparse = S.sample_grid(2, 2, [0.3, 0.4, 0.5], 8, 5, np.arange(4))[0]
    calls.clear()
    assert (G.first_spanning(sparse, 3) == 3).all() and calls == []
    with pytest.raises(ArgumentError, match="axis"):
        G.first_spanning(bar, 7, ("z",))
    with pytest.raises(ArgumentError, match="connectivity"):
        G.first_spanning(bar, 7, ("x",), 6)
    with pytest.raises(ArgumentError, match="counts"):
        G.first_spanning(bar, 2)


def test_labels_constant_on_components():
    occ = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 0],
        ],
        dtype=bool,
    )
    lab = G.label(occ, 8)
    assert lab.component_count == 2
    assert lab.labels[0, 0] == lab.labels[0, 1]
    assert lab.labels[2, 2] == lab.labels[2, 3] == lab.labels[3, 2]
    assert lab.labels[0, 0] != lab.labels[2, 2]
    assert (lab.labels[occ] >= 0).all() and (lab.labels[~occ] == -1).all()
