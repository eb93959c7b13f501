"""Minkowski counters, the lookup/audit duality, labelling and spanning."""

from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from fracperc import geometry as G
from fracperc import sampler as S
from fracperc.analytic import ModelParams


def mk(occ, s=1.0):
    return G.minkowski_of_array(np.asarray(occ, bool), s)


def test_single_cell():
    occ = np.zeros((3, 3), bool)
    occ[1, 1] = True
    v = mk(occ, 0.5)
    assert v.v0 == 1
    assert v.v1 == pytest.approx(1.0)  # 2s
    assert v.v2 == pytest.approx(0.25)
    assert (v.faces, v.edges_shared) == (1, 0)


def test_ring_has_zero_euler():
    occ = np.ones((3, 3), bool)
    occ[1, 1] = False
    assert mk(occ).v0 == 0
    assert G.euler_crosscheck(occ) == 0


def test_diagonal_pair_connected():
    occ = np.zeros((2, 2), bool)
    occ[0, 0] = occ[1, 1] = True
    v = mk(occ, 0.5)
    assert v.v0 == 1
    assert v.v1 == pytest.approx(2.0)  # 4s by inclusion-exclusion
    assert G.euler_crosscheck(occ) == 1


def test_full_grid_is_unit_cube():
    v = mk(np.ones((8, 8), bool), 1 / 8)
    assert (v.v0, v.v1, v.v2) == (1, pytest.approx(2.0), pytest.approx(1.0))


def test_empty_grid():
    v = mk(np.zeros((4, 4), bool))
    assert (v.v0, v.v1, v.v2) == (0, 0, 0)
    assert G.euler_crosscheck(np.zeros((4, 4), bool)) == 0


def test_lookup_equals_audit_and_crosscheck():
    rng = np.random.default_rng(123)
    cases = [(shape, density) for shape in ((1, 1), (1, 9), (9, 1), (2, 7), (6, 3))
             for density in (0.0, 0.5, 1.0)]
    cases += [(tuple(int(v) for v in rng.integers(1, 40, size=2)),
               rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))) for _ in range(1000)]
    for shape, density in cases:
        occ = rng.random(shape) < density
        a = G.minkowski_of_array(occ, 1.0)
        b = G.minkowski_audit(occ)
        assert a == b, shape
        # both halves of the single F/C pass against the counting path
        f, c = G.minkowski_pair(occ)
        assert f == b and c == G.minkowski_audit(~occ), shape
        assert a.v0 == G.euler_crosscheck(occ)
        assert a.v2 == occ.sum()
        assert a.v1 >= 0
    # one stacked kernel call (two leading axes, more lattices than one
    # bincount block) equals the per-slice calls
    group = G._BLOCK_WINDOWS // (5 * 6 + 81)
    stack = rng.random((2, group // 2 + 3, 4, 5)) < 0.5
    stacked = G._window_counters(stack)
    assert stacked.shape == stack.shape[:2] + (2, 4)
    for index in np.ndindex(*stack.shape[:2]):
        assert np.array_equal(stacked[index], G._window_counters(stack[index]))


def test_window_counters_in_small_blocks_and_row_bands(monkeypatch):
    # tiny window budgets split lattices into overlapping row bands and
    # stacks into many blocks; the counters stay those of one whole pass
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(60):
        shape = (int(rng.integers(1, 6)),) + tuple(int(v) for v in rng.integers(1, 30, size=2))
        cases.append(rng.random(shape) < rng.choice((0.0, 0.3, 0.6, 1.0)))
    cases += [rng.random((3, 1, 40)) < 0.5, rng.random((2, 40, 1)) < 0.5]
    whole = [G._window_counters(occ) for occ in cases]
    for budget in (1, 7, 50, 200, 1000):
        monkeypatch.setattr(G, "_BLOCK_WINDOWS", budget)
        for occ, expected in zip(cases, whole):
            assert np.array_equal(G._window_counters(occ), expected), (budget, occ.shape)
            assert np.array_equal(G._window_counters(occ[0]), expected[0]), (budget, occ.shape)


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
            lhs = mk(A).vk(k) + mk(B).vk(k)
            rhs = mk(occ).vk(k) + mk(meet).vk(k)
            assert lhs == rhs


def test_one_dimensional_counts():
    pr = ModelParams(2, 0.5, 1)
    grid = S.sample(pr, 3, seed=3)
    v = G.minkowski(grid)
    row = grid.occupancy[0]
    runs = int(np.sum(row[1:] & ~row[:-1])) + int(row[0])
    assert v.v0 == runs
    assert v.v1 == pytest.approx(row.sum() / 8)
    assert v.v2 is None
    with pytest.raises(ValueError):
        v.vk(2)


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
