"""The enumeration oracle itself: forced values, bookkeeping, envelope."""

from fractions import Fraction

import numpy as np
import pytest

from fracperc import geometry as G
from fracperc import oracle as O
from fracperc.oracle import InstanceTooLargeError, IntervalSet1D

F = Fraction


def test_level1_component_count_forced():
    # four level-1 outcomes: empty, two half-intervals, full; direct count
    assert O.enumerate_1d(2, F(1, 2), 1, "V0", "K") == F(3, 4)


def test_complement_length_is_one_minus_pn():
    for p in (F(1, 5), F(1, 2), F(4, 5)):
        for n in (0, 1, 2):
            assert O.enumerate_1d(2, p, n, "V1", "D") == 1 - p**n


def test_full_survival_when_p_one():
    assert O.enumerate_1d(2, F(1), 2, "V1", "K") == 1
    assert O.enumerate_1d(2, F(1), 2, "V0", "K") == 1
    assert O.enumerate_1d(2, F(1), 2, "V0", "D") == 0


def test_leaf_distribution_normalizes():
    for M, n in ((2, 3), (3, 2), (4, 2)):
        dist = O.leaf_distribution(M, F(2, 7), n)
        assert sum(w for _, w in dist) == 1
        masks = [m for m, _ in dist]
        assert len(set(masks)) == len(masks)


def test_endpoint_membership():
    for p in (F(1, 5), F(1, 2)):
        for n in (1, 2):
            assert O.enumerate_1d(2, p, n, "contains0", "K") == p**n
            assert O.enumerate_1d(2, p, n, "contains1", "K") == p**n
            # in the intersection of two copies membership factorizes
            assert O.enumerate_1d(2, p, n, "contains0", "KK") == p ** (2 * n)


def test_isolated_points_never_exceed_components():
    v0, v1, iso = O._pair_scores_1d(2, 2, "KK")
    assert np.all(v0 >= iso)
    assert np.all(v1 >= 0)
    v0d, _, isod = O._pair_scores_1d(2, 2, "DD")
    assert np.all(v0d >= isod)


def test_interval_set_machinery():
    a = IntervalSet1D(((F(0), F(1, 2)),))
    b = IntervalSet1D(((F(1, 2), F(1)),))
    meet = a.intersect(b)
    assert meet.v0 == 1 and meet.v1 == 0 and meet.isolated_count == 1
    assert O.interval_set_from_leaves(0b1011, 2, 2).components == (
        (F(0), F(1, 2)),
        (F(3, 4), F(1)),
    )


def test_1d_envelope_guard():
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_1d(3, F(1, 2), 3, "V0", "K")
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_1d(2, F(1, 2), 4, "V0", "K")
    # M = 4, n = 2 has exactly 20 nodes and is allowed
    assert O.enumerate_1d(4, F(1, 2), 2, "V1", "K") == F(1, 4)


def test_argument_validation():
    with pytest.raises(ValueError):
        O.enumerate_1d(2, F(1, 2), 1, "V9", "K")
    with pytest.raises(ValueError):
        O.enumerate_1d(2, F(1, 2), 1, "V0", "X")
    with pytest.raises(ValueError):
        O.enumerate_2d(2, F(1, 2), 1, "V0", "X")
    with pytest.raises(ValueError):
        O.enumerate_2d(2, F(1, 2), 1, "V3", "F")


def test_2d_trivial_cases():
    assert O.enumerate_2d(2, F(1), 1, "V0", "F") == 1
    assert O.enumerate_2d(2, F(1, 2), 1, "V2", "F") == F(1, 2)
    assert O.enumerate_2d(3, F(1), 1, "V1", "F") == 2
    assert O.enumerate_2d(2, F(1), 2, "V0", "C") == 0
    # area linearity at level 2
    assert O.enumerate_2d(2, F(1, 3), 2, "V2", "F") == F(1, 9)


def test_pattern_counters_match_audit_per_pattern():
    # the batched kernel call scores each pattern and its complement exactly
    for M, n in ((2, 1), (3, 1)):
        side = M**n
        structure = O._block_structure(M, n)
        scores = O._pattern_scores_2d(M, n)
        assert len(structure) == 2 ** (side * side)
        assert scores.shape == (len(structure), 2, 4)
        for (key, _), row in zip(structure, scores):
            bits = np.unpackbits(np.frombuffer(key, np.uint8))[: side * side]
            occ = bits.reshape(side, side).astype(bool)
            for target_occ, got in zip((occ, ~occ), row.tolist()):
                mv = G.minkowski_audit(target_occ)
                assert got == [mv.faces, mv.edges_any, mv.edges_shared, mv.vertices_any]


def test_2d_envelope_guard():
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_2d(2, F(1, 2), 3)
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_2d(4, F(1, 2), 1)


def test_corner_oracle_matches_independence():
    for p in (F(1, 5), F(1, 2)):
        for n in (1, 2):
            for ell in (2, 3, 4):
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 0, "F") == p ** (ell * n)
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 0, "C") == (1 - p**n) ** ell
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 1, "F") == 0


def test_side_oracle_level1():
    # level 1: both neighbours alive (p^2) share one full edge of length 1/M
    for M in (2, 3):
        p = F(1, 2)
        assert O.enumerate_side_intersection_2d(M, p, 1, 0, "F") == p * p
        assert O.enumerate_side_intersection_2d(M, p, 1, 1, "F") == p * p / M
        assert O.enumerate_side_intersection_2d(M, p, 1, 0, "C") == (1 - p) ** 2
