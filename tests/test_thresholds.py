"""Zero and minimum location on the limit curves; tabulated bounds."""

import math

import pytest

from fracperc import analytic, thresholds as T
from fracperc.analytic import ModelParams
from fracperc.thresholds import BracketingError


def test_known_bounds_table():
    assert T.known_bounds(2) == (0.881, 0.993)
    assert T.known_bounds(3) == (0.784, 0.940)
    assert T.known_bounds(4) == (0.556, 0.972)
    lower, upper = T.known_bounds(17)
    assert lower >= 0.556 and upper == 0.9999
    lower5, _ = T.known_bounds(5)
    assert lower5 == max(math.sqrt(1 / 5), 0.556)
    with pytest.raises(ValueError):
        T.known_bounds(1)


def test_roots_change_sign_and_are_tight():
    for M in (2, 3, 7):
        rep = T.threshold_report(M)
        assert rep.p0_residual < 1e-12
        assert rep.p1_residual < 1e-12
        assert rep.p0_bracket[1] - rep.p0_bracket[0] < 1e-12
        assert rep.p1_bracket[1] - rep.p1_bracket[0] < 1e-12
        eps = 1e-6
        f = lambda p: float(analytic.limit_vk_2d(ModelParams(M, p, 2), 0))
        assert f(rep.p0 - eps) > 0 > f(rep.p0 + eps)
        g = lambda p: -float(analytic.limit_vck_2d(ModelParams(M, p, 2), 0))
        assert g(rep.p1 - eps) > 0 > g(rep.p1 + eps)
        # the single-value searches are the report's searches
        assert (T.find_p0(M), T.find_p1(M), T.find_pmin(M)) == (rep.p0, rep.p1, rep.pmin)


def test_order_zero_min_below_one():
    for M in (2, 3, 4, 16):
        rep = T.threshold_report(M)
        assert 1.0 / M**2 < rep.p0 < rep.pmin < 1.0


def test_minimum_is_local_min():
    for M in (2, 5):
        pm = T.find_pmin(M)
        f = lambda p: float(analytic.limit_vk_2d(ModelParams(M, p, 2), 0))
        assert f(pm) <= f(pm - 1e-5) and f(pm) <= f(pm + 1e-5)


def test_zero_below_known_lower_bounds_small_m():
    for M in (2, 3):
        assert T.find_p0(M) < T.known_bounds(M)[0]


def test_large_m_limits():
    assert abs(T.find_p0(1024) - T.P0_LARGE_M) < 0.05
    assert abs(T.find_p1(1024) - T.P1_LARGE_M) < 0.05
    assert abs(T.find_pmin(1024) - T.PMIN_LARGE_M) < 0.05


def test_sequences_approach_limits():
    ms = (2, 4, 8, 16, 64, 256, 1024)
    gaps0 = [abs(T.find_p0(M) - T.P0_LARGE_M) for M in ms]
    gaps1 = [abs(T.find_p1(M) - T.P1_LARGE_M) for M in ms]
    gapsm = [abs(T.find_pmin(M) - T.PMIN_LARGE_M) for M in ms]
    for gaps in (gaps0, gaps1, gapsm):
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05


def test_bisect_raises_without_sign_change():
    with pytest.raises(BracketingError):
        T._bisect(lambda x: 1.0, 0.1, 0.9)
    with pytest.raises(BracketingError):
        T._bisect(lambda x: -1.0, 0.1, 0.9)


def test_grid_scan_rejects_non_unimodal():
    with pytest.raises(BracketingError):
        T._grid_scan_unimodal(lambda x: math.sin(8 * x), 0.0, 3.0)
