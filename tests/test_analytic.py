"""Closed-form expectations, limits, and their internal identities.

Expected values marked by exact fractions were frozen from the
enumeration oracle (tests/test_oracle.py re-derives them live).
"""

import hashlib
import itertools
import math
import re
from fractions import Fraction

import pytest

from fracperc import analytic as A
from fracperc.analytic import ArgumentError, DomainError, ModelParams

F = Fraction


def params(M, p, d=2):
    return ModelParams(M, p, d)


# ---------------------------------------------------------------------------
# ModelParams / dims
# ---------------------------------------------------------------------------

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 0.5, 2)
    with pytest.raises(ValueError):
        ModelParams(2, 1.5, 2)
    with pytest.raises(ValueError):
        ModelParams(2, 0.5, 3)
    assert ModelParams(2, 0.5, 2).non_empty_regime
    assert not ModelParams(2, 0.25, 2).non_empty_regime  # boundary M^2 p = 1


def test_dims_full_square():
    rep = A.dims(params(2, 1.0))
    assert rep.dimension == 2.0
    assert rep.sub2 == 1.0
    assert rep.sub3 == 1.0
    assert rep.sub2_amplitude == 0.0
    assert rep.sub3_amplitude == 0.0
    assert rep.intersection_dimension == 1.0


def test_dims_boundary_flagged():
    rep = A.dims(params(2, 0.25))
    assert rep.dimension == pytest.approx(0.0, abs=1e-15)
    assert not rep.in_nonempty_regime


def test_dims_1d_intersection_dimension():
    rep = A.dims(params(3, F(1, 3), d=1))
    assert rep.dimension == pytest.approx(0.0, abs=1e-12)
    assert rep.intersection_dimension == pytest.approx(-1.0, abs=1e-12)
    assert rep.sub2 is None and rep.sub3 is None


def test_dims_amplitudes_match_expansion_coefficients():
    pr = params(2, F(3, 5))
    rep = A.dims(pr)
    exp = A.vbarc0_2d_finite(pr, 7)
    assert rep.sub2_amplitude == pytest.approx(float(exp.sub2 / (2 * F(3, 5)) ** 7))
    assert rep.sub3_amplitude == pytest.approx(float(exp.sub3 / (2 * F(3, 5) ** 2) ** 7))


def test_dims_requires_positive_p():
    with pytest.raises(DomainError):
        A.dims(params(2, 0))


# ---------------------------------------------------------------------------
# One dimension
# ---------------------------------------------------------------------------

def test_ev_vk_1d_examples():
    assert A.ev_vk_1d(params(2, F(1, 2), 1), 1, 0) == F(3, 4)
    assert A.ev_vk_1d(params(5, F(2, 7), 1), 0, 0) == 1
    assert A.ev_vk_1d(params(3, 0.5, 1), 2, 1) == pytest.approx(0.25)
    # frozen oracle values at level 2
    assert A.ev_vk_1d(params(2, F(1, 2), 1), 2, 0) == F(11, 16)
    assert A.ev_vk_1d(params(2, F(1, 5), 1), 2, 0) == F(89, 625)


def test_ev_vk_intersect_1d_examples():
    assert A.ev_vk_intersect_1d(params(2, 1.0, 1), 5, 0) == pytest.approx(1.0)
    got = A.ev_vk_intersect_1d(params(2, F(1, 2), 1), 1, 0)
    assert got == F(9, 16)  # joint 4x4 level-1 enumeration
    assert A.ev_vk_intersect_1d(params(2, 0.5, 1), 1, 1) == pytest.approx(0.25)
    assert A.ev_vk_intersect_1d(params(2, F(1, 2), 1), 2, 0) == F(89, 256)


def test_ev_n_isolated_examples():
    assert A.ev_n_isolated_1d(params(4, F(1, 3), 1), 0) == 0
    assert A.ev_n_isolated_1d(params(2, 1.0, 1), 3) == pytest.approx(0.0, abs=1e-15)
    assert A.ev_n_isolated_1d(params(2, F(1, 2), 1), 2) == F(17, 128)


def test_ev_vk_complement_1d_examples():
    assert A.ev_vk_complement_1d(params(2, 1.0, 1), 4, 0) == pytest.approx(0.0, abs=1e-12)
    # single-set level 1: outcomes empty/half/full give E V0 = 1 - p^2
    assert A.ev_vk_complement_1d(params(2, F(1, 2), 1), 1, 0) == F(3, 4)
    assert A.ev_vk_complement_1d(params(2, 0.5, 1), 1, 1, intersect=True) == pytest.approx(0.25)
    assert A.ev_vk_complement_1d(params(2, F(1, 2), 1), 2, 0, intersect=True) == F(329, 256)
    # D_0 is empty
    for k in (0, 1):
        assert A.ev_vk_complement_1d(params(3, F(2, 5), 1), 0, k) == 0
        assert A.ev_vk_complement_1d(params(3, F(2, 5), 1), 0, k, intersect=True) == 0


def test_limit_vk_1d():
    assert A.limit_vk_1d(params(2, 1.0, 1), 0) == pytest.approx(0.0)
    assert A.limit_vk_1d(params(2, 0.75, 1), 1) == 1
    for M in (10, 100, 10000):
        assert A.limit_vk_1d(params(M, 0.6, 1), 0) == pytest.approx(0.4, abs=2 / M)
    with pytest.raises(DomainError):
        A.limit_vk_1d(params(2, 0.5, 1), 0)


def test_limit_vk_intersect_1d():
    assert A.limit_vk_intersect_1d(params(2, 1.0, 1), 0) == pytest.approx(0.0)
    assert A.limit_vk_intersect_1d(params(3, 0.6, 1), 1) == 1
    # M p^2 <= 1: the intersection dies out, so there is no rescaled limit
    with pytest.raises(DomainError, match="limit_vk_intersect_1d needs M p\\^2 > 1"):
        A.limit_vk_intersect_1d(params(2, 0.5, 1), 1)
    p = 0.37
    big = A.limit_vk_intersect_1d(params(10**6, p, 1), 0)
    assert big == pytest.approx(3 - 4 * p + p * p, abs=1e-4)


def test_limit_vck_1d():
    assert A.limit_vck_1d(params(2, 1.0, 1), 0) == pytest.approx(0.0)
    pr = params(2, 0.75, 1)
    assert A.limit_vck_1d(pr, 0) == pytest.approx(A.limit_vk_1d(pr, 0), abs=1e-15)
    assert A.limit_vck_1d(params(5, 0.5, 1), 1) == 0
    with pytest.raises(DomainError):
        A.limit_vck_1d(params(4, 0.25, 1), 0)


def test_component_count_recursion():
    # E V0(K_n) = Mp E V0(K_{n-1}) - (M-1) p^{2n}, exactly, for n <= 20
    for M in (2, 3, 5):
        for p in (F(1, 5), F(1, 2), F(4, 5)):
            pr = params(M, p, 1)
            for n in range(1, 21):
                lhs = A.ev_vk_1d(pr, n, 0)
                rhs = M * p * A.ev_vk_1d(pr, n - 1, 0) - (M - 1) * p ** (2 * n)
                assert lhs == rhs


def test_isolated_count_recursion():
    # gamma_n = Mp^2 gamma_{n-1} + (M-1) 2 p^{2n} (1-p^n)^2, exactly, n <= 20
    for M in (2, 3, 5):
        for p in (F(1, 5), F(1, 2), F(4, 5)):
            pr = params(M, p, 1)
            for n in range(1, 21):
                gam = A.ev_n_isolated_1d(pr, n)
                rec = M * p * p * A.ev_n_isolated_1d(pr, n - 1) + (M - 1) * 2 * p ** (
                    2 * n
                ) * (1 - p**n) ** 2
                assert gam == rec


# ---------------------------------------------------------------------------
# Two dimensions: construction steps
# ---------------------------------------------------------------------------

def test_vbar0_2d_finite_full_square():
    for n in (1, 3, 7):
        assert A.vbar0_2d_finite(params(2, 1.0), n) == pytest.approx(2.0 ** (-2 * n))


def test_vbar0_2d_finite_frozen():
    # E V0(F_1) = 1 - (1-p)^4 for M = 2; oracle-frozen level-2 value
    assert A.vbar0_2d_finite(params(2, F(1, 2)), 1) == F(15, 32)
    assert A.vbar0_2d_finite(params(2, F(1, 2)), 2) == F(319, 1024)
    assert A.ev(params(2, F(1, 2)), 2, 0, "F") == F(319, 256)
    assert A.ev(params(2, F(1, 5)), 2, 0, "F") == F(175249, 390625)


def test_vbar0_recovers_unrescaled():
    pr = params(3, F(2, 5))
    for n in range(5):
        assert (9 * F(2, 5)) ** n * A.vbar0_2d_finite(pr, n) == A.ev(pr, n, 0, "F")


def test_limit_vk_2d_values():
    for M, p in ((2, 0.3), (3, 0.9), (17, 0.05)):
        assert A.limit_vk_2d(params(M, p), 2) == 1
    assert A.limit_vk_2d(params(2, 1.0), 0) == pytest.approx(0.0, abs=1e-14)
    assert A.limit_vk_2d(params(2, 1.0), 1) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        A.limit_vk_2d(params(2, 0.25), 0)


def test_limit_vk_2d_vs_finite_level():
    for M, p in ((2, 0.5), (3, 0.8)):
        pr = params(M, p)
        assert A.vbar0_2d_finite(pr, 60) == pytest.approx(A.limit_vk_2d(pr, 0), abs=1e-13)
        assert A.vbar1_2d_finite(pr, 60) == pytest.approx(A.limit_vk_2d(pr, 1), abs=1e-13)


def test_v1_limit_monotone_decreasing_in_p():
    for M in range(2, 65):
        lo = 1.0 / M**2
        prev = None
        p = lo + 1e-3
        while p < 1.0:
            value = A.limit_vk_2d(params(M, p), 1)
            if prev is not None:
                assert value < prev
            prev = value
            p += 1e-3


def test_convergence_tail_and_amplitude():
    for M, p in ((2, F(3, 5)), (3, F(4, 5))):
        pr = params(M, p)
        tail = A.vbar0_2d_tail(pr, 40)
        lead = A.convergence_amplitude_2d(pr) * (p / F(M)) ** 40
        assert 0.95 < tail / lead < 1.05
        # tail really is finite minus limit
        n = 6
        assert A.vbar0_2d_finite(pr, n) - A.limit_vk_2d(pr, 0) == A.vbar0_2d_tail(pr, n)


def test_eventual_strict_decrease_onset():
    worst_onset = 0
    for M, p in ((2, F(3, 5)), (3, F(4, 5)), (2, F(9, 10))):
        pr = params(M, p)
        vals = [A.vbar0_2d_finite(pr, n) for n in range(61)]
        rises = [n for n in range(1, 61) if vals[n] >= vals[n - 1]]
        onset = max(rises, default=0) + 1
        worst_onset = max(worst_onset, onset)
        assert onset <= 20
    print(f"observed strict-decrease onset n0 <= {worst_onset}")


# ---------------------------------------------------------------------------
# Two dimensions: complements
# ---------------------------------------------------------------------------

def test_vbarc0_frozen_values():
    # E V0(C_1) = 1 - p^4 for M = 2; oracle-frozen level-2 values
    assert A.vbarc0_2d_finite(params(2, F(1, 2)), 1).ev == F(15, 16)
    assert A.vbarc0_2d_finite(params(2, F(1, 2)), 2).ev == F(271, 256)
    # below the nonempty regime the unrescaled route still applies
    assert A.ev(params(2, F(1, 5)), 2, 0, "C") == F(355024, 390625)
    assert A.vbarc0_2d_finite(params(2, 1.0), 3).ev == pytest.approx(0.0, abs=1e-12)


def test_vbarc0_expansion_reassembles():
    pr = params(3, F(3, 4))
    exp = A.vbarc0_2d_finite(pr, 4)
    assert exp.leading + exp.sub2 + exp.sub3 + exp.constant + sum(exp.vanishing) == exp.ev
    assert exp.vbar == exp.ev / (9 * F(3, 4)) ** 4
    assert exp.constant == 1


def test_vbarc0_matches_truncated_series_exactly():
    for M in (2, 3):
        for p in (F(1, 5), F(1, 2), F(4, 5)):
            if M * M * p <= 1:
                continue
            pr = params(M, p)
            for m in range(8):
                assert A.vbar_2d_truncated(pr, m, 0, "C") == A.vbarc0_2d_finite(pr, m).vbar
    # float route within 1e-10
    pr = params(2, 0.55)
    for m in range(1, 12):
        series = A.vbar_2d_truncated(pr, m, 0, "C")
        assert series == pytest.approx(float(A.vbarc0_2d_finite(pr, m).vbar), abs=1e-10)


def test_vbarc1_matches_truncated_series():
    pr = params(2, F(4, 5))
    for m in range(8):
        assert A.vbar_2d_truncated(pr, m, 1, "C") == A.vbarc1_2d_finite(pr, m)


def test_limit_vck_2d_values():
    assert A.limit_vck_2d(params(3, 1.0), 0) == pytest.approx(0.0)
    for M, p in ((2, 0.7), (5, 0.3), (11, 0.9)):
        pr = params(M, p)
        assert A.limit_vck_2d(pr, 1) == pytest.approx(A.limit_vk_2d(pr, 1), abs=1e-14)
    with pytest.raises(DomainError):
        A.limit_vck_2d(params(2, 0.2), 0)
    with pytest.raises(DomainError):
        A.limit_vck_2d(params(2, 0.4), 1)  # needs p > 1/M
    with pytest.raises(DomainError):
        A.limit_vck_2d(params(2, 0.9), 2)


def test_limit_vck_2d_vs_series():
    pr = params(2, 0.5)
    series = A.vbar_2d_truncated(pr, 200, 0, "C")
    assert series == pytest.approx(A.limit_vck_2d(pr, 0), abs=1e-10)


def test_complement_limits_converge():
    pr = params(2, 0.8)
    lim = A.limit_vck_2d(pr, 0)
    assert float(A.vbarc0_2d_finite(pr, 50).vbar) == pytest.approx(lim, abs=1e-12)


# ---------------------------------------------------------------------------
# Per-level intersection terms
# ---------------------------------------------------------------------------

def test_intersection_terms_examples():
    pr = params(2, F(1, 3))
    p = F(1, 3)
    assert A.intersection_series_terms_2d(pr, "corner4", 2, 0, "F") == p**8
    assert A.intersection_series_terms_2d(pr, "corner2", 1, 0, "C") == (1 - p) ** 2
    assert A.intersection_series_terms_2d(pr, "side", 1, 1, "F") == p * p / 2
    assert A.intersection_series_terms_2d(pr, "corner3", 2, 1, "F") == 0
    assert A.intersection_series_terms_2d(pr, "side", 3, 2, "F") == 0
    with pytest.raises(ValueError):
        A.intersection_series_terms_2d(pr, "edge", 1, 0, "F")
    with pytest.raises(ValueError):
        A.intersection_series_terms_2d(pr, "side", 0, 0, "F")


def test_intersection_side_f_closed_form():
    # the side pair at level n matches (Mp^2)^n (3/M - 2 M^{-n} - ...) directly
    for M in (2, 3):
        for p in (F(1, 5), F(1, 2), F(4, 5)):
            pr = params(M, p)
            for n in (1, 2, 5):
                got = A.intersection_series_terms_2d(pr, "side", n, 0, "F")
                want = (M * p * p) ** n * (
                    F(3, M)
                    - 2 * F(1, M) ** n
                    - 4 * F(M - 1, 1) / (M - p) * (p / F(M) - (p / F(M)) ** n)
                    + F(M - 1, 1) / (M - p * p) * (p * p / F(M) - (p * p / F(M)) ** n)
                )
                assert got == want
                assert A.intersection_series_terms_2d(pr, "side", n, 1, "F") == p ** (2 * n) / F(M)


def test_configuration_counts():
    assert A.configuration_count(2, "side") == 4
    assert A.configuration_count(2, "corner2") == 2
    assert A.configuration_count(2, "corner3") == 4
    assert A.configuration_count(2, "corner4") == 1
    assert A.configuration_count(5, "side") == 40
    with pytest.raises(ValueError):
        A.configuration_count(3, "nope")


def test_truncated_series_equals_bracket_forms():
    for M, p in ((2, F(1, 2)), (3, F(4, 5))):
        pr = params(M, p)
        for m in range(7):
            assert A.vbar_2d_truncated(pr, m, 0, "F") == A.vbar0_2d_finite(pr, m)
            assert A.vbar_2d_truncated(pr, m, 1, "F") == A.vbar1_2d_finite(pr, m)


# ---------------------------------------------------------------------------
# Unified ev, rescaled series, large-M curves
# ---------------------------------------------------------------------------

def test_ev_areas():
    pr = params(2, F(1, 3))
    for n in range(5):
        assert A.ev(pr, n, 2, "F") == F(1, 3) ** n
        assert A.ev(pr, n, 2, "C") == 1 - F(1, 3) ** n


def test_ev_defined_below_nonempty_regime():
    # unrescaled expectations are polynomials in p, fine at tiny p
    pr = params(2, F(1, 10))
    assert A.ev(pr, 3, 0, "F") > 0
    assert A.ev(pr, 0, 0, "F") == 1
    assert A.ev(pr, 0, 0, "C") == 0
    assert A.ev(params(2, 0.0), 2, 0, "F") == 0
    assert A.ev(params(2, 0.0), 2, 0, "C") == 1


def test_ev_1d_dispatch():
    pr = params(3, F(1, 2), d=1)
    assert A.ev(pr, 2, 1, "F") == A.ev_vk_1d(pr, 2, 1)
    assert A.ev(pr, 2, 0, "C") == A.ev_vk_complement_1d(pr, 2, 0)
    with pytest.raises(ValueError):
        A.ev(pr, 2, 2, "F")


def test_rescaled_series_converges():
    pr = params(2, 0.7)
    series = A.rescaled_series(pr, 0, "F", n_max=40)
    assert series.limit is not None
    assert abs(series.terms[40] - series.limit) < 1e-6
    cseries = A.rescaled_series(pr, 2, "C", n_max=5)
    assert cseries.limit is None
    with pytest.raises(DomainError):
        A.rescaled_series(params(2, 0.2), 0)


def test_large_m_cubics():
    assert A.large_m_v(1) == 0
    assert A.large_m_vc(1) == 0
    root = (3 - math.sqrt(5)) / 2
    assert A.large_m_v(root) == pytest.approx(0.0, abs=1e-14)
    root_c = (math.sqrt(5) - 1) / 2
    assert A.large_m_vc(root_c) == pytest.approx(0.0, abs=1e-14)


def test_large_m_pointwise_convergence_spot():
    M = 10**6
    for p in (0.1, 0.4, 0.7, 0.95):
        assert A.limit_vk_2d(params(M, p), 0) == pytest.approx(A.large_m_v(p), abs=1e-4)
        assert -A.limit_vck_2d(params(M, p), 0) == pytest.approx(A.large_m_vc(p), abs=1e-4)


def test_float_and_rational_modes_agree():
    for M, p in ((2, F(1, 2)), (3, F(4, 5))):
        exact = A.limit_vk_2d(params(M, p), 0)
        approx = A.limit_vk_2d(params(M, float(p)), 0)
        assert approx == pytest.approx(float(exact), abs=1e-14)
        exact = A.ev(params(M, p), 5, 0, "C")
        approx = A.ev(params(M, float(p)), 5, 0, "C")
        assert approx == pytest.approx(float(exact), rel=1e-13)


def test_fraction_input_gives_exact_results():
    # an exact p gives an int or a Fraction from every closed form, never a float
    def results(f, *args):
        try:
            value = f(*args)
        except DomainError:
            return []
        if isinstance(value, A.ComplementEulerExpansion):
            return [value.vbar, value.ev, value.leading, value.sub2, value.sub3, value.constant,
                    *value.vanishing]
        return [value]

    for M in (2, 3, 5):
        for p in (F(1, 5), F(1, 2), F(4, 5)):
            one, two = params(M, p, 1), params(M, p)
            got = []
            for n in (0, 1, 3):
                got += results(A.ev_n_isolated_1d, one, n)
                for k in (0, 1):
                    got += results(A.ev_vk_1d, one, n, k)
                    got += results(A.ev_vk_intersect_1d, one, n, k)
                    for intersect in (False, True):
                        got += results(A.ev_vk_complement_1d, one, n, k, intersect)
                for f in (A.vbar0_2d_finite, A.vbar0_2d_tail, A.vbar1_2d_finite,
                          A.vbarc0_2d_finite, A.vbarc1_2d_finite):
                    got += results(f, two, n)
                for target in ("F", "C"):
                    for k in (0, 1):
                        got += results(A.ev, one, n, k, target)
                    for k in (0, 1, 2):
                        got += results(A.ev, two, n, k, target)
                        for name in A.INTERSECTION_CONFIGURATIONS:
                            if n >= 1:
                                got += results(A.intersection_series_terms_2d, two, name, n, k,
                                               target)
            for k in (0, 1):
                for f in (A.limit_vk_1d, A.limit_vk_intersect_1d, A.limit_vck_1d):
                    got += results(f, one, k)
            for k in (0, 1, 2):
                got += results(A.limit_vk_2d, two, k)
                got += results(A.limit_vck_2d, two, k)
                for m in (0, 1, 4):
                    for target in ("F", "C"):
                        got += results(A.vbar_2d_truncated, two, m, k, target)
            got += results(A.convergence_amplitude_2d, two)
            assert len(got) > 100
            floats = [value for value in got if not isinstance(value, (int, Fraction))]
            assert not floats, (M, p, floats)


# ---------------------------------------------------------------------------
# Pinned closed forms and the rescaling domain
# ---------------------------------------------------------------------------

def _p_grid(M):
    """Exact probabilities at, below and above 1/M^2 and 1/M, from 0 to 1."""
    return [F(0), F(1, 2 * M * M), F(1, M * M), F(M + 1, 2 * M * M), F(1, M), F(M + 1, 2 * M), F(1)]


def _signatures():
    """(function, d, per-argument (valid values, values outside them)) for
    every public closed form; the ModelParams argument comes first and is
    left out."""
    levels = (range(9), (-1, True))
    targets = (("F", "C"), ("X",))

    def ks(d):
        return range(d + 1), (-1, d + 1, None)

    configurations = (tuple(A.INTERSECTION_CONFIGURATIONS), ("edge",))
    table = [
        (A.ev_vk_1d, 1, [levels, ks(1)]),
        (A.ev_vk_intersect_1d, 1, [levels, ks(1)]),
        (A.ev_n_isolated_1d, 1, [levels]),
        (A.ev_vk_complement_1d, 1, [levels, ks(1), ((False, True), ())]),
        (A.limit_vk_1d, 1, [ks(1)]),
        (A.limit_vk_intersect_1d, 1, [ks(1)]),
        (A.limit_vck_1d, 1, [ks(1)]),
        (A.vbar0_2d_finite, 2, [levels]),
        (A.vbar0_2d_tail, 2, [levels]),
        (A.vbar1_2d_finite, 2, [levels]),
        (A.vbarc0_2d_finite, 2, [levels]),
        (A.vbarc1_2d_finite, 2, [levels]),
        (A.convergence_amplitude_2d, 2, []),
        (A.limit_vk_2d, 2, [ks(2)]),
        (A.limit_vck_2d, 2, [ks(2)]),
        (A.intersection_series_terms_2d, 2,
         [configurations, (range(1, 9), (0, -1, True)), ks(2), targets]),
        (A.vbar_2d_truncated, 2, [levels, ks(2), targets]),
    ]
    for d in (1, 2):
        table += [
            (A.ev, d, [levels, ks(d), targets]),
            (A.rescaled_series, d, [ks(d), targets, ((8,), ())]),
            (A.rescale_factor, d, [levels, ks(d)]),
            (A.dims, d, []),
        ]
    return table


def _closed_form_lines():
    """One line per call: every valid argument tuple, each invalid value in
    one position with the others valid, and the wrong dimension; a refused
    call is recorded by its exception class."""

    def outcome(f, args):
        try:
            return repr(f(*args))
        except Exception as exc:
            return f"raises {type(exc).__name__}"

    lines, signatures = [], _signatures()
    for M in (2, 3, 5):
        for name in (*A.INTERSECTION_CONFIGURATIONS, "edge"):
            count = outcome(A.configuration_count, (M, name))
            lines.append(f"configuration_count{(M, name)!r} {count}")
        exact = _p_grid(M)
        for p in exact + [float(q) for q in exact]:
            lines.append(f"large_m({p!r}) {A.large_m_v(p)!r} {A.large_m_vc(p)!r}")
            for f, d, spec in signatures:
                params, wrong = ModelParams(M, p, d), ModelParams(M, p, 3 - d)
                base = tuple(valid[0] for valid, _ in spec)
                calls = [(params, *args) for args in itertools.product(*(v for v, _ in spec))]
                for i, (_, invalid) in enumerate(spec):
                    calls += [(params, *base[:i], bad, *base[i + 1:]) for bad in invalid]
                if f not in (A.ev, A.rescaled_series, A.rescale_factor, A.dims):
                    calls.append((wrong, *base))
                lines += [f"{f.__name__}{args!r} {outcome(f, args)}" for args in calls]
    return lines


def test_bool_and_non_integer_arguments_refused():
    # a bool k or level, a fractional level and a fractional M are integers
    # to no closed form; each of these calls once returned a value
    from fracperc import thresholds

    calls = [
        (A.ev_vk_1d, ModelParams(2, 1 / 2, 1), 2, True),
        (A.limit_vk_2d, ModelParams(2, 1 / 2, 2), True),
        (A.ev, ModelParams(2, 1 / 2, 2), 2, True, "F"),
        (A.intersection_series_terms_2d, ModelParams(2, 0.7), "corner2", 1.5, 0),
        (thresholds.known_bounds, 2.5),
    ]
    for f, *args in calls:
        with pytest.raises(ArgumentError):
            f(*args)


def test_one_argument_error_for_the_package():
    import fracperc
    from fracperc import oracle

    assert oracle.ArgumentError is A.ArgumentError is fracperc.ArgumentError
    assert oracle._integer is A._integer
    assert issubclass(DomainError, ArgumentError) and issubclass(ArgumentError, ValueError)


def test_closed_forms_pinned():
    # every value and every refusal of the public closed forms, on a grid
    # that straddles both rescaling bounds in float and exact arithmetic
    lines = _closed_form_lines()
    assert len(lines) > 20000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2bf4b94ab81b0ba47925f84426f787cc9092d38473d4cd05b41ee5acab036732"


def test_rescaling_domain_boundary():
    # (closed form, d, arguments after the parameters, k it reports, exponent j):
    # it returns a value exactly where M^j p > 1 and raises at and below 1/M^j
    table = [
        *[(A.limit_vk_1d, 1, (k,), k, 1) for k in (0, 1)],
        *[(A.limit_vck_1d, 1, (k,), k, 1) for k in (0, 1)],
        (A.vbar0_2d_finite, 2, (3,), 0, 2),
        (A.vbar1_2d_finite, 2, (3,), 1, 2),
        (A.vbarc0_2d_finite, 2, (3,), 0, 2),
        (A.vbarc1_2d_finite, 2, (3,), 1, 1),
        *[(A.limit_vk_2d, 2, (k,), k, 2) for k in (0, 1, 2)],
        *[(A.limit_vck_2d, 2, (k,), k, 2 - k) for k in (0, 1)],
        *[(A.vbar_2d_truncated, 2, (3, k, "F"), k, 2) for k in (0, 1, 2)],
        *[(A.vbar_2d_truncated, 2, (3, k, "C"), k, 2 - k) for k in (0, 1, 2)],
        # the planar k = 1 complement series is bound by limit_vck_2d's 1/M
        *[(A.rescaled_series, d, (k, target, 3), k, 1 if (d, k, target) == (2, 1, "C") else d)
          for d in (1, 2) for k in range(d + 1) for target in ("F", "C")],
    ]
    for f, d, args, k, j in table:
        for M in (2, 3, 5):
            for p in _p_grid(M):
                params = ModelParams(M, p, d)
                if M**j * p > 1:
                    f(params, *args)
                    continue
                with pytest.raises(DomainError) as info:
                    f(params, *args)
                assert str(info.value) == f"{f.__name__} needs p > 1/M^{j}"
                assert (info.value.M, info.value.p, info.value.k) == (M, p, k)
    area = "the area of C_n admits no r^{n(D-2)} rescaling"
    for M in (2, 3, 5):
        for p in _p_grid(M):
            with pytest.raises(DomainError, match=re.escape(area)) as info:
                A.limit_vck_2d(ModelParams(M, p), 2)
            assert (info.value.M, info.value.p, info.value.k) == (M, p, 2)
