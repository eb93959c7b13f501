"""Acceptance criteria: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else. Exact comparisons use the
rational-arithmetic mode of the closed forms against the enumeration
oracle; float-mode comparisons are bounded at 1e-12 relative.
"""

import os
import time
from fractions import Fraction

import numpy as np

from fracperc import analytic as A
from fracperc import geometry as G
from fracperc import montecarlo as MC
from fracperc import oracle as O
from fracperc import sampler as S
from fracperc import thresholds as T
from fracperc.analytic import ModelParams

F = Fraction
ORACLE_PS = (F(1, 5), F(1, 2), F(4, 5))


def _close_rel(a: float, b: float, rel: float = 1e-12) -> bool:
    if b == 0:
        return a == 0
    return abs(a - b) <= rel * abs(b)


def test_acceptance_1_formula_oracle_equivalence():
    t0 = time.perf_counter()
    checks = 0
    # one dimension: M = 2 up to level 3, M = 3 up to level 2
    for M, nmax in ((2, 3), (3, 2)):
        for n in range(nmax + 1):
            for p in ORACLE_PS:
                exact = ModelParams(M, p, 1)
                approx = ModelParams(M, float(p), 1)
                cases = [
                    (O.enumerate_1d(M, p, n, "V0", "K"),
                     A.ev_vk_1d(exact, n, 0), A.ev_vk_1d(approx, n, 0)),
                    (O.enumerate_1d(M, p, n, "V1", "K"),
                     A.ev_vk_1d(exact, n, 1), A.ev_vk_1d(approx, n, 1)),
                    (O.enumerate_1d(M, p, n, "V0", "KK"),
                     A.ev_vk_intersect_1d(exact, n, 0), A.ev_vk_intersect_1d(approx, n, 0)),
                    (O.enumerate_1d(M, p, n, "V1", "KK"),
                     A.ev_vk_intersect_1d(exact, n, 1), A.ev_vk_intersect_1d(approx, n, 1)),
                    (O.enumerate_1d(M, p, n, "N", "KK"),
                     A.ev_n_isolated_1d(exact, n), A.ev_n_isolated_1d(approx, n)),
                    (O.enumerate_1d(M, p, n, "V0", "D"),
                     A.ev_vk_complement_1d(exact, n, 0), A.ev_vk_complement_1d(approx, n, 0)),
                    (O.enumerate_1d(M, p, n, "V1", "D"),
                     A.ev_vk_complement_1d(exact, n, 1), A.ev_vk_complement_1d(approx, n, 1)),
                    (O.enumerate_1d(M, p, n, "V0", "DD"),
                     A.ev_vk_complement_1d(exact, n, 0, True),
                     A.ev_vk_complement_1d(approx, n, 0, True)),
                    (O.enumerate_1d(M, p, n, "V1", "DD"),
                     A.ev_vk_complement_1d(exact, n, 1, True),
                     A.ev_vk_complement_1d(approx, n, 1, True)),
                ]
                for want, got_exact, got_float in cases:
                    assert got_exact == want, (M, n, p)
                    assert _close_rel(got_float, float(want)), (M, n, p)
                    checks += 1
    # two dimensions: the feasible envelope, construction sets and complements
    for M, n in O.FEASIBLE_2D:
        for p in ORACLE_PS:
            exact = ModelParams(M, p, 2)
            approx = ModelParams(M, float(p), 2)
            for functional, k in (("V0", 0), ("V1", 1), ("V2", 2)):
                for target in ("F", "C"):
                    want = O.enumerate_2d(M, p, n, functional, target)
                    assert A.ev(exact, n, k, target) == want, (M, n, p, functional, target)
                    assert _close_rel(float(A.ev(approx, n, k, target)), float(want))
                    checks += 1
    # per-level intersection terms, both targets: corners and side pairs
    for M, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        corners = ((2, "corner2"), (3, "corner3"), (4, "corner4"))
        for p in ORACLE_PS:
            exact = ModelParams(M, p, 2)
            approx = ModelParams(M, float(p), 2)
            for target in ("F", "C"):
                for ell, name in corners:
                    want = O.enumerate_corner_intersection_2d(M, p, n, ell, 0, target)
                    assert A.intersection_series_terms_2d(exact, name, n, 0, target) == want
                    assert _close_rel(
                        float(A.intersection_series_terms_2d(approx, name, n, 0, target)),
                        float(want),
                    )
                    checks += 1
                for k in (0, 1):
                    want = O.enumerate_side_intersection_2d(M, p, n, k, target)
                    assert A.intersection_series_terms_2d(exact, "side", n, k, target) == want
                    assert _close_rel(
                        float(A.intersection_series_terms_2d(approx, "side", n, k, target)),
                        float(want),
                    )
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 minutes"
    print(f"ACCEPTANCE 1 formula-oracle equivalence: PASS ({checks} checks, {elapsed:.1f}s)")


def test_acceptance_2_limit_spot_values():
    rng = np.random.default_rng(20240802)
    for _ in range(100):
        M = int(rng.integers(2, 1001))
        p = float(rng.uniform(1.0 / M + 1e-6, 1.0))
        pr2 = ModelParams(M, p, 2)
        pr1 = ModelParams(M, p, 1)
        assert A.limit_vk_2d(pr2, 2) == 1
        v1 = A.limit_vk_2d(pr2, 1)
        v1c = A.limit_vck_2d(pr2, 1)
        assert abs(v1c - v1) <= 1e-14
        assert abs(v1 - 2 * M * (1 - p) / (M - p)) <= 1e-14
        w = A.limit_vk_1d(pr1, 0)
        wc = A.limit_vck_1d(pr1, 0)
        assert abs(wc - w) <= 1e-14
        assert abs(w - M * (1 - p) / (M - p)) <= 1e-14
    # the same identities are exact in rational arithmetic
    for M, p in ((2, F(3, 4)), (7, F(1, 2)), (100, F(9, 10))):
        pr2 = ModelParams(M, p, 2)
        pr1 = ModelParams(M, p, 1)
        assert A.limit_vck_2d(pr2, 1) == A.limit_vk_2d(pr2, 1)
        assert A.limit_vck_1d(pr1, 0) == A.limit_vk_1d(pr1, 0)
    print("ACCEPTANCE 2 closed-form limit spot values: PASS (100 random + exact identities)")


def test_acceptance_3_monte_carlo_agreement():
    t0 = time.perf_counter()
    grid = [(2, n, p) for n in (4, 8) for p in (0.3, 0.6, 0.9)]
    grid += [(3, 4, p) for p in (0.5, 0.9)]
    workers = min(4, os.cpu_count() or 1)
    samples = 10_000
    worst = 0.0
    for M, n, p in grid:
        params = ModelParams(M, p, 2)
        result = MC.run_experiment(params, n, samples, seed=987654, workers=workers)
        for (target, functional), est in result.estimates.items():
            k = {"V0": 0, "V1": 1, "V2": 2}[functional]
            expected = float(A.ev(params, n, k, target))
            gap = abs(est.mean - expected)
            assert gap < 4 * est.stderr, (M, n, p, target, functional, gap, est.stderr)
            worst = max(worst, gap / est.stderr if est.stderr else 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"criterion 3 runtime {elapsed:.0f}s exceeds 10 minutes"
    print(
        f"ACCEPTANCE 3 Monte Carlo agreement: PASS "
        f"({len(grid)} cells x {samples} samples, worst = {worst:.2f} sigma, {elapsed:.0f}s)"
    )


def test_acceptance_4_threshold_proxies():
    for M in range(4, 65):
        assert T.find_p0(M) <= 0.556, M
    p0_2, p1_2 = T.find_p0(2), T.find_p1(2)
    assert p0_2 < 0.881 and p1_2 < 0.881
    assert T.find_p1(3) < 0.784
    for M in (2, 3, 4, 8, 16, 32, 64, 1024):
        rep = T.threshold_report(M)
        assert rep.p0 < rep.pmin, M
        assert rep.p0_residual < 1e-10 and rep.p1_residual < 1e-10
    gap0 = abs(T.find_p0(1024) - T.P0_LARGE_M)
    gap1 = abs(T.find_p1(1024) - T.P1_LARGE_M)
    gapm = abs(T.find_pmin(1024) - T.PMIN_LARGE_M)
    assert gap0 < 0.05 and gap1 < 0.05 and gapm < 0.05
    assert gap0 < abs(p0_2 - T.P0_LARGE_M)
    assert gap1 < abs(p1_2 - T.P1_LARGE_M)
    assert gapm < abs(T.find_pmin(2) - T.PMIN_LARGE_M)
    print(
        f"ACCEPTANCE 4 threshold proxies: PASS "
        f"(p0(1024) off by {gap0:.2e}, p1 by {gap1:.2e}, pmin by {gapm:.2e})"
    )


def test_acceptance_5_convergence_rate():
    onsets = {}
    for M, p in ((2, F(3, 5)), (3, F(4, 5))):
        pr = ModelParams(M, p, 2)
        ratio = A.vbar0_2d_tail(pr, 40) / (A.convergence_amplitude_2d(pr) * (p / F(M)) ** 40)
        assert 0.95 <= ratio <= 1.05, (M, p, float(ratio))
        values = [A.vbar0_2d_finite(pr, n) for n in range(61)]
        rises = [n for n in range(1, 61) if values[n] >= values[n - 1]]
        onset = max(rises, default=0) + 1
        assert onset <= 20, (M, p, onset)
        onsets[(M, float(p))] = onset
    print(f"ACCEPTANCE 5 convergence rate: PASS (onsets of strict decrease: {onsets})")


def test_acceptance_6_geometry_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240806)
    for i in range(10_000):
        side = int(rng.integers(8, 65))
        density = (0.2, 0.5, 0.8)[i % 3]
        occ = rng.random((side, side)) < density
        lookup = G.minkowski_of_array(occ, 1.0)
        assert lookup.v0 == G.euler_crosscheck(occ)
        audit = G.minkowski_audit(occ)
        assert lookup.v1 == audit.cell_size * (2 * audit.faces - audit.edges_shared)
        assert lookup.v2 == audit.faces
        assert (lookup.faces, lookup.edges_any, lookup.edges_shared, lookup.vertices_any) == (
            audit.faces, audit.edges_any, audit.edges_shared, audit.vertices_any
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 6 runtime {elapsed:.0f}s exceeds 1 minute"
    print(f"ACCEPTANCE 6 geometry duality: PASS (10000 grids, {elapsed:.0f}s)")


def test_acceptance_7_large_m_pointwise():
    M = 10**6
    worst_f = worst_c = 0.0
    p = 0.05
    while p <= 0.99 + 1e-12:
        pr = ModelParams(M, p, 2)
        worst_f = max(worst_f, abs(A.limit_vk_2d(pr, 0) - A.large_m_v(p)))
        worst_c = max(worst_c, abs(-A.limit_vck_2d(pr, 0) - A.large_m_vc(p)))
        p = round(p + 0.01, 10)
    assert worst_f < 1e-4 and worst_c < 1e-4
    print(f"ACCEPTANCE 7 large-M limits: PASS (max gaps {worst_f:.2e}, {worst_c:.2e})")


def test_acceptance_8_determinism_and_merge_invariance():
    pr = ModelParams(2, 0.7, 2)
    a = S.sample(pr, 6, seed=13, sample_index=8)
    b = S.sample(pr, 6, seed=13, sample_index=8)
    assert np.array_equal(a.occupancy, b.occupancy)
    base = MC.run_experiment(pr, 4, 2000, seed=13, shards=1)
    for shards in (8, 64):
        other = MC.run_experiment(pr, 4, 2000, seed=13, shards=shards)
        for key, est in base.estimates.items():
            rel = abs(other.estimates[key].mean - est.mean) / max(1.0, abs(est.mean))
            assert rel <= 1e-12, (key, shards, rel)
    print("ACCEPTANCE 8 determinism and merge invariance: PASS")
