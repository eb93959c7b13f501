"""Self-verification: oracle, identity and simulation checks in one report.

Each group compares two independent routes to the same quantity (closed
form vs enumeration, window-pass counters vs component counting, sample means
vs exact expectations) and reports the worst residual seen. The three exact
groups (oracle vs closed forms in d = 1 and d = 2, the level recursions)
collect (got, want) pairs and pass only when every pair is equal. The report
is a plain dict, ``{"passed", "groups"}``, each group a dict ``{"name",
"passed", "worst_residual", "details"}``; the CLI prints it as JSON and turns
any failure into a nonzero exit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import analytic, geometry, montecarlo, oracle, sampler
from .analytic import ModelParams

_ORACLE_PS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


def _group(name: str, passed: bool, worst: float, details: dict) -> dict:
    return {"name": name, "passed": passed, "worst_residual": worst, "details": details}


def _exact_group(name: str, pairs: list, details: dict) -> dict:
    """Passes when every (got, want) pair is equal; the residual is the
    largest |got - want| over the pairs that differ."""
    worst = max((abs(float(got - want)) for got, want in pairs if got != want), default=0.0)
    return _group(name, all(got == want for got, want in pairs), worst, details)


def _group_oracle_1d(full: bool) -> dict:
    pairs = []
    for M, nmax in ((2, 3), (3, 2)) if full else ((2, 2), (3, 1)):
        for n in range(nmax + 1):
            for p in _ORACLE_PS:
                params = ModelParams(M, p, 1)
                pairs += [
                    (oracle.enumerate_1d(M, p, n, "V0", "K"), analytic.ev_vk_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "V1", "K"), analytic.ev_vk_1d(params, n, 1)),
                    (oracle.enumerate_1d(M, p, n, "V0", "D"), analytic.ev_vk_complement_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "V0", "KK"), analytic.ev_vk_intersect_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "N", "KK"), analytic.ev_n_isolated_1d(params, n)),
                    (oracle.enumerate_1d(M, p, n, "V0", "DD"), analytic.ev_vk_complement_1d(params, n, 0, True)),
                ]
    return _exact_group("oracle_vs_analytic_1d", pairs, {"comparisons": len(pairs)})


def _group_oracle_2d(full: bool) -> dict:
    pairs = []
    for M, n in oracle.FEASIBLE_2D if full else ((2, 1), (3, 1)):
        for p in _ORACLE_PS:
            params = ModelParams(M, p, 2)
            for functional, k in (("V0", 0), ("V1", 1), ("V2", 2)):
                for target in ("F", "C"):
                    pairs.append((oracle.enumerate_2d(M, p, n, functional, target),
                                  analytic.ev(params, n, k, target)))
    return _exact_group("oracle_vs_analytic_2d", pairs, {"comparisons": len(pairs)})


def _group_recursions() -> dict:
    """Level recursions of the component count and the isolated-point count."""
    pairs = []
    for M in (2, 3, 5):
        for p in _ORACLE_PS:
            params = ModelParams(M, p, 1)
            for n in range(1, 21):
                pairs.append((analytic.ev_vk_1d(params, n, 0),
                              M * p * analytic.ev_vk_1d(params, n - 1, 0) - (M - 1) * p ** (2 * n)))
                pairs.append((analytic.ev_n_isolated_1d(params, n),
                              M * p * p * analytic.ev_n_isolated_1d(params, n - 1)
                              + (M - 1) * 2 * p ** (2 * n) * (1 - p**n) ** 2))
    return _exact_group("level_recursions", pairs, {"levels": 20})


def _group_limit_consistency() -> dict:
    worst = 0.0
    for M, p in ((2, 0.5), (2, 0.9), (3, 0.8), (5, 0.3)):
        params = ModelParams(M, p, 2)
        worst = max(
            worst,
            abs(analytic.vbar_2d_truncated(params, 200, 0, "F") - float(analytic.limit_vk_2d(params, 0))),
            abs(analytic.vbar_2d_truncated(params, 200, 0, "C") - float(analytic.limit_vck_2d(params, 0))),
            abs(float(analytic.vbar0_2d_finite(params, 60)) - float(analytic.limit_vk_2d(params, 0))),
        )
        if M * p > 1:
            worst = max(
                worst,
                abs(float(analytic.limit_vck_2d(params, 1)) - float(analytic.limit_vk_2d(params, 1))),
            )
    return _group("limit_consistency", worst < 1e-10, worst, {"tolerance": 1e-10})


def _group_geometry(seed: int, grids: int) -> dict:
    rng_local = np.random.default_rng(seed)
    by_side = {}
    for _ in range(grids):
        side = int(rng_local.integers(4, 48))
        occ = rng_local.random((side, side)) < rng_local.choice((0.2, 0.5, 0.8))
        by_side.setdefault(side, []).append(occ)
    worst, scored = 0, 0
    for occ in map(np.stack, by_side.values()):
        # one call per route on the stack of each side's grids: both halves of
        # the single window pass against the counting path and the Euler
        # cross-check, each route reading the raw stack alone
        window, audit = geometry.window_counters(occ), geometry.audit_counters(occ)
        (v0, v0_c), (b0, b0_c) = geometry.vk_scores((window, audit), 2)[..., 0].transpose(0, 2, 1)
        c = geometry.euler_crosscheck(occ)
        # a grid fails exactly where its residual is nonzero: a V0 gap or a
        # gap in any of the eight counters
        gap = np.abs(window - audit).max(axis=(1, 2))
        residual = np.max((np.abs(v0 - c), np.abs(v0 - b0), np.abs(v0_c - b0_c), gap), axis=0)
        worst = max(worst, int(residual.max()))
        scored += len(occ)
    return _group("geometry_duality", worst == 0, float(worst), {"grids": scored})


def _group_mc(seed: int, samples: int) -> dict:
    worst = 0.0
    ok = True
    for M, n, p in ((2, 4, 0.6), (3, 3, 0.7)):
        params = ModelParams(M, p, 2)
        result = montecarlo.run_experiment(params, n, samples, seed)
        for (target, functional), est in result.estimates.items():
            k = {"V0": 0, "V1": 1, "V2": 2}[functional]
            exact = float(analytic.ev(params, n, k, target))
            sigma = est.stderr if est.stderr > 0 else 1e-30
            z = abs(est.mean - exact) / sigma
            worst = max(worst, z)
            if z >= 4:
                ok = False
    return _group("mc_agreement", ok, worst, {"samples": samples, "limit_sigmas": 4})


def _group_determinism(seed: int) -> dict:
    params = ModelParams(2, 0.7, 2)
    g1 = sampler.sample(params, 6, seed, 3)
    g2 = sampler.sample(params, 6, seed, 3)
    bit_identical = bool(np.array_equal(g1.occupancy, g2.occupancy))
    # the same 400 replicates in one block, then in 8 blocks of 50
    r1 = montecarlo.run_experiment(params, 3, 400, seed)
    budget = 50 * 4**3 * sampler.PEAK_BYTES_PER_CELL
    r8 = montecarlo.run_experiment(params, 3, 400, seed, budget_bytes=budget)
    worst = 0.0
    for key in r1.estimates:
        m1, m8 = r1.estimates[key].mean, r8.estimates[key].mean
        worst = max(worst, abs(m8 - m1) / max(1.0, abs(m1)))
    ok = bit_identical and worst <= 1e-12
    return _group("determinism_and_merge", ok, worst,
                  {"bit_identical": bit_identical, "merge_tolerance": 1e-12})


def run_verification(seed: int = 20240801, full: bool = False) -> dict:
    """Run every check group; ``full`` extends the oracle envelope."""
    groups = [
        _group_oracle_1d(full),
        _group_oracle_2d(full),
        _group_recursions(),
        _group_limit_consistency(),
        _group_geometry(seed, 2000 if full else 300),
        _group_mc(seed, 4000 if full else 800),
        _group_determinism(seed),
    ]
    return {"passed": all(g["passed"] for g in groups), "groups": groups}
