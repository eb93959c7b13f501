"""Self-verification: oracle, identity and simulation checks in one report.

Each group compares two independent routes to the same quantity (closed
form vs enumeration, window-pass counters vs component counting, sample means
vs exact expectations) and reports the worst residual seen. The report is
machine readable; the CLI turns any failure into a nonzero exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analytic, geometry, montecarlo, oracle, sampler
from .analytic import ModelParams

_ORACLE_PS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


@dataclass
class CheckGroup:
    name: str
    passed: bool
    worst: float
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    groups: list

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "groups": [
                {
                    "name": g.name,
                    "passed": g.passed,
                    "worst_residual": g.worst,
                    "details": g.details,
                }
                for g in self.groups
            ],
        }


def _group_oracle_1d(full: bool) -> CheckGroup:
    worst = 0.0
    count = 0
    envelope = ((2, 3), (3, 2)) if full else ((2, 2), (3, 1))
    ok = True
    for M, nmax in envelope:
        for n in range(nmax + 1):
            for p in _ORACLE_PS:
                params = ModelParams(M, p, 1)
                pairs = [
                    (oracle.enumerate_1d(M, p, n, "V0", "K"), analytic.ev_vk_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "V1", "K"), analytic.ev_vk_1d(params, n, 1)),
                    (oracle.enumerate_1d(M, p, n, "V0", "D"), analytic.ev_vk_complement_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "V0", "KK"), analytic.ev_vk_intersect_1d(params, n, 0)),
                    (oracle.enumerate_1d(M, p, n, "N", "KK"), analytic.ev_n_isolated_1d(params, n)),
                    (oracle.enumerate_1d(M, p, n, "V0", "DD"), analytic.ev_vk_complement_1d(params, n, 0, True)),
                ]
                for got, want in pairs:
                    count += 1
                    if got != want:
                        ok = False
                        worst = max(worst, abs(float(got - want)))
    return CheckGroup("oracle_vs_analytic_1d", ok, worst, {"comparisons": count})


def _group_oracle_2d(full: bool) -> CheckGroup:
    worst = 0.0
    count = 0
    ok = True
    instances = oracle.FEASIBLE_2D if full else ((2, 1), (3, 1))
    for M, n in instances:
        for p in _ORACLE_PS:
            params = ModelParams(M, p, 2)
            for functional, k in (("V0", 0), ("V1", 1), ("V2", 2)):
                for target in ("F", "C"):
                    got = oracle.enumerate_2d(M, p, n, functional, target)
                    want = analytic.ev(params, n, k, target)
                    count += 1
                    if got != want:
                        ok = False
                        worst = max(worst, abs(float(got - want)))
    return CheckGroup("oracle_vs_analytic_2d", ok, worst, {"comparisons": count})


def _group_recursions() -> CheckGroup:
    """Level recursions of the component count and the isolated-point count."""
    worst = 0.0
    ok = True
    for M in (2, 3, 5):
        for p in _ORACLE_PS:
            params = ModelParams(M, p, 1)
            for n in range(1, 21):
                lhs = analytic.ev_vk_1d(params, n, 0)
                rhs = M * p * analytic.ev_vk_1d(params, n - 1, 0) - (M - 1) * p ** (2 * n)
                if lhs != rhs:
                    ok = False
                    worst = max(worst, abs(float(lhs - rhs)))
                gam = analytic.ev_n_isolated_1d(params, n)
                rec = (
                    M * p * p * analytic.ev_n_isolated_1d(params, n - 1)
                    + (M - 1) * 2 * p ** (2 * n) * (1 - p**n) ** 2
                )
                if gam != rec:
                    ok = False
                    worst = max(worst, abs(float(gam - rec)))
    return CheckGroup("level_recursions", ok, worst, {"levels": 20})


def _group_limit_consistency() -> CheckGroup:
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
    return CheckGroup("limit_consistency", worst < 1e-10, worst, {"tolerance": 1e-10})


def _group_geometry(seed: int, grids: int) -> CheckGroup:
    rng_local = np.random.default_rng(seed)
    worst = 0
    ok = True
    for _ in range(grids):
        side = int(rng_local.integers(4, 48))
        occ = rng_local.random((side, side)) < rng_local.choice((0.2, 0.5, 0.8))
        # both halves of the single window pass against the counting path
        a, a_c = geometry.minkowski_pair(occ)
        b, b_c = geometry.minkowski_audit(occ), geometry.minkowski_audit(~occ)
        c = geometry.euler_crosscheck(occ)
        if a != b or a_c != b_c or a.v0 != c:
            ok = False
            worst = max(worst, abs(a.v0 - c), abs(a.v0 - b.v0), abs(a_c.v0 - b_c.v0))
    return CheckGroup("geometry_duality", ok, float(worst), {"grids": grids})


def _group_mc(seed: int, samples: int) -> CheckGroup:
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
    return CheckGroup("mc_agreement", ok, worst, {"samples": samples, "limit_sigmas": 4})


def _group_determinism(seed: int) -> CheckGroup:
    params = ModelParams(2, 0.7, 2)
    g1 = sampler.sample(params, 6, seed, 3)
    g2 = sampler.sample(params, 6, seed, 3)
    bit_identical = bool(np.array_equal(g1.occupancy, g2.occupancy))
    r1 = montecarlo.run_experiment(params, 3, 400, seed, shards=1)
    r8 = montecarlo.run_experiment(params, 3, 400, seed, shards=8)
    worst = 0.0
    for key in r1.estimates:
        m1, m8 = r1.estimates[key].mean, r8.estimates[key].mean
        worst = max(worst, abs(m8 - m1) / max(1.0, abs(m1)))
    ok = bit_identical and worst <= 1e-12
    return CheckGroup(
        "determinism_and_merge", ok, worst,
        {"bit_identical": bit_identical, "merge_tolerance": 1e-12},
    )


def run_verification(seed: int = 20240801, full: bool = False) -> VerificationReport:
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
    return VerificationReport(groups)
