"""Characteristic parameters of the limit curves and known threshold bounds.

For each subdivision count M the rescaled Euler-characteristic curve of
the construction sets has a unique zero p0 and a unique minimum p_min in
(1/M^2, 1), and the negated complement curve has a unique zero p1. These
are located by bisection and golden-section search on the closed-form
limits (never on Monte Carlo estimates). Known rigorous bounds on the
percolation threshold are tabulated for comparison; p0 and p1 act as
lower-bound proxies for small M only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytic
from .analytic import ModelParams, _integer

#: Margin keeping searches inside the open parameter interval.
EDGE_MARGIN = 1e-9

#: Best tabulated rigorous bounds on the planar percolation threshold.
_KNOWN_BOUNDS = {2: (0.881, 0.993), 3: (0.784, 0.940), 4: (0.556, 0.972)}

#: Lower bound for the nearest-neighbour site threshold, valid for M >= 4.
_NN_LOWER = 0.556

#: Large-M limits of p0, p1 and p_min.
P0_LARGE_M = (3 - math.sqrt(5)) / 2
P1_LARGE_M = (math.sqrt(5) - 1) / 2
PMIN_LARGE_M = 2 / 3

_GOLDEN = (math.sqrt(5) - 1) / 2


class BracketingError(RuntimeError):
    """The expected sign change or unimodal shape was not found."""


@dataclass(frozen=True)
class RootResult:
    value: float
    bracket: tuple
    residual: float


@dataclass(frozen=True)
class ThresholdReport:
    """p0 < p_min locate the zero and minimum of the construction-set
    curve, p1 the zero of the negated complement curve; brackets and
    residuals certify the searches."""

    M: int
    p0: float
    pmin: float
    p1: float
    p0_bracket: tuple
    pmin_bracket: tuple
    p1_bracket: tuple
    p0_residual: float
    p1_residual: float
    known_bounds: tuple


def _domain(M: int) -> tuple:
    return (1.0 / M**2 + EDGE_MARGIN, 1.0 - EDGE_MARGIN)


def _bisect(f, lo: float, hi: float, width: float = 1e-13) -> RootResult:
    flo, fhi = f(lo), f(hi)
    if not (flo > 0 > fhi):
        raise BracketingError(
            f"no positive-to-negative sign change on [{lo}, {hi}]: f = ({flo}, {fhi})"
        )
    for _ in range(200):
        if hi - lo < width:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return RootResult(root, (lo, hi), abs(f(root)))


def _assert_root(result: RootResult, what: str) -> None:
    if result.bracket[1] - result.bracket[0] >= 1e-12 or result.residual >= 1e-12:
        raise BracketingError(
            f"{what}: bracket {result.bracket} residual {result.residual} too loose"
        )


def find_p0(M: int) -> float:
    """Zero of the construction-set limit curve in (1/M^2, 1)."""
    return find_p0_result(M).value


def find_p0_result(M: int) -> RootResult:
    f = lambda p: float(analytic.limit_vk_2d(ModelParams(M, p, 2), 0))
    result = _bisect(f, *_domain(M))
    _assert_root(result, f"p0({M})")
    return result


def find_p1(M: int) -> float:
    """Zero of the negated complement limit curve in (1/M^2, 1)."""
    return find_p1_result(M).value


def find_p1_result(M: int) -> RootResult:
    f = lambda p: -float(analytic.limit_vck_2d(ModelParams(M, p, 2), 0))
    result = _bisect(f, *_domain(M))
    _assert_root(result, f"p1({M})")
    return result


def _grid_scan_unimodal(f, lo: float, hi: float, points: int = 1000) -> tuple:
    """Confirm a single decreasing-to-increasing transition; return its bracket."""
    xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    ys = [f(x) for x in xs]
    rising = [ys[i + 1] > ys[i] for i in range(points - 1)]
    changes = sum(1 for i in range(points - 2) if rising[i] != rising[i + 1])
    if changes != 1 or rising[0] or not rising[-1]:
        raise BracketingError(
            f"curve not unimodal on a {points}-point grid ({changes} slope changes)"
        )
    i = rising.index(True)  # first rising step; the minimum sits beside it
    return xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]


def find_pmin(M: int) -> float:
    """Minimizer of the construction-set limit curve in (1/M^2, 1)."""
    return find_pmin_result(M).value


def find_pmin_result(M: int, width: float = 1e-10) -> RootResult:
    f = lambda p: float(analytic.limit_vk_2d(ModelParams(M, p, 2), 0))
    lo, hi = _grid_scan_unimodal(f, *_domain(M))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > width:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return RootResult(mid, (lo, hi), f(mid))


def known_bounds(M: int) -> tuple:
    """Tabulated rigorous (lower, upper) bounds for the percolation threshold."""
    _integer("subdivision count M", M, 2)
    if M in _KNOWN_BOUNDS:
        return _KNOWN_BOUNDS[M]
    lower = math.sqrt(1.0 / M)
    if M >= 4:
        lower = max(lower, _NN_LOWER)
    return (lower, 0.9999)


def threshold_report(M: int) -> ThresholdReport:
    """Locate p0, p_min and p1 for one M and bundle the certificates."""
    r0 = find_p0_result(M)
    rmin = find_pmin_result(M)
    r1 = find_p1_result(M)
    return ThresholdReport(
        M=M,
        p0=r0.value,
        pmin=rmin.value,
        p1=r1.value,
        p0_bracket=r0.bracket,
        pmin_bracket=rmin.bracket,
        p1_bracket=r1.bracket,
        p0_residual=r0.residual,
        p1_residual=r1.residual,
        known_bounds=known_bounds(M),
    )
