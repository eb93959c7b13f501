"""The paper's two Euler-characteristic curves, their characteristic
parameters, and known threshold bounds.

:func:`euler_curve` (construction sets F_n) and :func:`complement_curve`
(negated, closed complements C_n) are the one definition of each curve,
at a level n or in the limit; ``fracperc curves`` tabulates both and the
searches read their limits. For each M the Euler curve has a unique zero
p0 and minimum p_min in (1/M^2, 1), the complement curve a unique zero p1;
bisection and golden-section search locate them on the closed-form limits
(never on Monte Carlo estimates). Known rigorous bounds on the percolation
threshold are tabulated for comparison; p0 and p1 act as lower-bound
proxies for small M only.
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


def euler_curve(M: int, p: float, n: int | None = None) -> float:
    """Rescaled Euler-characteristic curve of F_n in the plane; its limit
    when n is omitted. p0 is its zero and p_min its minimum."""
    params = ModelParams(M, p, 2)
    if n is None:
        return float(analytic.limit_vk_2d(params, 0))
    return float(analytic.vbar0_2d_finite(params, n))


def complement_curve(M: int, p: float, n: int | None = None) -> float:
    """Negated rescaled Euler-characteristic curve of C_n in the plane; its
    limit when n is omitted. p1 is its zero."""
    params = ModelParams(M, p, 2)
    if n is None:
        return -float(analytic.limit_vck_2d(params, 0))
    return -float(analytic.vbarc0_2d_finite(params, n).vbar)


def _zero(curve, M: int, what: str) -> RootResult:
    """Certified zero of the limit of ``curve`` in (1/M^2, 1)."""
    result = _bisect(lambda p: curve(M, p), *_domain(M))
    if result.bracket[1] - result.bracket[0] >= 1e-12 or result.residual >= 1e-12:
        raise BracketingError(
            f"{what}({M}): bracket {result.bracket} residual {result.residual} too loose"
        )
    return result


def find_p0(M: int) -> float:
    """Zero of the construction-set limit curve in (1/M^2, 1)."""
    return _zero(euler_curve, M, "p0").value


def find_p1(M: int) -> float:
    """Zero of the negated complement limit curve in (1/M^2, 1)."""
    return _zero(complement_curve, M, "p1").value


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


def _minimum(M: int) -> RootResult:
    """Golden-section minimum of the construction-set limit curve."""
    f = lambda p: euler_curve(M, p)
    lo, hi = _grid_scan_unimodal(f, *_domain(M))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
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


def find_pmin(M: int) -> float:
    """Minimizer of the construction-set limit curve in (1/M^2, 1)."""
    return _minimum(M).value


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
    r0 = _zero(euler_curve, M, "p0")
    rmin = _minimum(M)
    r1 = _zero(complement_curve, M, "p1")
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
