"""Closed-form expectations and rescaled limits for fractal percolation.

All functions accept probabilities either as floats or as
:class:`fractions.Fraction`. ``_mp`` is the one place that picks the
arithmetic: with a ``Fraction`` p it returns M as a ``Fraction`` too, so
every formula, written once as the plain expression in M and p, is
evaluated in exact rational arithmetic (every expression here is a rational
function of ``p`` and ``M``), which is what the enumeration oracle compares
against. With a float p, M stays an int and the same expressions run in
IEEE arithmetic. ``_sum`` accumulates the bracketed geometric sums with
``math.fsum`` when a term is a float, to keep cancellation in check, and
exactly otherwise, so an empty or all-integer sum stays exact.

Conventions: ``F_n`` is the union of level-``n`` cells whose whole ancestry
survived, ``C_n`` the closed complement of ``F_n`` in the unit cube,
``F_0 = [0,1]^d`` and ``C_0`` empty. In one dimension the construction set
is a union of intervals and its closed complement is again a union of
level-``n`` intervals. Unrescaled expectations are polynomial identities in
``p`` and valid on all of [0, 1]. A quantity rescaled by r^{n(D-k)} at
exponent j is defined only where M^j p > 1 and raises :class:`DomainError`
elsewhere rather than returning NaN. ``_gate`` holds the argument and
domain checks shared by the public closed forms; only checks of one function
(``dims``' p > 0, the complement area, intersection configurations, the 1-d
intersection limit's M p^2 > 1) stay put.

:class:`ArgumentError` (a ``ValueError``; :class:`DomainError` is one) and
``_integer`` are the package's one argument error and one integer check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

#: Intrinsic volumes of the unit cube, q[(d, k)] = V_k([0,1]^d).
#: These are binomial coefficients C(d, k): the Steiner polynomial of the
#: unit cube is vol([0,1]^d + eps B) = sum_k q_{d,k} kappa_{d-k} eps^{d-k},
#: and expanding the product of d unit segments gives C(d, k).
UNIT_CUBE_VK = {
    (1, 0): 1,
    (1, 1): 1,
    (2, 0): 1,
    (2, 1): 2,
    (2, 2): 1,
}


class ArgumentError(ValueError):
    """An argument of a public function is invalid."""


def _integer(name: str, value, least: int, most=None) -> int:
    """``value`` as an int; ArgumentError unless it is a non-bool integer in
    least..most (unbounded above when ``most`` is None)."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and least <= value and (most is None or value <= most)):
        return int(value)
    if most is not None:
        rule = f"an integer in {least}..{most}"
    else:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
    raise ArgumentError(f"{name} must be {rule}, got {value!r}")


class DomainError(ArgumentError):
    """A rescaled-limit formula was queried outside its domain of validity."""

    def __init__(self, message: str, *, M=None, p=None, k=None):
        super().__init__(message)
        self.M = M
        self.p = p
        self.k = k


@dataclass(frozen=True)
class ModelParams:
    """Subdivision count M >= 2, survival probability p in [0, 1], dimension d."""

    M: int
    p: Number
    d: int = 2

    def __post_init__(self):
        _integer("subdivision count M", self.M, 2)
        if not 0 <= self.p <= 1:
            raise ArgumentError(f"p must lie in [0, 1], got {self.p!r}")
        if self.d not in (1, 2):
            raise ArgumentError(f"d must be 1 or 2, got {self.d!r}")

    @property
    def non_empty_regime(self) -> bool:
        """True when M^d p > 1, the regime where the limit set can be nonempty."""
        return self.M**self.d * self.p > 1


def _mp(params: ModelParams) -> tuple[Number, Number]:
    """(M, p) in the arithmetic of p: M as a ``Fraction`` when p is one, so
    that every quotient stays exact, and the int M otherwise."""
    M, p = params.M, params.p
    return (Fraction(M) if isinstance(p, Fraction) else M), p


def _sum(terms) -> Number:
    """Compensated summation when a term is a float, exact summation otherwise."""
    terms = list(terms)
    if any(isinstance(t, float) for t in terms):
        return math.fsum(terms)
    return sum(terms)


def _geom(x: Number, m: int) -> Number:
    """1 + x + ... + x^{m-1}."""
    return _sum(x**j for j in range(m))


_SKIP = object()  # a _gate argument left out; None is itself an invalid n, k or target


def _gate(params: ModelParams, op: str, d: int, n=_SKIP, k=_SKIP, target=_SKIP, above=None):
    """Check the arguments of the closed form ``op``, in this order, and
    return ``_mp(params)``: d-dimensional model, nonnegative int level n, k in
    0..d, target "F" or "C", each raising :class:`ArgumentError`, and
    M^above p > 1 for a rescaled quantity, which raises its subclass
    :class:`DomainError`. An argument left out is not checked."""
    if params.d != d:
        raise ArgumentError(f"{op} requires d = {d}, got d = {params.d}")
    if n is not _SKIP:
        _integer("level n", n, 0)
    if k is not _SKIP:
        _integer("k", k, 0, d)
    if target is not _SKIP and target not in ("F", "C"):
        raise ArgumentError(f"target must be 'F' or 'C', got {target!r}")
    M, p = _mp(params)
    if above is not None and M**above * p <= 1:
        raise DomainError(f"{op} needs p > 1/M^{above}", M=params.M, p=p, k=k)
    return M, p


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionReport:
    """Dimension and subdimension data of the limit set.

    ``dimension`` is d - log(1/p)/log(M); it equals the a.s. Hausdorff and
    Minkowski dimension of the nonempty limit set only in the nonempty
    regime (flagged by ``in_nonempty_regime``), and is zero or negative
    otherwise. ``intersection_dimension`` is log(M p^2)/log M, the a.s.
    dimension of the intersection of two independent one-dimensional
    copies. For d = 2 the exact expansion of E V_0(C_m) exposes the
    subdimensions D - 1 and 2D - 3 with the amplitudes recorded here;
    those fields are None for d = 1.
    """

    d: int
    dimension: float
    intersection_dimension: float
    in_nonempty_regime: bool
    sub2: float | None = None
    sub3: float | None = None
    sub2_amplitude: float | None = None
    sub3_amplitude: float | None = None


def dims(params: ModelParams) -> DimensionReport:
    """Dimension report for the given parameters; requires p > 0."""
    M, p, d = params.M, params.p, params.d
    if p <= 0:
        raise DomainError("dimension formulas need p > 0", M=params.M, p=p)
    logM = math.log(M)
    D = d - math.log(1 / p) / logM
    Dprime = 1 + 2 * math.log(p) / logM
    if d == 1:
        return DimensionReport(d, D, Dprime, params.non_empty_regime)
    c2, c3 = _sub_amplitudes(*_mp(params))
    return DimensionReport(
        d,
        D,
        Dprime,
        params.non_empty_regime,
        sub2=D - 1,
        sub3=2 * D - 3,
        sub2_amplitude=float(c2),
        sub3_amplitude=float(c3),
    )


# ---------------------------------------------------------------------------
# One dimension: construction set K_n and its closed complement D_n
# ---------------------------------------------------------------------------

def ev_vk_1d(params: ModelParams, n: int, k: int) -> Number:
    """E V_k(K_n) for a one-dimensional construction step.

    V_1 is total length, E V_1(K_n) = p^n. V_0 counts components:
    E V_0(K_n) = (Mp)^n (1 - (M-1)p/(M-p) [1 - (p/M)^n]).
    """
    M, p = _gate(params, "ev_vk_1d", 1, n=n, k=k)
    if k == 1:
        return p**n
    return (M * p) ** n * (1 - (M - 1) * p / (M - p) * (1 - (p / M) ** n))


def ev_vk_intersect_1d(params: ModelParams, n: int, k: int) -> Number:
    """E V_k of the intersection of two independent copies of K_n."""
    M, p = _gate(params, "ev_vk_intersect_1d", 1, n=n, k=k)
    if k == 1:
        return p ** (2 * n)
    return (M * p * p) ** n * _sum(
        [
            3,
            -2 * (1 / M) ** n,
            -4 * p * (M - 1) / (M - p) * (1 - (p / M) ** n),
            (M - 1) * p * p / (M - p * p) * (1 - (p * p / M) ** n),
        ]
    )


def ev_n_isolated_1d(params: ModelParams, n: int) -> Number:
    """Expected number of isolated points of the intersection of two copies of K_n."""
    M, p = _gate(params, "ev_n_isolated_1d", 1, n=n)
    return (M * p * p) ** n * _sum(
        [
            2,
            -2 * (1 / M) ** n,
            -4 * p * (M - 1) / (M - p) * (1 - (p / M) ** n),
            2 * p * p * (M - 1) / (M - p * p) * (1 - (p * p / M) ** n),
        ]
    )


def ev_vk_complement_1d(
    params: ModelParams, n: int, k: int, intersect: bool = False
) -> Number:
    """E V_k(D_n), or of the intersection of two independent copies of D_n.

    D_n is the closed complement of K_n in [0, 1]; D_0 is empty.
    """
    M, p = _gate(params, "ev_vk_complement_1d", 1, n=n, k=k)
    if not intersect:
        if k == 1:
            return 1 - p**n
        return ev_vk_1d(params, n, 0) + 1 - 2 * p**n
    if k == 1:
        return 1 - 2 * p**n + p ** (2 * n)
    return _sum(
        [
            2 * ev_vk_1d(params, n, 0),
            1 - 4 * p**n + 2 * p ** (2 * n),
            (M * p * p) ** n
            * (-1 + p * p * (M - 1) / (M - p * p) * (1 - (p * p / M) ** n)),
        ]
    )


def limit_vk_1d(params: ModelParams, k: int) -> Number:
    """Rescaled limit of E V_k(K_n): 1 for k = 1, M(1-p)/(M-p) for k = 0."""
    M, p = _gate(params, "limit_vk_1d", 1, k=k, above=1)
    if k == 1:
        return 1
    return M * (1 - p) / (M - p)


def limit_vk_intersect_1d(params: ModelParams, k: int) -> Number:
    """Rescaled limit for the intersection of two independent 1d copies,
    defined where the rescaling (M p^2)^n grows: M p^2 > 1."""
    M, p = _gate(params, "limit_vk_intersect_1d", 1, k=k)
    if M * p * p <= 1:
        raise DomainError("limit_vk_intersect_1d needs M p^2 > 1", M=params.M, p=p, k=k)
    if k == 1:
        return 1
    return 3 - 4 * p * (M - 1) / (M - p) + p * p * (M - 1) / (M - p * p)


def limit_vck_1d(params: ModelParams, k: int) -> Number:
    """Rescaled limit of E V_k(D_n).

    For k = 0 this coincides with the construction-set limit, computed here
    through the complement route 1 - p(M-1)/(M-p). For k = 1 the unrescaled
    expectation 1 - p^n tends to 1 while the rescaled functional is
    reported as 0: the complement length is boundary-dominated and carries
    no mass at the scaling of the limit set.
    """
    M, p = _gate(params, "limit_vck_1d", 1, k=k, above=1)
    if k == 1:
        return 0
    return 1 - p * (M - 1) / (M - p)


# ---------------------------------------------------------------------------
# Two dimensions: construction steps F_n
# ---------------------------------------------------------------------------

def _v0_2d_brackets(M: int, p: Number):
    """Amplitudes of the four geometric brackets in the finite-n expansion
    of the rescaled expected Euler characteristic of F_n."""
    B1 = (
        2
        * p
        * (M - 1) ** 2
        / (M - p)
        * (3 / (M - 1) - 4 * p / (M - p) + p * p / (M - p * p))
    )
    B2 = 2 * p * (M * M - 1) / (M * M - p)
    B3 = 4 * p * p * (M - 1) ** 2 / (M - p) ** 2
    B4 = p**3 * (M - 1) ** 2 * (M + p * p) / ((M - p * p) * (M * M - p**3))
    return B1, B2, B3, B4


def _v0_2d_limit_expr(M: int, p: Number) -> Number:
    B1, B2, B3, B4 = _v0_2d_brackets(M, p)
    return _sum([1, -B1, B2, -B3, B4])


def _ev_v0_2d(M: int, p: Number, n: int) -> Number:
    """E V_0(F_n), a polynomial identity valid for every p in [0, 1]."""
    B1, B2, B3, B4 = _v0_2d_brackets(M, p)
    return _sum(
        [
            _v0_2d_limit_expr(M, p) * (M * M * p) ** n,
            B1 * (M * p * p) ** n,
            -B2 * p ** (2 * n),
            B3 * p ** (3 * n),
            -B4 * p ** (4 * n),
        ]
    )


def _ev_v1_2d(M: int, p: Number, n: int) -> Number:
    """E V_1(F_n) = 2M(1-p)/(M-p) (Mp)^n + 2p(M-1)/(M-p) p^{2n}."""
    return 2 * M * (1 - p) / (M - p) * (M * p) ** n + 2 * p * (M - 1) / (M - p) * p ** (2 * n)


def vbar0_2d_finite(params: ModelParams, n: int) -> Number:
    """Rescaled expected Euler characteristic r^{nD} E V_0(F_n), exact in n.

    Multiplying by (M^2 p)^n recovers E V_0(F_n) exactly; the formula also
    holds at n = 0 where it returns 1.
    """
    M, p = _gate(params, "vbar0_2d_finite", 2, n=n, k=0, above=2)
    B1, B2, B3, B4 = _v0_2d_brackets(M, p)
    return _sum(
        [
            1,
            -B1 * (1 - (p / M) ** n),
            B2 * (1 - (p / (M * M)) ** n),
            -B3 * (1 - (p * p / (M * M)) ** n),
            B4 * (1 - (p**3 / (M * M)) ** n),
        ]
    )


def vbar0_2d_tail(params: ModelParams, n: int) -> Number:
    """Difference vbar0_2d_finite(n) - limit, free of cancellation.

    The leading term is convergence_amplitude_2d(params) * (p/M)^n.
    """
    M, p = _gate(params, "vbar0_2d_tail", 2, n=n)
    B1, B2, B3, B4 = _v0_2d_brackets(M, p)
    return _sum(
        [
            B1 * (p / M) ** n,
            -B2 * (p / (M * M)) ** n,
            B3 * (p * p / (M * M)) ** n,
            -B4 * (p**3 / (M * M)) ** n,
        ]
    )


def convergence_amplitude_2d(params: ModelParams) -> Number:
    """Amplitude c of the leading (p/M)^n term of vbar0_2d_finite(n) - limit."""
    return _v0_2d_brackets(*_gate(params, "convergence_amplitude_2d", 2))[0]


def vbar1_2d_finite(params: ModelParams, n: int) -> Number:
    """Rescaled expected half-perimeter r^{n(D-1)} E V_1(F_n), exact in n."""
    M, p = _gate(params, "vbar1_2d_finite", 2, n=n, k=1, above=2)
    return 2 - 2 * p * (M - 1) / (M - p) * (1 - (p / M) ** n)


def limit_vk_2d(params: ModelParams, k: int) -> Number:
    """Rescaled limits for F_n in the plane: 1, 2M(1-p)/(M-p), and the
    rational Euler-characteristic expression, for k = 2, 1, 0."""
    M, p = _gate(params, "limit_vk_2d", 2, k=k, above=2)
    if k == 2:
        return 1
    if k == 1:
        return 2 * M * (1 - p) / (M - p)
    return _v0_2d_limit_expr(M, p)


# ---------------------------------------------------------------------------
# Two dimensions: closed complements C_n
# ---------------------------------------------------------------------------

def _vc0_2d_limit_expr(M: int, p: Number) -> Number:
    num = p**3 + (M - 1) * p * p + (M - 1) * p - M
    return M * M * (1 - p) * num / ((M * M - p**3) * (M - p))


def _sub_amplitudes(M: int, p: Number):
    """Amplitudes c2, c3 of the terms (Mp)^m and (Mp^2)^m of E V_0(C_m)."""
    c2 = 4 * M * (1 - p) / (M - p)
    c3 = -2 * M * (M - 1) * p * (1 - p * p) / ((M - p) * (M - p * p))
    return c2, c3


def _ev_vc0_terms(M: int, p: Number, m: int):
    """The six exact scale components of E V_0(C_m), m >= 1."""
    c2, c3 = _sub_amplitudes(M, p)
    ct = -_v0_2d_brackets(M, p)[3]  # the p^{4m} amplitude of F_n, negated
    leading = _vc0_2d_limit_expr(M, p) * (M * M * p) ** m
    sub2 = c2 * (M * p) ** m
    sub3 = c3 * (M * p * p) ** m
    vanishing = (
        -4 * p**m,
        4 * p * (M - 1) / (M - p) * p ** (2 * m),
        ct * p ** (4 * m),
    )
    return leading, sub2, sub3, vanishing


def _ev_vc0_2d(M: int, p: Number, m: int) -> Number:
    if m == 0:
        return 0
    leading, sub2, sub3, vanishing = _ev_vc0_terms(M, p, m)
    return _sum([leading, sub2, sub3, 1, *vanishing])


def _ev_vc1_2d(M: int, p: Number, m: int) -> Number:
    """E V_1(C_m) as a polynomial in p, valid on all of [0, 1]."""
    boundary = 2 * M * (1 - p) * _geom(M * p, m)
    side = _sum((M * p) ** (m - n) * (1 - p**n) ** 2 for n in range(1, m + 1))
    return boundary - 2 * (M - 1) * side


def limit_vck_2d(params: ModelParams, k: int) -> Number:
    """Rescaled limits for the closed complements C_n in the plane.

    k = 0 uses the closed rational form; k = 1 is assembled from the
    complement series route (boundary term minus the side-pair series),
    which simplifies algebraically to the construction-set value
    2M(1-p)/(M-p). The complement area admits no such rescaling (k = 2
    is not below the dimension) and raises.
    """
    # k = 0, 1 rescale at 2 - k; an invalid k is left to _gate, k = 2 raises below
    M, p = _gate(params, "limit_vck_2d", 2, k=k, above=2 - k if k in (0, 1) else None)
    if k == 2:
        raise DomainError("the area of C_n admits no r^{n(D-2)} rescaling", M=params.M, p=p, k=2)
    if k == 1:
        boundary = 2 * M * (1 - p) / (M * p - 1)
        side_series = 2 * (M - 1) * (
            1 / (M * p - 1) - 2 / (M - 1) + p / (M - p)
        )
        return boundary - side_series
    return _vc0_2d_limit_expr(M, p)


@dataclass(frozen=True)
class ComplementEulerExpansion:
    """Exact expansion of E V_0(C_m) into scale components.

    ``ev`` equals ``leading + sub2 + sub3 + constant + sum(vanishing)``
    exactly; ``vbar`` is the rescaled value r^{mD} ev. The leading term
    grows like M^{Dm}, the next two like M^{(D-1)m} and M^{(2D-3)m} (the
    subdimensions), and the last three vanish as m grows.
    """

    vbar: Number
    ev: Number
    leading: Number
    sub2: Number
    sub3: Number
    constant: Number
    vanishing: tuple


def vbarc0_2d_finite(params: ModelParams, m: int) -> ComplementEulerExpansion:
    """Rescaled expected Euler characteristic of C_m with its exact expansion.

    E V_0(C_m) decomposes exactly as

        limit (M^2 p)^m + c2 (Mp)^m + c3 (Mp^2)^m + 1
        - 4 p^m + (4p(M-1)/(M-p)) p^{2m} + ct p^{4m}

    with c2 = 4M(1-p)/(M-p), c3 = -2M(M-1)p(1-p^2)/((M-p)(M-p^2)) and
    ct = -(M-1)^2 p^3 (M+p^2)/((M-p^2)(M^2-p^3)).
    """
    M, p = _gate(params, "vbarc0_2d_finite", 2, n=m, k=0, above=2)
    if m == 0:
        zero = 0 * p
        return ComplementEulerExpansion(zero, zero, zero, zero, zero, zero, (zero, zero, zero))
    leading, sub2, sub3, vanishing = _ev_vc0_terms(M, p, m)
    ev_value = _sum([leading, sub2, sub3, 1, *vanishing])
    vbar = ev_value * (1 / (M * M * p)) ** m
    return ComplementEulerExpansion(vbar, ev_value, leading, sub2, sub3, 1, vanishing)


def vbarc1_2d_finite(params: ModelParams, m: int) -> Number:
    """Rescaled expected half-perimeter r^{m(D-1)} E V_1(C_m), exact in m."""
    M, p = _gate(params, "vbarc1_2d_finite", 2, n=m, k=1, above=1)
    return _ev_vc1_2d(M, p, m) * (1 / (M * p)) ** m


# ---------------------------------------------------------------------------
# Per-level intersection terms and series evaluation
# ---------------------------------------------------------------------------

#: Intersection configurations of first-level cells that meet: a side pair,
#: and 2, 3 or 4 cells around a common corner. Values: (number of cells
#: meeting, count of occurrences as a function of M, inclusion-exclusion
#: sign (-1)^{|T|-1}).
INTERSECTION_CONFIGURATIONS = {
    "side": (2, lambda M: 2 * M * (M - 1), -1),
    "corner2": (2, lambda M: 2 * (M - 1) ** 2, -1),
    "corner3": (3, lambda M: 4 * (M - 1) ** 2, +1),
    "corner4": (4, lambda M: (M - 1) ** 2, -1),
}


def configuration_count(M: int, configuration: str) -> int:
    """How many times a first-level intersection configuration occurs."""
    try:
        return INTERSECTION_CONFIGURATIONS[configuration][1](M)
    except KeyError:
        raise ArgumentError(f"unknown configuration {configuration!r}") from None


def intersection_series_terms_2d(
    params: ModelParams, configuration: str, n: int, k: int, target: str = "F"
) -> Number:
    """E V_k of one first-level intersection configuration at level n.

    For the construction sets, corner configurations of ell cells
    contribute p^{ell n} to V_0 and nothing to V_1; the side pair reduces
    to the intersection of two independent one-dimensional copies at level
    n-1, scaled by p^2 / M^k. For the complements, corner configurations
    contribute (1 - p^n)^ell and the side pair follows the closed forms of
    the one-dimensional complement intersection.
    """
    M, p = _gate(params, "intersection_series_terms_2d", 2, k=k, target=target)
    if configuration not in INTERSECTION_CONFIGURATIONS:
        raise ArgumentError(f"unknown configuration {configuration!r}")
    _integer("level n", n, 1)
    ell = INTERSECTION_CONFIGURATIONS[configuration][0]
    if k == 2:
        return 0  # every configuration lies in a line segment
    if configuration != "side":
        if k == 1:
            return 0  # corner intersections are at most a point
        if target == "F":
            return p ** (ell * n)
        return (1 - p**n) ** ell
    if target == "F":
        inner = ev_vk_intersect_1d(ModelParams(params.M, p, d=1), n - 1, k)
        return p * p * inner / M**k if k else p * p * inner
    if k == 1:
        return (1 - p**n) ** 2 / M
    return _sum(
        [
            2
            * (M * p) ** n
            * ((1 - p) / (M - p) + (M - 1) / (M - p) * (p / M) ** n),
            1 - 4 * p**n + 2 * p ** (2 * n),
            -((M * p * p) ** n)
            * (
                (1 - p * p) / (M - p * p)
                + (M - 1) / (M - p * p) * (p * p / M) ** n
            ),
        ]
    )


def vbar_2d_truncated(params: ModelParams, m: int, k: int, target: str = "F") -> Number:
    """Level-m truncation of the intersection series for r^{m(D-k)} E V_k.

    This is the direct series route to the finite-level values: it agrees
    exactly with vbar0_2d_finite / vbarc0_2d_finite and the k = 1
    variants, and is kept as an independent code path for cross-checks.
    """
    # the complement series rescales at 2 - k; an invalid k is left to _gate
    j = 2 - k if target == "C" and k in range(3) else 2
    M, p = _gate(params, "vbar_2d_truncated", 2, n=m, k=k, target=target, above=j)
    x = M**k / (M * M * p)  # r^{D-k} per level
    q = UNIT_CUBE_VK[(2, k)]
    if target == "F":
        acc = q * x**0  # the n = 0 term, in the arithmetic of x
    else:
        acc = q * (1 - p) / p * _geom(x, m)
    per_level = [
        x**n
        * _sum(
            sign * count(M) * intersection_series_terms_2d(params, name, n, k, target)
            for name, (ell, count, sign) in INTERSECTION_CONFIGURATIONS.items()
        )
        for n in range(1, m + 1)
    ]
    return acc + _sum(per_level)


# ---------------------------------------------------------------------------
# Unified finite-level expectations and series containers
# ---------------------------------------------------------------------------

def ev(params: ModelParams, n: int, k: int, target: str = "F") -> Number:
    """Unrescaled expectation E V_k at level n for either target, d in {1, 2}.

    Valid on all of p in [0, 1]; these are polynomial identities in p.
    """
    M, p = _gate(params, "ev", params.d, n=n, k=k, target=target)
    if params.d == 1:
        if target == "F":
            return ev_vk_1d(params, n, k)
        return ev_vk_complement_1d(params, n, k)
    if k == 2:
        return p**n if target == "F" else 1 - p**n
    if target == "F":
        return _ev_v0_2d(M, p, n) if k == 0 else _ev_v1_2d(M, p, n)
    return _ev_vc0_2d(M, p, n) if k == 0 else _ev_vc1_2d(M, p, n)


def rescale_factor(params: ModelParams, n: int, k: int) -> float:
    """r^{n(D-k)} = (M^k / (M^d p))^n in float arithmetic, the factor taking
    E V_k at level n to its rescaled value."""
    _gate(params, "rescale_factor", params.d, n=n, k=k, above=params.d)
    return (float(params.M**k) / float(params.M**params.d * params.p)) ** n


@dataclass(frozen=True)
class RescaledSeries:
    """Finite-level rescaled expectations r^{n(D-k)} E V_k and their limit."""

    target: str
    k: int
    terms: tuple
    limit: float | None


def rescaled_series(
    params: ModelParams, k: int, target: str = "F", n_max: int = 20
) -> RescaledSeries:
    """Sequence of rescaled expectations for n = 0..n_max plus the limit.

    The limit field is None for the complement area, which admits no
    finite rescaled limit. The domain is that of the limit: M p > 1 for the
    planar k = 1 complement, M^d p > 1 otherwise.
    """
    above = 1 if (params.d, k, target) == (2, 1, "C") else params.d
    _gate(params, "rescaled_series", params.d, k=k, above=above)
    terms = tuple(
        float(ev(params, n, k, target)) * rescale_factor(params, n, k) for n in range(n_max + 1)
    )
    limit: float | None
    if params.d == 1:
        limit = float(limit_vk_1d(params, k) if target == "F" else limit_vck_1d(params, k))
    elif target == "F":
        limit = float(limit_vk_2d(params, k))
    elif k == 2:
        limit = None
    else:
        limit = float(limit_vck_2d(params, k))
    return RescaledSeries(target, k, terms, limit)


# ---------------------------------------------------------------------------
# Large-M limit curves
# ---------------------------------------------------------------------------

def large_m_v(p: Number) -> Number:
    """Pointwise large-M limit of the k = 0 construction-set curve,
    1 - 4p + 4p^2 - p^3; its unique zero in (0, 1) is (3 - sqrt 5)/2."""
    return 1 - 4 * p + 4 * p * p - p**3


def large_m_vc(p: Number) -> Number:
    """Pointwise large-M limit of the negated k = 0 complement curve,
    p^3 - 2p + 1 = -(1-p)(p^2+p-1); its zero in (0, 1) is (sqrt 5 - 1)/2."""
    return p**3 - 2 * p + 1
