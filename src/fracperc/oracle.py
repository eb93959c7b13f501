"""Exhaustive-enumeration ground truth for tiny instances.

Expectations are computed by summing ``functional(realization) * weight``
over every keep/drop assignment of the subdivision tree, with weight
``p^kept (1-p)^dropped`` over the decided nodes; subtrees of dropped nodes
are never expanded (their outcome weights marginalize to one exactly).
All arithmetic is exact and every returned expectation is a
:class:`fractions.Fraction`; pass ``p`` as a Fraction.

The enumeration is organized for reuse: the tree structure (surviving-leaf
patterns with their decision-exponent multiplicities, and the geometric
scores of each pattern) does not depend on ``p`` and is cached; evaluating
an expectation for a concrete ``p = x/y`` then reduces to exact integer
polynomial evaluation over a common denominator ``y^nodes``.

One-dimensional realizations are sorted lists of closed components with
rational endpoints (:class:`IntervalSet1D`), which score single patterns.
Intersections of two copies are scored for all pattern pairs at once from
integer leaf masks: grid point k lies in the closed set exactly when bit k
of ``mask | mask << 1`` is set, so the shared cells, their runs and the
isolated touching points of each pair are popcounts of bitwise
expressions. Two-dimensional patterns are integer keys built as arrays
from the per-cell options of the level below; one geometry window pass
over the stack of all patterns counts each pattern and its complement,
and the scores are summed per (kept, dropped) exponent pair before any
big-integer weight is formed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from . import geometry

#: Feasible two-dimensional instances (subdivision count, level).
FEASIBLE_2D = ((2, 1), (2, 2), (3, 1))

#: Node budget for one-dimensional trees: sum of M^k for k = 1..n.
MAX_NODES_1D = 21

#: Budget on pattern pairs of one 1-d intersection table ("KK" or "DD"):
#: three int64 arrays of this many entries are cached per instance.
MAX_PATTERN_PAIRS_1D = 2**20

FUNCTIONALS_1D = ("V0", "V1", "N", "contains0", "contains1")
TARGETS_1D = ("K", "D", "KK", "DD")
FUNCTIONALS_2D = ("V0", "V1", "V2")
TARGETS_2D = ("F", "C")


class InstanceTooLargeError(ValueError):
    """The requested instance lies outside the enumeration envelope."""


def _tree_nodes(M: int, n: int) -> int:
    return sum(M**k for k in range(1, n + 1))


def _weight_numerators(exponents, p: Fraction, emax: int):
    """Exact weights scaled by den(p)^emax: one integer per pattern.

    ``exponents[i]`` lists (kept, dropped, count) triples of pattern i.
    """
    x, y = p.numerator, p.denominator
    xq = y - x
    nums = []
    for triples in exponents:
        total = 0
        for a, b, c in triples:
            total += c * x**a * xq**b * y ** (emax - a - b)
        nums.append(total)
    return nums


# ---------------------------------------------------------------------------
# One dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSet1D:
    """Disjoint sorted closed components of [0, 1] with rational endpoints."""

    components: tuple

    @property
    def v0(self) -> int:
        return len(self.components)

    @property
    def v1(self) -> Fraction:
        return sum((b - a for a, b in self.components), Fraction(0))

    @property
    def isolated_count(self) -> int:
        return sum(1 for a, b in self.components if a == b)

    def contains(self, x) -> bool:
        return any(a <= x <= b for a, b in self.components)

    def intersect(self, other: "IntervalSet1D") -> "IntervalSet1D":
        out = []
        i = j = 0
        a_list, b_list = self.components, other.components
        while i < len(a_list) and j < len(b_list):
            lo = max(a_list[i][0], b_list[j][0])
            hi = min(a_list[i][1], b_list[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a_list[i][1] < b_list[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet1D(tuple(out))


def interval_set_from_leaves(mask: int, M: int, n: int) -> IntervalSet1D:
    """Merge the surviving level-n cells encoded in ``mask`` into components."""
    L = M**n
    s = Fraction(1, L)
    comps = []
    i = 0
    while i < L:
        if (mask >> i) & 1:
            j = i
            while j + 1 < L and (mask >> (j + 1)) & 1:
                j += 1
            comps.append((i * s, (j + 1) * s))
            i = j + 1
        else:
            i += 1
    return IntervalSet1D(tuple(comps))


@lru_cache(maxsize=None)
def _leaf_structure(M: int, n: int) -> tuple:
    """p-independent enumeration of K_n: ((mask, ((kept, dropped, count), ...)), ...)."""
    if _tree_nodes(M, n) > MAX_NODES_1D:
        raise InstanceTooLargeError(
            f"1d tree with {_tree_nodes(M, n)} nodes exceeds the budget of {MAX_NODES_1D}"
        )
    if n == 0:
        return ((1, ((0, 0, 1),)),)
    prev = _leaf_structure(M, n - 1)
    prev_bits = M ** (n - 1)
    options = [(0, (0, 1, 1))]  # dropped child: empty pattern, one dropped node
    for mask, triples in prev:
        for a, b, c in triples:
            options.append((mask, (a + 1, b, c)))
    acc: dict[int, dict[tuple, int]] = {}
    for combo in product(options, repeat=M):
        mask = 0
        a = b = 0
        c = 1
        for j, (mj, (aj, bj, cj)) in enumerate(combo):
            mask |= mj << (j * prev_bits)
            a += aj
            b += bj
            c *= cj
        bucket = acc.setdefault(mask, {})
        bucket[(a, b)] = bucket.get((a, b), 0) + c
    return tuple(
        sorted((mask, tuple((a, b, c) for (a, b), c in sorted(e.items())))
               for mask, e in acc.items())
    )


def leaf_distribution(M: int, p, n: int) -> tuple:
    """Exact surviving-leaf distribution of K_n as ((mask, Fraction), ...)."""
    p = Fraction(p)
    emax = _tree_nodes(M, n)
    structure = _leaf_structure(M, n)
    nums = _weight_numerators([e for _, e in structure], p, emax)
    den = p.denominator**emax
    return tuple((mask, Fraction(num, den)) for (mask, _), num in zip(structure, nums))


def _score_set(iv: IntervalSet1D, functional: str) -> Fraction:
    if functional == "V0":
        return Fraction(iv.v0)
    if functional == "V1":
        return iv.v1
    if functional == "N":
        return Fraction(iv.isolated_count)
    if functional == "contains0":
        return Fraction(1 if iv.contains(Fraction(0)) else 0)
    if functional == "contains1":
        return Fraction(1 if iv.contains(Fraction(1)) else 0)
    raise ValueError(f"unknown functional {functional!r}")


@lru_cache(maxsize=None)
def _pair_scores_1d(M: int, n: int, family: str) -> tuple:
    """Score matrices of pairwise intersections for "KK" or "DD".

    Returns (v0, v1_scaled, isolated) as read-only int64 arrays over pattern
    pairs, with v1 scaled by M^n to stay integral. Raises
    :class:`InstanceTooLargeError` when the tables would exceed
    ``MAX_PATTERN_PAIRS_1D`` entries.
    """
    structure = _leaf_structure(M, n)
    size = len(structure)
    if size * size > MAX_PATTERN_PAIRS_1D:
        raise InstanceTooLargeError(
            f"1d {family} table of {size} x {size} pattern pairs exceeds the budget of "
            f"{MAX_PATTERN_PAIRS_1D}"
        )
    # unsigned masks over the M^n + 1 grid points, at most 22 under MAX_NODES_1D
    masks = np.array([mask for mask, _ in structure], dtype=np.uint32)
    if family != "KK":
        masks ^= (1 << M**n) - 1
    a, b = masks[:, None], masks[None, :]
    both = a & b  # cells in both sets
    cover = both | both << 1  # grid points on a shared cell
    isolated = (a | a << 1) & (b | b << 1) & ~cover  # grid points in both sets, on no shared cell
    runs = both & ~(both << 1)  # first cell of each run of shared cells
    iso = np.bitwise_count(isolated).astype(np.int64)
    v0 = np.bitwise_count(runs) + iso
    v1 = np.bitwise_count(both).astype(np.int64)
    for table in (v0, v1, iso):
        table.flags.writeable = False
    return v0, v1, iso


def _quadratic_form(weights: list, matrix: np.ndarray) -> int:
    """Exact sum_{ij} w_i w_j m_ij for integer weights, safe fallback included."""
    size = len(weights)
    wmax = max(abs(w) for w in weights)
    mmax = int(np.abs(matrix).max(initial=0))
    if wmax and wmax * mmax * size < 2**62:
        warr = np.asarray(weights, dtype=np.int64)
        inner = matrix @ warr
        return sum(int(w) * int(v) for w, v in zip(weights, inner.tolist()))
    return sum(
        int(weights[i]) * int(weights[j]) * int(matrix[i, j])
        for i in range(size)
        for j in range(size)
    )


def enumerate_1d(M: int, p, n: int, functional: str = "V0", target: str = "K") -> Fraction:
    """Exact expectation of a functional of K_n, D_n, or the intersection
    of two independent copies (targets "KK" and "DD")."""
    if functional not in FUNCTIONALS_1D:
        raise ValueError(f"functional must be one of {FUNCTIONALS_1D}, got {functional!r}")
    if target not in TARGETS_1D:
        raise ValueError(f"target must be one of {TARGETS_1D}, got {target!r}")
    p = Fraction(p)
    if target in ("KK", "DD"):
        if functional in ("contains0", "contains1"):
            # membership of an endpoint in the intersection factorizes over copies
            single = enumerate_1d(M, p, n, functional, target[0])
            return single * single
        v0, v1, iso = _pair_scores_1d(M, n, target)  # refuses oversized tables first
        matrix = {"V0": v0, "V1": v1, "N": iso}[functional]
    structure = _leaf_structure(M, n)
    emax = _tree_nodes(M, n)
    nums = _weight_numerators([e for _, e in structure], p, emax)
    den = p.denominator**emax
    if target in ("K", "D"):
        full = (1 << (M**n)) - 1
        total = Fraction(0)
        for (mask, _), num in zip(structure, nums):
            if target == "D":
                mask ^= full
            score = _score_set(interval_set_from_leaves(mask, M, n), functional)
            total += Fraction(num, den) * score
        return total
    total = _quadratic_form(nums, matrix)
    value = Fraction(total, den * den)
    if functional == "V1":
        value /= M**n
    return value


# ---------------------------------------------------------------------------
# Two dimensions
# ---------------------------------------------------------------------------

def _check_2d_budget(M: int, n: int) -> None:
    if (M, n) not in FEASIBLE_2D:
        raise InstanceTooLargeError(
            f"(M, n) = ({M}, {n}) outside the 2d enumeration envelope {FEASIBLE_2D}"
        )


class _Blocks(NamedTuple):
    """Occupancy patterns of one 2-d instance with their decision exponents.

    ``keys`` holds every M^n x M^n pattern once, in increasing order, as an
    integer whose bits read the cells row-major from the most significant
    bit. Row r of the other arrays says that ``count[r]`` keep/drop
    assignments with ``kept[r]`` kept and ``dropped[r]`` dropped nodes
    produce the pattern ``keys[pattern[r]]``; rows are sorted by
    (pattern, kept, dropped).
    """

    keys: np.ndarray
    pattern: np.ndarray
    kept: np.ndarray
    dropped: np.ndarray
    count: np.ndarray


@lru_cache(maxsize=None)
def _block_structure(M: int, n: int) -> _Blocks:
    """p-independent enumeration of the M^n x M^n occupancy patterns as
    read-only int64 arrays (see :class:`_Blocks`)."""
    cells = M * M
    if n == 1:
        keys = np.arange(2**cells, dtype=np.int64)
        kept = np.bitwise_count(keys).astype(np.int64)
        blocks = _Blocks(keys, keys, kept, cells - kept, np.ones_like(keys))
    else:
        prev = _block_structure(M, n - 1)
        sub, side = M ** (n - 1), M**n
        # options of one cell: dropped, or kept with one row of the level below
        opt_keys = np.concatenate(([0], prev.keys[prev.pattern]))
        opt_kept = np.concatenate(([0], prev.kept + 1))
        opt_dropped = np.concatenate(([1], prev.dropped))
        opt_count = np.concatenate(([1], prev.count))
        sub_bits = opt_keys[:, None] >> np.arange(sub * sub - 1, -1, -1) & 1
        i, j = np.divmod(np.arange(sub * sub), sub)
        combo = np.indices((len(opt_keys),) * cells).reshape(cells, -1)
        key = np.zeros(combo.shape[1], dtype=np.int64)
        kept = np.zeros_like(key)
        dropped = np.zeros_like(key)
        count = np.ones_like(key)
        for cell, opt in enumerate(combo):
            r, c = divmod(cell, M)
            pos = (r * sub + i) * side + c * sub + j  # row-major index in the pattern
            key += (sub_bits @ (1 << (side * side - 1 - pos)))[opt]
            kept += opt_kept[opt]
            dropped += opt_dropped[opt]
            count *= opt_count[opt]
        base = _nodes_2d(M, n) + 1  # kept and dropped lie in 0..nodes
        code, inverse = np.unique((key * base + kept) * base + dropped, return_inverse=True)
        total = np.zeros(len(code), dtype=np.int64)
        np.add.at(total, inverse, count)
        keys, pattern = np.unique(code // (base * base), return_inverse=True)
        blocks = _Blocks(keys, pattern, code // base % base, code % base, total)
    for array in blocks:
        array.flags.writeable = False
    return blocks


@lru_cache(maxsize=None)
def _pattern_scores_2d(M: int, n: int) -> np.ndarray:
    """Read-only (patterns, 2, 4) window counters in :func:`_block_structure`
    key order: for the pattern (F), then its complement (C), (faces,
    edges_any, edges_shared, vertices_any), from one geometry kernel call.
    """
    side = M**n
    keys = _block_structure(M, n).keys
    occ = np.empty((len(keys), side * side), dtype=bool)
    for cell in range(side * side):  # column by column keeps the temporaries small
        occ[:, cell] = keys >> (side * side - 1 - cell) & 1
    counters = geometry._window_counters(occ.reshape(-1, side, side))
    counters.flags.writeable = False
    return counters


def _nodes_2d(M: int, n: int) -> int:
    return sum((M * M) ** k for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _exponent_sums_2d(M: int, n: int) -> tuple:
    """p-independent half of :func:`_table_2d`: the distinct (kept, dropped)
    exponent pairs, and per pair the exact int64 sums of count * score over
    its rows, shaped (pairs, target, functional) with the integer scores
    V0, V1 * M^n and V2 * M^2n of F and C.
    """
    blocks = _block_structure(M, n)
    faces, edges_any, edges_shared, vertices = np.moveaxis(_pattern_scores_2d(M, n), -1, 0)
    scores = np.stack((vertices - edges_any + faces, 2 * faces - edges_shared, faces), axis=-1)
    base = _nodes_2d(M, n) + 1  # kept and dropped lie in 0..nodes
    codes, inverse = np.unique(blocks.kept * base + blocks.dropped, return_inverse=True)
    sums = np.zeros((len(codes),) + scores.shape[1:], dtype=np.int64)
    np.add.at(sums, inverse, blocks.count[:, None, None] * scores[blocks.pattern])
    sums.flags.writeable = False
    return tuple(zip((codes // base).tolist(), (codes % base).tolist())), sums


@lru_cache(maxsize=None)
def _table_2d(M: int, p: Fraction, n: int) -> dict:
    """All six exact expectations {(functional, target): Fraction}; only the
    few exponent pairs of :func:`_exponent_sums_2d` meet big-integer weights."""
    exponents, sums = _exponent_sums_2d(M, n)
    emax = _nodes_2d(M, n)
    weights = _weight_numerators([((a, b, 1),) for a, b in exponents], p, emax)
    den = p.denominator**emax
    s1 = Fraction(1, M**n)
    table = {}
    for t, target in enumerate(TARGETS_2D):
        for k in range(len(FUNCTIONALS_2D)):
            total = sum(map(operator.mul, weights, sums[:, t, k].tolist()))
            table[(f"V{k}", target)] = Fraction(total, den) * s1**k
    return table


def enumerate_2d(M: int, p, n: int, functional: str = "V0", target: str = "F") -> Fraction:
    """Exact expectation E V_k at level n for the construction set ("F")
    or its closed complement ("C"); feasible instances only."""
    _check_2d_budget(M, n)
    if functional not in FUNCTIONALS_2D:
        raise ValueError(f"functional must be V0, V1 or V2, got {functional!r}")
    if target not in TARGETS_2D:
        raise ValueError(f"target must be 'F' or 'C', got {target!r}")
    return _table_2d(M, Fraction(p), n)[(functional, target)]


# ---------------------------------------------------------------------------
# Per-configuration oracles for the first-level intersection terms
# ---------------------------------------------------------------------------

def enumerate_corner_intersection_2d(M: int, p, n: int, ell: int, k: int, target: str = "F") -> Fraction:
    """Exact E V_k of ell construction sets (or complements) meeting at a
    first-level corner, by enumerating the ell survival chains of length n.

    The intersection is the corner point itself; it belongs to copy j
    exactly when every node of the chain of cells containing the corner
    survives ("C": when at least one node died).
    """
    p = Fraction(p)
    if k >= 1:
        return Fraction(0)
    if ell * n > 24:
        raise InstanceTooLargeError("corner chains too deep to enumerate")
    total = Fraction(0)
    for bits in product((0, 1), repeat=ell * n):
        w = Fraction(1)
        for b in bits:
            w *= p if b else 1 - p
        alive = [all(bits[j * n : (j + 1) * n]) for j in range(ell)]
        present = all(alive) if target == "F" else not any(alive)
        total += w * (1 if present else 0)
    return total


def enumerate_side_intersection_2d(M: int, p, n: int, k: int, target: str = "F") -> Fraction:
    """Exact E V_k of a side pair of first-level cells at level n.

    The two neighbouring copies restrict to their shared segment as two
    independent one-dimensional trees at level n-1, each preceded by one
    extra survival decision ("F": empty on failure; "C": the whole segment
    on failure). V_k scales by M^-k under the embedding of the segment.
    """
    p = Fraction(p)
    if n < 1:
        raise ValueError("side intersections exist for n >= 1")
    dist = leaf_distribution(M, p, n - 1)
    full = (1 << (M ** (n - 1))) - 1
    whole = IntervalSet1D(((Fraction(0), Fraction(1)),))
    empty = IntervalSet1D(())
    hat = []
    for mask, w in dist:
        if target == "C":
            mask ^= full
        hat.append((p * w, interval_set_from_leaves(mask, M, n - 1)))
    hat.append((1 - p, empty if target == "F" else whole))
    total = Fraction(0)
    for w1, s1 in hat:
        for w2, s2 in hat:
            iv = s1.intersect(s2)
            value = Fraction(iv.v0) if k == 0 else iv.v1
            total += w1 * w2 * value
    return total / M**k
