"""Exhaustive-enumeration ground truth for tiny instances.

Expectations are computed by summing ``functional(realization) * weight``
over every keep/drop assignment of the subdivision tree, with weight
``p^kept (1-p)^dropped`` over the decided nodes; subtrees of dropped nodes
are never expanded (their outcome weights marginalize to one exactly).
All arithmetic is exact and every returned expectation is a
:class:`fractions.Fraction`; pass ``p`` as a Fraction.

The enumeration is organized for reuse: the tree structure (occupancy
patterns with their decision-exponent multiplicities, and the geometric
scores of each pattern) does not depend on ``p`` and is cached; evaluating
an expectation for a concrete ``p = x/y`` then reduces to exact integer
polynomial evaluation over a common denominator ``y^nodes``.

Both dimensions share one engine. A level-n pattern is an integer key
whose bits read its M^n (d = 1) or M^n x M^n (d = 2) cells row-major from
the most significant bit. One builder makes the patterns of level n as
arrays from the per-cell options of level n - 1 (a dropped cell, or a kept
cell holding any pattern of the level below). One geometry window pass
over the stack of all patterns, a 1-d pattern being a 1 x M^n row, counts
each pattern and its complement, and the scores are summed per (kept,
dropped) exponent pair before any big-integer weight is formed.

Intersections of two independent 1-d copies are scored for all pattern
pairs at once from integer masks: grid point k lies in the closed set
exactly when bit k of ``mask | mask << 1`` is set, so the shared cells,
their runs and the isolated touching points of each pair are popcounts
of bitwise expressions (every score is mirror-symmetric, so the bit order
of the keys does not matter). They too are summed per pair of exponent
classes before any big-integer weight is formed, and a corner point of
first-level cells is the end of its chain of nested cells, the 1-d tree
with M = 1: every expectation is one weighting of class sums.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import geometry

#: Feasible two-dimensional instances (subdivision count, level).
FEASIBLE_2D = ((2, 1), (2, 2), (3, 1))

#: Node budget for one-dimensional trees: sum of M^k for k = 1..n.
MAX_NODES_1D = 21

#: Budget on pattern pairs of one 1-d intersection table ("KK" or "DD"):
#: three int64 arrays of this many entries are built per instance.
MAX_PATTERN_PAIRS_1D = 2**20

FUNCTIONALS_1D = ("V0", "V1", "N", "contains0", "contains1")
TARGETS_1D = ("K", "D", "KK", "DD")
FUNCTIONALS_2D = ("V0", "V1", "V2")
TARGETS_2D = ("F", "C")

#: Functionals and single-set targets of the pattern tables, by dimension.
_FUNCTIONALS = {1: FUNCTIONALS_1D, 2: FUNCTIONALS_2D}
_TARGETS = {1: TARGETS_1D[:2], 2: TARGETS_2D}


class InstanceTooLargeError(ValueError):
    """The requested instance lies outside the enumeration envelope."""


def _tree_nodes(cells: int, n: int) -> int:
    """Decision nodes of levels 1..n of a tree with ``cells`` children per node."""
    return sum(cells**k for k in range(1, n + 1))


def _weight_numerators(exponents, p: Fraction, emax: int) -> list:
    """Exact weights p^kept (1-p)^dropped scaled by den(p)^emax, one integer
    per (kept, dropped) pair of ``exponents``."""
    x, y = p.numerator, p.denominator
    return [x**a * (y - x) ** b * y ** (emax - a - b) for a, b in exponents]


# ---------------------------------------------------------------------------
# Pattern tables (both dimensions)
# ---------------------------------------------------------------------------

class _Blocks(NamedTuple):
    """Occupancy patterns of one instance with their decision exponents.

    ``keys`` holds every pattern once, in increasing order, as an integer
    whose bits read the cells row-major from the most significant bit (a
    1-d pattern is one row). Row r of the other arrays says that
    ``count[r]`` keep/drop assignments with ``kept[r]`` kept and
    ``dropped[r]`` dropped nodes produce the pattern ``keys[pattern[r]]``;
    rows are sorted by (pattern, kept, dropped).
    """

    keys: np.ndarray
    pattern: np.ndarray
    kept: np.ndarray
    dropped: np.ndarray
    count: np.ndarray


@lru_cache(maxsize=None)
def _block_structure(M: int, n: int, d: int) -> _Blocks:
    """p-independent enumeration of the level-n occupancy patterns in
    dimension d as read-only int64 arrays (see :class:`_Blocks`)."""
    if n == 0:
        one, zero = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        blocks = _Blocks(one, zero, zero, zero, one)  # the single full cell
    else:
        prev = _block_structure(M, n - 1, d)
        cells, sub = M**d, M ** (n - 1)
        size = (M * sub) ** d
        # options of one cell: dropped, or kept with one row of the level below
        opt_keys = np.concatenate(([0], prev.keys[prev.pattern]))
        opt_kept = np.concatenate(([0], prev.kept + 1))
        opt_dropped = np.concatenate(([1], prev.dropped))
        opt_count = np.concatenate(([1], prev.count))
        sub_bits = opt_keys[:, None] >> np.arange(sub**d - 1, -1, -1) & 1
        # pos[c, k]: row-major index in the pattern of sub-cell k of child cell c
        evens, odds = tuple(range(0, 2 * d, 2)), tuple(range(1, 2 * d, 2))
        pos = np.arange(size).reshape((M, sub) * d).transpose(evens + odds).reshape(cells, sub**d)
        cell_keys = sub_bits @ (1 << (size - 1 - pos)).T  # (option, child cell) -> key bits
        rest = np.arange(len(opt_keys) ** cells)  # one combination of options per entry
        key = np.zeros_like(rest)
        kept = np.zeros_like(rest)
        dropped = np.zeros_like(rest)
        count = np.ones_like(rest)
        for cell in range(cells):
            rest, opt = np.divmod(rest, len(opt_keys))
            key += cell_keys[opt, cell]
            kept += opt_kept[opt]
            dropped += opt_dropped[opt]
            count *= opt_count[opt]
        base = _tree_nodes(cells, n) + 1  # kept and dropped lie in 0..nodes
        code, inverse = np.unique((key * base + kept) * base + dropped, return_inverse=True)
        total = np.zeros(len(code), dtype=np.int64)
        np.add.at(total, inverse, count)
        keys, pattern = np.unique(code // (base * base), return_inverse=True)
        blocks = _Blocks(keys, pattern, code // base % base, code % base, total)
    for array in blocks:
        array.flags.writeable = False
    return blocks


@lru_cache(maxsize=None)
def _pattern_scores(M: int, n: int, d: int) -> np.ndarray:
    """Read-only (patterns, 2, 6) int64 counters in :func:`_block_structure`
    key order: for the pattern, then its complement, the window counters
    (faces, edges_any, edges_shared, vertices_any) from one geometry kernel
    call, then the occupancy of its first and of its last cell.
    """
    side = M**n
    size = side**d
    keys = _block_structure(M, n, d).keys
    occ = np.empty((len(keys), size), dtype=bool)
    for cell in range(size):  # column by column keeps the temporaries small
        occ[:, cell] = keys >> (size - 1 - cell) & 1
    counters = geometry._window_counters(occ.reshape(len(keys), -1, side))
    ends = occ[:, [0, -1]]
    scores = np.concatenate((counters, np.stack((ends, ~ends), axis=1)), axis=-1)
    scores.flags.writeable = False
    return scores


@lru_cache(maxsize=None)
def _classes(M: int, n: int, d: int) -> tuple:
    """The distinct (kept, dropped) exponent pairs of :func:`_block_structure`
    in increasing order, and the read-only index into them of each row."""
    blocks = _block_structure(M, n, d)
    base = _tree_nodes(M**d, n) + 1  # kept and dropped lie in 0..nodes
    codes, inverse = np.unique(blocks.kept * base + blocks.dropped, return_inverse=True)
    inverse.flags.writeable = False
    return tuple(zip((codes // base).tolist(), (codes % base).tolist())), inverse


@lru_cache(maxsize=None)
def _exponent_sums(M: int, n: int, d: int) -> np.ndarray:
    """p-independent half of :func:`_table`: per exponent class of
    :func:`_classes` the exact int64 sums of count * score over its rows,
    shaped (classes, target, functional) with the integer scores V0,
    V1 * M^n and V2 * M^2n of F and C (d = 2), or V0, V1 * M^n, N and the
    two endpoint memberships of K and D (d = 1).
    """
    blocks = _block_structure(M, n, d)
    exponents, inverse = _classes(M, n, d)
    counters, ends = np.split(_pattern_scores(M, n, d), [4], axis=-1)
    scores = geometry.vk_scores(counters, d)
    if d == 1:  # a union of whole cells has no isolated points
        scores = np.concatenate((scores, np.zeros_like(ends[..., :1]), ends), axis=-1)
    sums = np.zeros((len(exponents),) + scores.shape[1:], dtype=np.int64)
    np.add.at(sums, inverse, blocks.count[:, None, None] * scores[blocks.pattern])
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=None)
def _table(M: int, p: Fraction, n: int, d: int) -> dict:
    """All exact single-set expectations {(functional, target): Fraction};
    only the few exponent classes of :func:`_classes` meet big-integer
    weights."""
    sums = _exponent_sums(M, n, d)
    emax = _tree_nodes(M**d, n)
    weights = _weight_numerators(_classes(M, n, d)[0], p, emax)
    den = p.denominator**emax
    table = {}
    for t, target in enumerate(_TARGETS[d]):
        for f, functional in enumerate(_FUNCTIONALS[d]):
            total = sum(map(operator.mul, weights, sums[:, t, f].tolist()))
            k = int(functional[1]) if functional[0] == "V" else 0  # V_k scales by M^-nk
            table[(functional, target)] = Fraction(total, den * M ** (n * k))
    return table


# ---------------------------------------------------------------------------
# One dimension
# ---------------------------------------------------------------------------

def _check_1d(M: int, n) -> int:
    """The level as an int, once M is a positive and n a non-negative
    integer within the node budget."""
    if not isinstance(M, numbers.Integral) or M < 1:
        raise ValueError(f"subdivision count M must be a positive integer, got {M!r}")
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"level n must be a non-negative integer, got {n!r}")
    n = int(n)
    if _tree_nodes(M, n) > MAX_NODES_1D:
        raise InstanceTooLargeError(
            f"1d tree with {_tree_nodes(M, n)} nodes exceeds the budget of {MAX_NODES_1D}"
        )
    return n


def leaf_distribution(M: int, p, n: int) -> tuple:
    """Exact surviving-leaf distribution of K_n as ((key, Fraction), ...) in
    increasing key order; bit M^n - 1 - i of a key says whether leaf i survives."""
    n = _check_1d(M, n)
    p = Fraction(p)
    nodes = _tree_nodes(M, n)
    blocks = _block_structure(M, n, 1)
    exponents, inverse = _classes(M, n, 1)
    weights = _weight_numerators(exponents, p, nodes)
    nums = [0] * len(blocks.keys)
    for i, c, w in zip(blocks.pattern.tolist(), blocks.count.tolist(), inverse.tolist()):
        nums[i] += c * weights[w]
    den = p.denominator**nodes
    return tuple((key, Fraction(num, den)) for key, num in zip(blocks.keys.tolist(), nums))


def _pair_scores_1d(M: int, n: int, family: str) -> np.ndarray:
    """Score matrices of pairwise intersections for "KK" or "DD".

    Returns the stacked (v0, v1_scaled, isolated) as one (3, patterns,
    patterns) int64 array over pattern pairs in key order, with v1 scaled
    by M^n to stay integral. Raises :class:`InstanceTooLargeError` when the
    tables would exceed ``MAX_PATTERN_PAIRS_1D`` entries.
    """
    keys = _block_structure(M, _check_1d(M, n), 1).keys
    size = len(keys)
    if size * size > MAX_PATTERN_PAIRS_1D:
        raise InstanceTooLargeError(
            f"1d {family} table of {size} x {size} pattern pairs exceeds the budget of "
            f"{MAX_PATTERN_PAIRS_1D}"
        )
    # unsigned masks over the M^n + 1 grid points, at most 22 under MAX_NODES_1D
    masks = keys.astype(np.uint32)
    if family != "KK":
        masks ^= (1 << M**n) - 1
    a, b = masks[:, None], masks[None, :]
    both = a & b  # cells in both sets
    cover = both | both << 1  # grid points on a shared cell
    isolated = (a | a << 1) & (b | b << 1) & ~cover  # grid points in both sets, on no shared cell
    runs = both & ~(both << 1)  # first cell of each run of shared cells
    iso = np.bitwise_count(isolated).astype(np.int64)
    return np.stack((np.bitwise_count(runs) + iso, np.bitwise_count(both), iso))


@lru_cache(maxsize=None)
def _pair_sums(M: int, n: int, family: str) -> np.ndarray:
    """Read-only (3, classes, classes) int64 sums of count * count * score
    over the row pairs of each two exponent classes of :func:`_classes`;
    counts total at most 2^nodes and scores M^n + 1, so entries stay < 2^47."""
    tables = _pair_scores_1d(M, n, family)  # refuses oversized tables first
    blocks = _block_structure(M, n, 1)
    exponents, inverse = _classes(M, n, 1)
    counts = np.zeros((len(exponents), len(blocks.keys)), dtype=np.int64)
    np.add.at(counts, (inverse, blocks.pattern), blocks.count)
    sums = counts @ tables @ counts.T
    sums.flags.writeable = False
    return sums


def enumerate_1d(M: int, p, n: int, functional: str = "V0", target: str = "K") -> Fraction:
    """Exact expectation of a functional of K_n, D_n, or the intersection
    of two independent copies (targets "KK" and "DD")."""
    if functional not in FUNCTIONALS_1D:
        raise ValueError(f"functional must be one of {FUNCTIONALS_1D}, got {functional!r}")
    if target not in TARGETS_1D:
        raise ValueError(f"target must be one of {TARGETS_1D}, got {target!r}")
    n = _check_1d(M, n)
    p = Fraction(p)
    if target in ("K", "D"):
        return _table(M, p, n, 1)[(functional, target)]
    if functional in ("contains0", "contains1"):
        # membership of an endpoint in the intersection factorizes over copies
        single = enumerate_1d(M, p, n, functional, target[0])
        return single * single
    sums = _pair_sums(M, n, target)[("V0", "V1", "N").index(functional)].tolist()
    nodes = _tree_nodes(M, n)
    weights = _weight_numerators(_classes(M, n, 1)[0], p, nodes)
    total = sum(w * sum(map(operator.mul, weights, row)) for w, row in zip(weights, sums))
    scale = M**n if functional == "V1" else 1
    return Fraction(total, p.denominator ** (2 * nodes) * scale)


# ---------------------------------------------------------------------------
# Two dimensions
# ---------------------------------------------------------------------------

def _check_2d_budget(M: int, n: int) -> None:
    if (M, n) not in FEASIBLE_2D:
        raise InstanceTooLargeError(
            f"(M, n) = ({M}, {n}) outside the 2d enumeration envelope {FEASIBLE_2D}"
        )


def enumerate_2d(M: int, p, n: int, functional: str = "V0", target: str = "F") -> Fraction:
    """Exact expectation E V_k at level n for the construction set ("F")
    or its closed complement ("C"); feasible instances only."""
    _check_2d_budget(M, n)
    if functional not in FUNCTIONALS_2D:
        raise ValueError(f"functional must be V0, V1 or V2, got {functional!r}")
    if target not in TARGETS_2D:
        raise ValueError(f"target must be 'F' or 'C', got {target!r}")
    return _table(M, Fraction(p), n, 2)[(functional, target)]


# ---------------------------------------------------------------------------
# Per-configuration oracles for the first-level intersection terms
# ---------------------------------------------------------------------------

def enumerate_corner_intersection_2d(M: int, p, n: int, ell: int, k: int, target: str = "F") -> Fraction:
    """Exact E V_k of ell construction sets (or complements) meeting at a
    first-level corner, from the survival chains of length n.

    The intersection is the corner point itself; it belongs to copy j
    exactly when every node of the chain of cells containing the corner
    survives ("C": when at least one node died): the first end of the 1-d
    tree with M = 1, once per independent copy.
    """
    if target not in TARGETS_2D:
        raise ValueError(f"target must be 'F' or 'C', got {target!r}")
    if k not in (0, 1, 2):
        raise ValueError(f"k must be 0, 1 or 2, got {k!r}")
    if not isinstance(ell, numbers.Integral) or ell < 0:
        raise ValueError(f"ell must be a non-negative integer, got {ell!r}")
    if k >= 1:
        return Fraction(0)
    return enumerate_1d(1, p, n, "contains0", "K" if target == "F" else "D") ** ell


def enumerate_side_intersection_2d(M: int, p, n: int, k: int, target: str = "F") -> Fraction:
    """Exact E V_k (k = 0, 1) of a side pair of first-level cells at level n.

    The two neighbouring copies restrict to their shared segment as two
    independent one-dimensional trees at level n-1, each preceded by one
    extra survival decision ("F": empty on failure; "C": the whole segment
    on failure), so the pair is a mixture over the two decisions. V_k
    scales by M^-k under the embedding of the segment.
    """
    p = Fraction(p)
    if n < 1:
        raise ValueError("side intersections exist for n >= 1")
    if target not in TARGETS_2D:
        raise ValueError(f"target must be 'F' or 'C', got {target!r}")
    functional = f"V{k}"
    if target == "F":
        value = p * p * enumerate_1d(M, p, n - 1, functional, "KK")
    else:
        # both alive: D meets D'; one alive: D meets the segment; none: the segment
        value = (p * p * enumerate_1d(M, p, n - 1, functional, "DD")
                 + 2 * p * (1 - p) * enumerate_1d(M, p, n - 1, functional, "D")
                 + (1 - p) ** 2)
    return value / M**k
