"""The enumeration oracle itself: forced values, bookkeeping, envelope."""

import hashlib
import itertools
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fracperc import analytic as A
from fracperc import geometry as G
from fracperc import oracle as O
from fracperc.oracle import InstanceTooLargeError

F = Fraction


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


def test_level1_component_count_forced():
    # four level-1 outcomes: empty, two half-intervals, full; direct count
    assert O.enumerate_1d(2, F(1, 2), 1, "V0", "K") == F(3, 4)


def test_complement_length_is_one_minus_pn():
    for p in (F(1, 5), F(1, 2), F(4, 5)):
        for n in (0, 1, 2):
            assert O.enumerate_1d(2, p, n, "V1", "D") == 1 - p**n


def test_full_survival_when_p_one():
    assert O.enumerate_1d(2, F(1), 2, "V1", "K") == 1
    assert O.enumerate_1d(2, F(1), 2, "V0", "K") == 1
    assert O.enumerate_1d(2, F(1), 2, "V0", "D") == 0


def test_leaf_distribution_normalizes():
    for M, n in ((2, 3), (3, 2), (4, 2)):
        dist = O.leaf_distribution(M, F(2, 7), n)
        assert sum(w for _, w in dist) == 1
        keys = [key for key, _ in dist]
        assert keys == sorted(set(keys))


def test_endpoint_membership():
    for p in (F(1, 5), F(1, 2)):
        for n in (1, 2):
            assert O.enumerate_1d(2, p, n, "contains0", "K") == p**n
            assert O.enumerate_1d(2, p, n, "contains1", "K") == p**n
            # in the intersection of two copies membership factorizes
            assert O.enumerate_1d(2, p, n, "contains0", "KK") == p ** (2 * n)


def test_isolated_points_never_exceed_components():
    v0, v1, iso = O._pair_scores_1d(2, 2, "KK")
    assert np.all(v0 >= iso)
    assert np.all(v1 >= 0)
    v0d, _, isod = O._pair_scores_1d(2, 2, "DD")
    assert np.all(v0d >= isod)


def _leaf_mask(key: int, L: int) -> int:
    """The mask of :func:`interval_set_from_leaves` (bit i is cell i) of a
    pattern key (cell i is bit L - 1 - i)."""
    return int(format(key, f"0{L}b")[::-1], 2)


def _interval_scores(mask_a: int, mask_b: int, M: int, n: int) -> tuple:
    iv = interval_set_from_leaves(mask_a, M, n).intersect(interval_set_from_leaves(mask_b, M, n))
    v1 = iv.v1 * M**n
    assert v1.denominator == 1
    return iv.v0, int(v1), iv.isolated_count


def test_pair_scores_match_interval_sets():
    # the mask popcounts against IntervalSet1D.intersect: every pair of the
    # small instances, a seeded sample of 2,000 pairs of the two largest
    rng = np.random.default_rng(11)
    for M, n in ((2, 0), (2, 1), (2, 2), (3, 1), (4, 1), (2, 3), (3, 2)):
        masks = [_leaf_mask(key, M**n) for key in O._block_structure(M, n, 1).keys.tolist()]
        full = (1 << M**n) - 1
        size = len(masks)
        if size <= 16:
            pairs = [(i, j) for i in range(size) for j in range(size)]
        else:
            pairs = rng.integers(0, size, (2000, 2)).tolist()
        for family in ("KK", "DD"):
            tables = O._pair_scores_1d(M, n, family)
            assert all(t.dtype == np.int64 and t.shape == (size, size) for t in tables)
            keys = masks if family == "KK" else [m ^ full for m in masks]
            for i, j in pairs:
                got = tuple(int(t[i, j]) for t in tables)
                assert got == _interval_scores(keys[i], keys[j], M, n), (M, n, family, i, j)


def test_pair_table_budget():
    # (4, 2) has 20 nodes and 65,536 patterns: K and D are enumerable, but a
    # pair table would hold 2^32 entries and is refused before it is built
    O._block_structure(4, 2, 1)
    tracemalloc.start()
    try:
        for family in ("KK", "DD"):
            with pytest.raises(InstanceTooLargeError):
                O.enumerate_1d(4, F(1, 2), 2, "V0", family)
            with pytest.raises(InstanceTooLargeError):
                O._pair_scores_1d(4, 2, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interval_set_machinery():
    a = IntervalSet1D(((F(0), F(1, 2)),))
    b = IntervalSet1D(((F(1, 2), F(1)),))
    meet = a.intersect(b)
    assert meet.v0 == 1 and meet.v1 == 0 and meet.isolated_count == 1
    assert interval_set_from_leaves(0b1011, 2, 2).components == (
        (F(0), F(1, 2)),
        (F(3, 4), F(1)),
    )


def test_1d_envelope_guard():
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_1d(3, F(1, 2), 3, "V0", "K")
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_1d(2, F(1, 2), 4, "V0", "K")
    # M = 4, n = 2 has exactly 20 nodes and is allowed
    assert O.enumerate_1d(4, F(1, 2), 2, "V1", "K") == F(1, 4)


def test_argument_validation():
    with pytest.raises(ValueError):
        O.enumerate_1d(2, F(1, 2), 1, "V9", "K")
    with pytest.raises(ValueError):
        O.enumerate_1d(2, F(1, 2), 1, "V0", "X")
    with pytest.raises(ValueError):
        O.enumerate_2d(2, F(1, 2), 1, "V0", "X")
    with pytest.raises(ValueError):
        O.enumerate_2d(2, F(1, 2), 1, "V3", "F")
    with pytest.raises(ValueError):
        O.enumerate_corner_intersection_2d(2, F(1, 2), 1, 2, 0, "X")
    with pytest.raises(ValueError):
        O.enumerate_corner_intersection_2d(2, F(1, 2), 1, 2, 7, "F")
    with pytest.raises(ValueError):
        O.enumerate_corner_intersection_2d(2, F(1, 2), 1, -1, 0, "F")
    # a level that is not a non-negative integer, or a subdivision count that
    # is not a positive integer, fails before any build
    for n in (-1, 1.5):
        with pytest.raises(ValueError, match="non-negative integer"):
            O.enumerate_1d(2, F(1, 2), n, "V0", "K")
        with pytest.raises(ValueError, match="non-negative integer"):
            O.leaf_distribution(2, F(1, 2), n)
    for M in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            O.enumerate_1d(M, F(1, 2), 2, "V0", "K")


def _public_expectations():
    """(label, f(p)) for every public oracle expectation and each of its
    functionals and targets; the corner terms at k = 0 and k = 1."""
    calls = [("leaf_distribution", lambda p: O.leaf_distribution(2, p, 2))]
    calls += [(f"enumerate_1d {f} {t}", lambda p, f=f, t=t: O.enumerate_1d(2, p, 2, f, t))
              for f in O.FUNCTIONALS_1D for t in O.TARGETS_1D]
    calls += [(f"enumerate_2d {f} {t}", lambda p, f=f, t=t: O.enumerate_2d(2, p, 1, f, t))
              for f in O.FUNCTIONALS_2D for t in O.TARGETS_2D]
    calls += [(f"corner k={k} {t}", lambda p, k=k, t=t: O.enumerate_corner_intersection_2d(2, p, 2, 2, k, t))
              for k in (0, 1) for t in O.TARGETS_2D]
    calls += [(f"side k={k} {t}", lambda p, k=k, t=t: O.enumerate_side_intersection_2d(2, p, 2, k, t))
              for k in (0, 1) for t in O.TARGETS_2D]
    return calls


@pytest.mark.parametrize("p", [F(-1, 2), F(3, 2)])
@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in _public_expectations()])
def test_probability_outside_unit_interval_refused(call, p):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        call(p)


def test_probability_ends_unchanged():
    # p = 0 leaves nothing of K or F alive, p = 1 everything
    assert O.leaf_distribution(2, F(0), 2) == tuple((key, int(key == 0)) for key in range(16))
    assert O.leaf_distribution(2, F(1), 2) == tuple((key, int(key == 15)) for key in range(16))
    calls = [call for _, call in _public_expectations()[1:]]
    # enumerate_1d (V0, V1, N, contains0, contains1) x (K, D, KK, DD), then
    # enumerate_2d (V0, V1, V2) x (F, C), then corner and side (k = 0, 1) x (F, C)
    assert [call(F(0)) for call in calls] == [
        0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1,
        0, 1, 0, 2, 0, 1,
        0, 1, 0, 0,
        0, 1, 0, F(1, 2),
    ]
    assert [call(F(1)) for call in calls] == [
        1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0,
        1, 0, 2, 0, 1, 0,
        1, 0, 0, 0,
        1, 0, F(1, 2), 0,
    ]


def test_2d_trivial_cases():
    assert O.enumerate_2d(2, F(1), 1, "V0", "F") == 1
    assert O.enumerate_2d(2, F(1, 2), 1, "V2", "F") == F(1, 2)
    assert O.enumerate_2d(3, F(1), 1, "V1", "F") == 2
    assert O.enumerate_2d(2, F(1), 2, "V0", "C") == 0
    # area linearity at level 2
    assert O.enumerate_2d(2, F(1, 3), 2, "V2", "F") == F(1, 9)


def _pattern_cells(key: int, side: int, d: int = 2) -> np.ndarray:
    """Unpack a block-structure key: row-major cells from the most
    significant bit; a 1-d pattern is one row."""
    size = side**d
    bits = [(key >> (size - 1 - c)) & 1 for c in range(size)]
    return np.array(bits, dtype=bool).reshape(-1, side)


def test_pattern_counters_match_audit_per_pattern():
    # the batched kernel call counts each pattern and its complement exactly
    # and reads their end cells; every pattern of the 2-d (2, 1), (3, 1) and
    # of the 1-d (2, 2), (3, 2), a seeded sample of the 2-d (2, 2) and the 1-d (4, 2)
    rng = np.random.default_rng(5)
    for M, n, d in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 2, 1), (3, 2, 1), (4, 2, 1)):
        side = M**n
        keys = O._block_structure(M, n, d).keys
        scores = O._pattern_scores(M, n, d)
        # each pattern once, in increasing key order
        assert keys.tolist() == list(range(2 ** side**d))
        assert scores.shape == (len(keys), 2, 6)
        rows = range(len(keys)) if len(keys) <= 512 else rng.choice(len(keys), 300, replace=False)
        for i in rows:
            occ = _pattern_cells(int(keys[i]), side, d)
            audit = G.audit_counters(occ).tolist()
            for target_occ, got, counters in zip((occ, ~occ), scores[i].tolist(), audit):
                cells = target_occ.ravel().tolist()
                assert got == counters + [cells[0], cells[-1]], (M, n, d, i)


def _rows_by_pattern(blocks) -> dict:
    """Per pattern index, its "kept,dropped,count" rows in table order."""
    rows = {}
    for i, a, b, c in zip(blocks.pattern.tolist(), blocks.kept.tolist(),
                          blocks.dropped.tolist(), blocks.count.tolist()):
        rows.setdefault(i, []).append(f"{a},{b},{c}")
    return rows


def _weight_total(blocks, x: int, y: int, nodes: int) -> int:
    """Sum of the keep/drop weights at p = x/y, scaled by y^nodes."""
    return sum(c * x**a * (y - x) ** b * y ** (nodes - a - b)
               for a, b, c in zip(blocks.kept.tolist(), blocks.dropped.tolist(),
                                  blocks.count.tolist()))


def test_block_structure_digest_pinned():
    # canonical text: per pattern in key order, its row-major cells packed by
    # numpy.packbits in hex, then its (kept, dropped, count) rows; digests
    # measured on the per-combination enumeration this table replaced
    pinned = {
        (2, 1): "6debee381cb20b54ba120565789f13eb0e2624bbb954ad6b0357ce58f7f7f159",
        (2, 2): "b9510d424b9941cefdae60f948b2672811e78dfa50c56d1f4b8248a271da9368",
        (3, 1): "5364a3db9071b44936a0279ebbb291abee5b4c146ec00e13e800ebbc1bef46b0",
    }
    for (M, n), want in pinned.items():
        blocks = O._block_structure(M, n, 2)
        side = M**n
        rows = _rows_by_pattern(blocks)
        digest = hashlib.sha256()
        for i, key in enumerate(blocks.keys.tolist()):
            packed = np.packbits(_pattern_cells(key, side)).tobytes().hex()
            digest.update(f"{packed}:{';'.join(rows[i])}\n".encode())
        assert digest.hexdigest() == want, (M, n)
        # the keep/drop weights of every instance sum to one
        nodes = O._tree_nodes(M * M, n)
        assert _weight_total(blocks, 2, 7, nodes) == 7**nodes


def test_leaf_structure_digest_pinned():
    # convention-free canonical text of the 1-d structures: per pattern, its
    # cells as a 0/1 string from cell 0, then its (kept, dropped, count)
    # rows, the lines sorted; digests measured on the per-combination
    # enumeration with leaf masks read from the least significant bit
    pinned = {
        (2, 3): "330596baa3e73a75c91544a35ea731625582927206740e923fc24fafa4b005ce",
        (3, 2): "211896fcfadb02e36ef45f8da0bb7e1e660902759b7ad2768dbf49dcc4c783da",
        (4, 2): "8bcf77c139d4c476155cb6400d240593beb8d48c75f90307b43d13c5efd1bc86",
    }
    for (M, n), want in pinned.items():
        blocks = O._block_structure(M, n, 1)
        rows = _rows_by_pattern(blocks)
        lines = sorted(f"{format(key, f'0{M**n}b')}:{';'.join(rows[i])}\n"
                       for i, key in enumerate(blocks.keys.tolist()))
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == want, (M, n)
        nodes = O._tree_nodes(M, n)
        assert _weight_total(blocks, 2, 7, nodes) == 7**nodes


def test_2d_envelope_guard():
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_2d(2, F(1, 2), 3)
    with pytest.raises(InstanceTooLargeError):
        O.enumerate_2d(4, F(1, 2), 1)


def test_corner_oracle_matches_independence():
    # a chain of n nodes is the 1-d tree with M = 1: every level of its
    # 21-node budget, and one beyond
    for p in (F(1, 5), F(1, 2)):
        for n in range(1, 22):
            for ell in (2, 3, 4):
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 0, "F") == p ** (ell * n)
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 0, "C") == (1 - p**n) ** ell
                assert O.enumerate_corner_intersection_2d(2, p, n, ell, 1, "F") == 0
    for ell in (2, 3, 4):
        with pytest.raises(InstanceTooLargeError):
            O.enumerate_corner_intersection_2d(2, F(1, 2), 22, ell, 0, "F")


def test_pair_expectations_with_large_weights():
    # p close to 1 or with a large denominator gives exact weights far
    # beyond int64; only the per-class score sums are int64
    for M, n in ((2, 3), (3, 2)):
        for p in (F(999, 1000), F(12345, 99991)):
            exact = A.ModelParams(M, p, 1)
            assert O.enumerate_1d(M, p, n, "V0", "KK") == A.ev_vk_intersect_1d(exact, n, 0)
            assert O.enumerate_1d(M, p, n, "V1", "KK") == A.ev_vk_intersect_1d(exact, n, 1)
            assert O.enumerate_1d(M, p, n, "N", "KK") == A.ev_n_isolated_1d(exact, n)
            assert O.enumerate_1d(M, p, n, "V0", "DD") == A.ev_vk_complement_1d(exact, n, 0, True)
            assert O.enumerate_1d(M, p, n, "V1", "DD") == A.ev_vk_complement_1d(exact, n, 1, True)


def test_side_oracle_level1():
    # level 1: both neighbours alive (p^2) share one full edge of length 1/M
    for M in (2, 3):
        p = F(1, 2)
        assert O.enumerate_side_intersection_2d(M, p, 1, 0, "F") == p * p
        assert O.enumerate_side_intersection_2d(M, p, 1, 1, "F") == p * p / M
        assert O.enumerate_side_intersection_2d(M, p, 1, 0, "C") == (1 - p) ** 2


# ---------------------------------------------------------------------------
# Pinned outcomes of the public expectations
# ---------------------------------------------------------------------------

def _oracle_lines():
    """One line per call of every public expectation over valid and invalid
    M, n and p, each vocabulary plus one unknown name, and valid and invalid
    ell and k; a refused call is recorded by its exception class."""

    def outcome(f, args):
        try:
            return repr(f(*args))
        except InstanceTooLargeError:
            return "raises InstanceTooLargeError"
        except ValueError:
            return "raises ValueError"

    targets_2d = O.TARGETS_2D + ("X",)
    calls = []
    for M, n, p in itertools.product((True, 0, 1, 1.5, 2, 2.0, 3), (True, -1, 0, 1, 1.0, 2),
                                     (F(0), F(1, 2), F(1), F(3, 2))):
        calls.append((O.leaf_distribution, (M, p, n)))
        calls += [(O.enumerate_1d, (M, p, n, f, t))
                  for f in O.FUNCTIONALS_1D + ("V9",) for t in O.TARGETS_1D + ("X",)]
        calls += [(O.enumerate_2d, (M, p, n, f, t))
                  for f in O.FUNCTIONALS_2D + ("V9",) for t in targets_2d]
        calls += [(O.enumerate_corner_intersection_2d, (M, p, n, ell, k, t))
                  for ell in (True, -1, 0, 2) for k in (True, -1, 0, 1, 2, 3) for t in targets_2d]
        calls += [(O.enumerate_side_intersection_2d, (M, p, n, k, t))
                  for k in (True, -1, 0, 1, 2) for t in targets_2d]
    return [f"{f.__name__}{args!r} -> {outcome(f, args)}" for f, args in calls]


def test_oracle_outcomes_pinned():
    # every value and every refusal, by class, of the public expectations
    lines = _oracle_lines()
    assert len(lines) > 20000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c5056d7cecd0fff72af2a65d4a25a1618ba06dcc0c1ea9a3df02fb80ccd7dcc6"


@pytest.mark.parametrize("args", [(2, F(1, 2), -1, 2, 1, "F"), (2, F(1, 2), 1.5, 2, 2, "F"),
                                  (0, F(1, 2), 99, 2, 1, "F")])
def test_corner_term_checks_arguments_before_its_zero(args):
    # k >= 1 is zero without enumerating, but only for valid M and n
    with pytest.raises(ValueError):
        O.enumerate_corner_intersection_2d(*args)
