"""Sampling determinism, tree consistency, offspring law, memory guard, PBM output."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fracperc import geometry as G
from fracperc import montecarlo as MC
from fracperc import rng
from fracperc import sampler as S
from fracperc.analytic import ModelParams
from fracperc.sampler import MemoryBudgetError


def test_trivial_probabilities():
    assert S.sample(ModelParams(2, 1.0, 2), 4, seed=0).occupancy.all()
    assert not S.sample(ModelParams(2, 0.0, 2), 4, seed=0).occupancy.any()
    assert S.sample(ModelParams(3, 1.0, 1), 3, seed=0).occupancy.all()


def test_determinism_bit_identical():
    pr = ModelParams(3, 0.6, 2)
    a = S.sample(pr, 4, seed=77, sample_index=5)
    b = S.sample(pr, 4, seed=77, sample_index=5)
    assert np.array_equal(a.occupancy, b.occupancy)
    c = S.sample(pr, 4, seed=78, sample_index=5)
    assert not np.array_equal(a.occupancy, c.occupancy)
    d = S.sample(pr, 4, seed=77, sample_index=6)
    assert not np.array_equal(a.occupancy, d.occupancy)


def test_hierarchical_consistency():
    # every occupied cell's parent block was alive at the coarser level
    pr = ModelParams(2, 0.7, 2)
    for n in (1, 3, 6):
        fine = S.sample(pr, n, seed=11, sample_index=2).occupancy
        coarse = S.sample(pr, n - 1, seed=11, sample_index=2).occupancy
        parents = S._expand(coarse, 2, 2)
        assert not (fine & ~parents).any()


def test_shape_and_metadata():
    grid = S.sample(ModelParams(3, 0.5, 1), 2, seed=1, sample_index=9)
    assert grid.occupancy.shape == (1, 9)
    assert grid.side == 9
    assert grid.cell_size == pytest.approx(1 / 9)
    assert grid.target == "F"
    assert grid.sample_index == 9


def test_complement_involution_and_area_partition():
    pr = ModelParams(2, 0.55, 2)
    grid = S.sample(pr, 5, seed=4)
    comp = S.complement(grid)
    assert comp.target == "C"
    assert np.array_equal(S.complement(comp).occupancy, grid.occupancy)
    # V2(F_n) + V2(C_n) = 1 for every realization
    total = grid.occupied_count + comp.occupied_count
    assert total == grid.side**2


def test_memory_guard():
    with pytest.raises(MemoryBudgetError):
        S.sample(ModelParams(2, 0.5, 2), 8, seed=0, budget_bytes=1000)
    with pytest.raises(ValueError):
        S.sample(ModelParams(2, 0.5, 2), -1, seed=0)
    # the guard charges PEAK_BYTES_PER_CELL per cell: exactly that passes
    need = 4**3 * S.PEAK_BYTES_PER_CELL
    S.sample(ModelParams(2, 0.5, 2), 3, seed=0, budget_bytes=need)
    with pytest.raises(MemoryBudgetError):
        S.sample(ModelParams(2, 0.5, 2), 3, seed=0, budget_bytes=need - 1)
    # at M = 2 the default budget refuses n = 13 (3.2 GB)
    with pytest.raises(MemoryBudgetError):
        S.sample(ModelParams(2, 0.7, 2), 13, seed=0)


def test_replicate_peak_memory_within_guard_model():
    n = 8
    cells = 4**n
    for p in (0.7, 1.0):
        tracemalloc.start()
        try:
            grid = S.sample(ModelParams(2, p, 2), n, seed=3)
            G.minkowski_pair(grid)
            G.label(grid, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S.PEAK_BYTES_PER_CELL * cells, (p, peak / cells)
    # one default block of n = 4 replicates: the stack and its window pass
    n = 4
    for p in (0.7, 1.0):
        params = ModelParams(2, p, 2)
        block = MC._block_size(params, n, S.DEFAULT_BUDGET_BYTES)
        assert block > 1
        cells = block * 4**n
        tracemalloc.start()
        try:
            stack = S.sample_stack(params, n, 3, np.arange(block))
            G.window_scores(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S.PEAK_BYTES_PER_CELL * cells, (p, peak / cells)


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_sample_stack_matches_sample(M, d):
    indices = [5, 0, 17]
    for n in (0, 1, 3, 4):
        for p in (0.0, 0.4, 1.0):
            params = ModelParams(M, p, d)
            stack = S.sample_stack(params, n, 21, np.array(indices))
            side = M**n
            assert stack.shape == (3, side if d == 2 else 1, side) and stack.dtype == bool
            for k, i in enumerate(indices):
                assert np.array_equal(stack[k], S.sample(params, n, 21, i).occupancy), (n, p, i)


def test_sample_stack_memory_guard():
    params = ModelParams(2, 0.5, 2)
    need = 3 * 4**3 * S.PEAK_BYTES_PER_CELL  # the guard charges the whole stack
    assert S.sample_stack(params, 3, 0, [4, 5, 6], budget_bytes=need).shape == (3, 8, 8)
    with pytest.raises(MemoryBudgetError):
        S.sample_stack(params, 3, 0, [4, 5, 6], budget_bytes=need - 1)
    with pytest.raises(ValueError):
        S.sample_stack(params, 2.0, 0, [1])


def test_offspring_counts_binomial():
    # level-1 kept counts across many replicates vs Binomial(M^d, p)
    M, p, draws = 2, 0.6, 100_000
    cells = np.arange(M * M, dtype=np.uint64)
    samples = np.arange(draws, dtype=np.uint64)[:, None]
    u = rng.node_uniforms(31415, samples, 1, cells[None, :])
    counts = (u < p).sum(axis=1)
    observed = np.bincount(counts, minlength=M * M + 1)
    expected = draws * stats.binom.pmf(np.arange(M * M + 1), M * M, p)
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 1e-3


def test_population_mean_matches_branching_mean():
    # E (number of level-n cells) = (M^2 p)^n, checked at 4 sigma
    pr = ModelParams(2, 0.7, 2)
    n, samples, block = 8, 10_000, 16
    counts = np.empty(samples)
    for first in range(0, samples, block):
        indices = np.arange(first, min(first + block, samples))
        counts[indices] = S.sample_stack(pr, n, 999, indices).sum(axis=(1, 2))
    mean = counts.mean()
    stderr = counts.std(ddof=1) / np.sqrt(samples)
    expected = (4 * 0.7) ** n
    assert abs(mean - expected) < 4 * stderr


def test_uniform_hash_basic_statistics():
    u = rng.node_uniforms(7, 0, 3, np.arange(200_000, dtype=np.uint64))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    # distinct positions decorrelate
    v = rng.node_uniforms(7, 0, 4, np.arange(200_000, dtype=np.uint64))
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_vector_sample_index_matches_scalar_calls():
    idx = np.arange(64, dtype=np.uint64)
    both = rng.node_uniforms(2024, np.array([[3], [11]]), 5, idx[None, :])
    for row, i in enumerate((3, 11)):
        scalar = rng.node_uniforms(2024, i, 5, idx)
        assert np.array_equal(both[row].view(np.uint64), scalar.view(np.uint64))
    pair = rng.node_uniforms(2024, np.array([3, 11]), 5, 17)
    singles = [rng.node_uniforms(2024, i, 5, 17) for i in (3, 11)]
    assert np.array_equal(pair.view(np.uint64), np.array(singles).view(np.uint64))


def test_derive_seed_distinct():
    seeds = {rng.derive_seed(1, f"p={p}") for p in (0.1, 0.2, 0.3)}
    assert len(seeds) == 3


def test_pbm_output():
    pr = ModelParams(2, 1.0, 2)
    grid = S.sample(pr, 2, seed=0)
    text = S.to_pbm(grid)
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "4 4"
    assert all(set(line) <= {"0", "1"} for line in lines[2:])
    assert "".join(lines[2:]) == "1" * 16
    empty = S.to_pbm(S.sample(ModelParams(2, 0.0, 2), 2, seed=0))
    assert "".join(empty.splitlines()[2:]) == "0" * 16


def test_pbm_row_wrapping(tmp_path):
    grid = S.sample(ModelParams(3, 0.8, 2), 4, seed=5)  # side 81 > 70 chars
    path = tmp_path / "g.pbm"
    S.write_pbm(grid, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "81 81"
    assert max(len(line) for line in lines) <= 70
    total_bits = sum(len(line) for line in lines[2:])
    assert total_bits == 81 * 81
