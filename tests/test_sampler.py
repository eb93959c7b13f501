"""Sampling determinism, tree consistency, offspring law, memory guard, PBM output."""

import tracemalloc
from types import SimpleNamespace

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
        parents = np.kron(coarse, np.ones((2, 2), bool))
        assert not (fine & ~parents).any()


def test_shape_and_metadata():
    grid = S.sample(ModelParams(3, 0.5, 1), 2, seed=1, sample_index=9)
    assert grid.occupancy.shape == (1, 9)
    assert grid.cell_size == pytest.approx(1 / 9)
    assert grid.sample_index == 9


def test_f_and_c_areas_partition_the_unit_square():
    # V2(F_n) + V2(C_n) = 1 for every realization
    grid = S.sample(ModelParams(2, 0.55, 2), 5, seed=4)
    f_faces, c_faces = G.window_counters(grid.occupancy)[:, 0]
    assert f_faces == np.count_nonzero(grid.occupancy)
    assert f_faces + c_faces == grid.occupancy.size
    f, c = G.minkowski(grid.occupancy, grid.cell_size, grid.d)
    assert f[2] + c[2] == 1.0


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


def test_replicate_peak_memory_within_guard_model(monkeypatch):
    n = 8
    cells = 4**n
    for p in (0.7, 1.0):
        tracemalloc.start()
        try:
            grid = S.sample(ModelParams(2, p, 2), n, seed=3)
            G.minkowski(grid.occupancy, grid.cell_size, grid.d)
            G.label(grid, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S.PEAK_BYTES_PER_CELL * cells, (p, peak / cells)
    # one default block of n = 4 replicates: the stack and its window pass
    n = 4
    for p in (0.7, 1.0):
        params = ModelParams(2, p, 2)
        block = MC._block_size(params, n, S.DEFAULT_BUDGET_BYTES, 1)
        assert block > 1
        cells = block * 4**n
        tracemalloc.start()
        try:
            stack = S.sample_grid(2, 2, [p], n, 3, np.arange(block)).view(bool)
            G.minkowski(stack, 2.0**-n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S.PEAK_BYTES_PER_CELL * cells, (p, peak / cells)
    # one default block over a coupled grid: the count stack, each grid
    # point's threshold and window pass; 300 points take uint16 counts
    n, params = 4, ModelParams(2, 1.0, 2)
    block = MC._block_size(params, n, S.DEFAULT_BUDGET_BYTES, 37)
    cells = block * 4**n
    default_grid = [round(0.26 + 0.02 * j, 12) for j in range(37)]
    for grid, dtype in ((default_grid, np.uint8), (np.linspace(0.0, 1.0, 300), np.uint16)):
        tracemalloc.start()
        try:
            counts = S.sample_grid(2, 2, grid, n, 3, np.arange(block))
            for j in range(len(grid)):
                G.minkowski(counts >= len(grid) - j, 2.0**-n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.dtype == dtype
        assert peak <= S.PEAK_BYTES_PER_CELL * cells, (len(grid), peak / cells)
    # every block that _run_block draws and scores, sized by _block_size for
    # its grid and budget, peaks within its charge beside the value table it
    # returns (G x replicates x 2 (d + 1) float64); at n <= 2 the window
    # lookup's histograms outweigh the cells
    MC._run_block((params, (1.0,), 0, 3, 0, 2, 8, (), S.DEFAULT_BUDGET_BYTES))  # numpy's caches
    cases = [(2, 2, n, G) for n in (0, 1, 2, 4) for G in (1, 2, 37, 300)]
    for M, d, n, points in cases + [(3, 2, 2, 37), (2, 1, 6, 2)]:
        params = ModelParams(M, 1.0, d)
        grid = (1.0,) if points == 1 else tuple(np.linspace(0.0, 1.0, points).tolist())
        cells = M ** (d * n)
        charge = max(cells * S.PEAK_BYTES_PER_CELL, cells * MC.SCORE_BYTES_PER_CELL
                     + MC.SCORE_BYTES_PER_LATTICE + points * MC.SCORE_BYTES_PER_POINT)
        for budget in (1 << 20, S.DEFAULT_BUDGET_BYTES):
            block = MC._block_size(params, n, budget, points)
            tracemalloc.start()
            try:
                values = MC._run_block((params, grid, n, 3, 0, block, 8, (), budget))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.shape == (points, block, 2 * (d + 1))
            net = peak - values.nbytes
            assert net <= block * charge, (M, d, n, points, budget, net / (block * charge))
    # one-point blocks scored from their living cells, forced: at n = 10 and
    # p = 0.7 about half the lattices have more than 1 / 32 of their cells living
    monkeypatch.setattr(G, "_SPARSE_RATIO", 1)
    for n, p in ((10, 0.7), (4, 0.3)):
        params = ModelParams(2, p, 2)
        cells = 4**n
        charge = max(cells * S.PEAK_BYTES_PER_CELL, cells * MC.SCORE_BYTES_PER_CELL
                     + MC.SCORE_BYTES_PER_LATTICE + MC.SCORE_BYTES_PER_POINT)
        block = MC._block_size(params, n, S.DEFAULT_BUDGET_BYTES, 1)
        assert block == (1 if n == 10 else 1024)
        tracemalloc.start()
        try:
            values = MC._run_block((params, (p,), n, 3, 0, block, 8, (), S.DEFAULT_BUDGET_BYTES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        living = values[0, :, 2].sum() * cells  # the area of F in cells
        assert 0 < living < block * cells / 16, (n, p, living)
        net = peak - values.nbytes
        assert net <= block * charge, (n, p, net / (block * charge))


def test_small_blocks_peak_within_their_charge():
    # blocks of 1 to 100 n = 4 lattices over the default 37-point grid, each
    # drawn with a budget of exactly its charge, peak within that charge
    grid = [round(0.26 + 0.02 * j, 12) for j in range(37)]
    cells = 4**4
    S.sample_grid(2, 2, grid, 4, 3, [0])  # numpy's one-time caches are no block's
    for block in (1, 10, 50, 100):
        charge = block * cells * S.PEAK_BYTES_PER_CELL
        tracemalloc.start()
        try:
            counts = S.sample_grid(2, 2, grid, 4, 3, np.arange(block), charge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (block, 16, 16)
        assert peak <= charge, (block, peak / (block * cells))


def _reference_lattices(M, d, grid, n, seed, index):
    """F_n of one replicate at each p of ``grid``, from every cell's uniform
    of every level and the test ``u < p``, with no pruning."""
    lattices = []
    for p in grid:
        occ = np.ones((1, 1), dtype=bool)
        for level in range(1, n + 1):
            occ = np.kron(occ, np.ones((M if d == 2 else 1, M), dtype=bool))
            u = rng.cell_uniforms(rng.node_key(seed, index, level), np.arange(occ.size))
            occ &= u.reshape(occ.shape) < p
        lattices.append(occ)
    return lattices


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_sample_grid_matches_level_by_level_reference(M, d):
    indices, seed = [4, 0, 9], 31
    # a level-1 uniform of replicate 4 as a grid point: that cell dies at it
    u = float(rng.cell_uniforms(rng.node_key(seed, 4, 1), [1])[0])
    grid = sorted({0.0, 0.35, u, 0.8, 0.95, 1.0})
    for n in range(6):
        counts = S.sample_grid(M, d, grid, n, seed, indices)
        assert counts.shape == (3, M**n if d == 2 else 1, M**n) and counts.dtype == np.uint8
        for k, index in enumerate(indices):
            reference = _reference_lattices(M, d, grid, n, seed, index)
            for j, occ in enumerate(reference):
                assert np.array_equal(counts[k] >= len(grid) - j, occ), (n, index, grid[j])
    # the strict test: at p = u the cell is dead, just above u it lives
    j = grid.index(u)
    counts = S.sample_grid(M, d, grid, 1, seed, [4])
    assert counts[0].flat[1] == len(grid) - j - 1


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_sample_grid_small_chunks_and_extinction_match_reference(M, d, monkeypatch):
    # chunks of 13 candidates hold whole parents (one at M^d = 9), so a level
    # takes many chunks, and most chunks of 2 or more parents mix replicates
    monkeypatch.setattr(S, "_HASH_CHUNK", 13)
    seed, indices = 8, list(range(12))
    top = 1.2 / M**d  # a mean of 1.2 children: some replicates die out, some live
    doomed, mixed = [0.05 / M**d, 0.1 / M**d], [top / 3, top / 2, top]
    for grid in (doomed, mixed):
        for n in range(5):
            counts = S.sample_grid(M, d, grid, n, seed, indices)
            assert counts.shape == (12, M**n if d == 2 else 1, M**n)
            for k, index in enumerate(indices):
                reference = _reference_lattices(M, d, grid, n, seed, index)
                for j, occ in enumerate(reference):
                    assert np.array_equal(counts[k] >= len(grid) - j, occ), (grid, n, index, j)
    # n = 0 is one cell living at every point
    assert np.array_equal(S.sample_grid(M, d, mixed, 0, seed, indices), np.full((12, 1, 1), 3))
    # every doomed replicate is dead by level 3, so level 4 starts with no
    # living cell; the mixed block loses some replicates by level 4, not all
    assert not S.sample_grid(M, d, doomed, 3, seed, indices).any()
    living = S.sample_grid(M, d, mixed, 4, seed, indices).reshape(12, -1).any(axis=1)
    assert living.any() and not living.all(), living


def test_reference_kills_sampler_mutants(monkeypatch):
    # two defects patched into the sampler alone, so that the reference's
    # own rng calls stay sound: every replicate of a block hashed under the
    # first replicate's key, and _children placing a parent's children as if
    # the parent's row and column were swapped. The reference catches each,
    # over a one-point grid and a coupled one, and passes the sound draw
    seed, indices = 31, [4, 0, 9]

    def matches_reference(M, d, n, grid):
        counts = S.sample_grid(M, d, grid, n, seed, indices)
        return all(np.array_equal(counts[k] >= len(grid) - j, occ)
                   for k, index in enumerate(indices)
                   for j, occ in enumerate(_reference_lattices(M, d, grid, n, seed, index)))

    def first_key(seed, indices, level):
        return np.repeat(rng.node_key(seed, indices[:1], level), len(indices))

    children = S._children

    def swapped(f, offsets, M, d, side):
        replicate, cell = np.divmod(f, side**d)
        row, column = np.divmod(cell, side)
        return children(replicate * side**d + column * side + row, offsets, M, d, side)

    cases = [(M, d, 4, grid) for M, d in ((2, 2), (3, 2), (2, 1)) for grid in ([0.7], [0.5, 0.7, 0.9])]
    assert all(matches_reference(*case) for case in cases)
    mutants = [  # each with the cases that show it: a one-row lattice has no swap
        ("rng", SimpleNamespace(node_key=first_key, cell_uniforms=rng.cell_uniforms), cases),
        ("_children", swapped, [case for case in cases if case[1] == 2]),
    ]
    for attribute, mutant, shown in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(S, attribute, mutant)
            for case in shown:
                assert not matches_reference(*case), (attribute, case)
    assert all(matches_reference(*case) for case in cases)


def test_bucket_count_equals_the_per_point_count(monkeypatch):
    # per uniform, the bucket table's count and the per-point loop's equal the
    # plain sum of u < p: at every point itself (u == p counts nothing), at
    # its float neighbours on both sides, at 0 and at the largest uniform
    monkeypatch.setattr(S, "_TABLE_CANDIDATES", 1)  # the table reads any chunk
    for G in (2, 37, 255, 256, 300):
        spread = np.linspace(0.05, 0.95, G)
        grids = {
            "spread": spread,
            "with p = 1": np.append(spread[:-1], 1.0),
            "repeated": np.sort(np.concatenate((spread[: G // 2], spread[: G - G // 2]))),
            "clustered": 0.5 + 1e-4 * np.arange(G),
        }
        for name, points in grids.items():
            table = S._bucket_table(points)
            K, above, inside = table
            assert K >= 2 * G and above.dtype == np.min_scalar_type(G)
            assert (len(inside) > 1) == (name in ("repeated", "clustered")), (G, name, len(inside))
            u = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                                [0.0, 1.0 - 2.0**-53]))
            u = u[u < 1.0]
            expected = (u[:, None] < points).sum(axis=1)
            for route in (table, None):
                out = np.empty(len(u), dtype=np.min_scalar_type(G))
                S._count_below(u.copy(), points, route, out)
                assert np.array_equal(out, expected), (G, name, route is None)


def test_clustered_grid_draws_equal_the_reference(monkeypatch):
    # points within one bucket, repeated and at p = 1, counted from the table
    # at every chunk, then as sample_grid chooses (one compare per point, as
    # the grid has fewer than _TABLE_POINTS points)
    seed, indices = 17, [0, 3, 8]
    grid = [0.5, 0.5, 0.5001, 0.5002, 0.7, 0.7, 1.0]
    for points, candidates in ((2, 1), (S._TABLE_POINTS, S._TABLE_CANDIDATES)):
        monkeypatch.setattr(S, "_TABLE_POINTS", points)
        monkeypatch.setattr(S, "_TABLE_CANDIDATES", candidates)
        for M, d in ((2, 2), (3, 2), (2, 1)):
            for n in range(5):
                counts = S.sample_grid(M, d, grid, n, seed, indices)
                for k, index in enumerate(indices):
                    for j, occ in enumerate(_reference_lattices(M, d, grid, n, seed, index)):
                        assert np.array_equal(counts[k] >= len(grid) - j, occ), (points, M, d, n, j)


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_draw_hands_over_the_living_cells(M, d, monkeypatch):
    # every one-point draw hands over the flat stack positions of its living
    # cells, each once, with its stack: near extinction, at p = 0.7 and 1, at
    # n = 0 and for an extinct stack; chunks of 13 candidates split each
    # level into many, and most chunks mix replicates
    n = {(2, 2): 6, (3, 2): 4, (2, 1): 10, (3, 1): 6}[M, d]

    def handed_over(p, n, indices):
        counts, living = S._draw(M, d, [p], n, 5, indices)
        assert living.dtype == np.intp and len(np.unique(living)) == len(living)
        assert np.array_equal(np.sort(living), np.flatnonzero(counts)), (p, n, len(indices))
        assert np.array_equal(counts[0], _reference_lattices(M, d, [p], n, 5, indices[0])[0])
        return counts

    for chunk in (S._HASH_CHUNK, 13):
        monkeypatch.setattr(S, "_HASH_CHUNK", chunk)
        for block in (1, 4, 64):
            indices = np.arange(7, 7 + block)
            for p in (1.1 / M**d, 0.7):
                handed_over(p, n, indices)
            assert handed_over(1.0, n, indices).all() and handed_over(0.5, 0, indices).all()
        assert not handed_over(0.0, 3, [0, 1]).any()  # extinct: an empty array
    # a grid of two points or more writes its stack and hands over None
    for grid in ([0.01, 0.5], [0.3, 0.5, 0.7, 1.0]):
        for n in (0, 3):
            counts, living = S._draw(M, d, grid, n, 5, [0, 1])
            assert living is None, (grid, n)
            for k in range(2):
                for j, occ in enumerate(_reference_lattices(M, d, grid, n, 5, k)):
                    assert np.array_equal(counts[k] >= len(grid) - j, occ), (grid, n, k, j)


def test_sample_grid_refuses_a_bad_grid():
    for grid in ([], [0.5, 0.4], [0.2, float("nan")], [-0.1, 0.5], [0.5, 1.5], [[0.5]]):
        with pytest.raises(ValueError):
            S.sample_grid(2, 2, grid, 2, 0, [0])
    # repeated points are ascending, and equal their one-point draws
    counts = S.sample_grid(2, 2, [0.6, 0.6], 3, 0, [0])
    assert np.array_equal(counts >= 1, S.sample_grid(2, 2, [0.6], 3, 0, [0]) == 1)
    assert np.array_equal(counts >= 1, counts >= 2)


def test_sample_grid_counts_beyond_uint16():
    # 70,000 points take uint32 counts; each threshold is that point's own draw
    grid = np.linspace(0.3, 0.9, 70_000)
    indices = np.arange(40)
    counts = S.sample_grid(2, 2, grid, 1, 5, indices)
    assert counts.dtype == np.uint32 and counts.max() > np.iinfo(np.uint16).max
    for j in (0, len(grid) // 2, len(grid) - 1):
        alone = S.sample_grid(2, 2, [grid[j]], 1, 5, indices)
        assert np.array_equal(counts >= len(grid) - j, alone == 1), j


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_sample_stack_matches_sample(M, d):
    # a one-point grid's 0/1 counts, viewed as bool, are the lattices sample draws
    indices = [5, 0, 17]
    for n in (0, 1, 3, 4):
        for p in (0.0, 0.4, 1.0):
            params = ModelParams(M, p, d)
            stack = S.sample_grid(M, d, [p], n, 21, np.array(indices)).view(bool)
            side = M**n
            assert stack.shape == (3, side if d == 2 else 1, side) and stack.dtype == bool
            for k, i in enumerate(indices):
                assert np.array_equal(stack[k], S.sample(params, n, 21, i).occupancy), (n, p, i)


def test_sample_stack_memory_guard():
    need = 3 * 4**3 * S.PEAK_BYTES_PER_CELL  # the guard charges the whole stack
    assert S.sample_grid(2, 2, [0.5], 3, 0, [4, 5, 6], budget_bytes=need).shape == (3, 8, 8)
    with pytest.raises(MemoryBudgetError):
        S.sample_grid(2, 2, [0.5], 3, 0, [4, 5, 6], budget_bytes=need - 1)
    with pytest.raises(ValueError):
        S.sample_grid(2, 2, [0.5], 2.0, 0, [1])


@pytest.mark.parametrize("bad", [1.5, -1, 2**64, True, "3"])
def test_sample_index_must_be_an_integer_in_range(bad):
    params = ModelParams(3, 0.6, 1)
    with pytest.raises(ValueError, match="sample indices"):
        S.sample(params, 1, 1, bad)
    with pytest.raises(ValueError, match="sample indices"):
        S.sample_grid(3, 1, [0.6], 1, 1, [0, bad])
    with pytest.raises(ValueError, match="sample indices"):
        S.sample_grid(3, 1, [0.6], 1, 1, np.array([0, 1.0]))


def test_sample_index_range_ends_are_drawn():
    params = ModelParams(3, 0.6, 1)
    top = 2**64 - 1
    stack = S.sample_grid(3, 1, [0.6], 2, 1, [0, 2**63, top]).view(bool)
    assert np.array_equal(stack, S.sample_grid(3, 1, [0.6], 2, 1,
                                               np.array([0, 2**63, top], np.uint64)) == 1)
    assert np.array_equal(stack[2], S.sample(params, 2, 1, top).occupancy)
    # the int64 blocks that Monte Carlo passes, and numpy integer scalars
    assert np.array_equal(S.sample_grid(3, 1, [0.6], 2, 1, np.arange(3, dtype=np.int64))[1] == 1,
                          S.sample(params, 2, 1, np.int64(1)).occupancy)


@pytest.mark.parametrize("bad", [1.5, -1, 2**64, True, "3"])
def test_seed_must_be_an_integer_in_range(bad):
    params = ModelParams(3, 0.6, 1)
    with pytest.raises(ValueError, match="seed"):
        S.sample(params, 1, bad)
    with pytest.raises(ValueError, match="seed"):
        S.sample_grid(3, 1, [0.6], 1, bad, [0, 1])
    MC.run_experiment(params, 1, 2, 1)  # a cached draw under seed 1 == True
    with pytest.raises(ValueError, match="seed"):
        MC.run_experiment(params, 1, 2, bad)


def test_seed_range_ends_are_drawn():
    params = ModelParams(3, 0.6, 1)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        grid = S.sample(params, 3, seed)
        assert np.array_equal(grid.occupancy, S.sample_grid(3, 1, [0.6], 3, seed, [0])[0] == 1)
    # the two ends are different streams
    assert not np.array_equal(S.sample(params, 3, 0).occupancy, S.sample(params, 3, 2**64 - 1).occupancy)


def test_offspring_counts_binomial():
    # level-1 kept counts across many replicates vs Binomial(M^d, p)
    M, p, draws = 2, 0.6, 100_000
    cells = np.arange(M * M, dtype=np.uint64)
    samples = np.arange(draws, dtype=np.uint64)[:, None]
    u = rng.cell_uniforms(rng.node_key(31415, samples, 1), cells[None, :])
    counts = (u < p).sum(axis=1)
    observed = np.bincount(counts, minlength=M * M + 1)
    expected = draws * stats.binom.pmf(np.arange(M * M + 1), M * M, p)
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 1e-3


def test_population_mean_matches_branching_mean():
    # E (number of level-n cells) = (M^2 p)^n, checked at 4 sigma
    n, samples, block = 8, 10_000, 16
    counts = np.empty(samples)
    for first in range(0, samples, block):
        indices = np.arange(first, min(first + block, samples))
        counts[indices] = S.sample_grid(2, 2, [0.7], n, 999, indices).sum(axis=(1, 2))
    mean = counts.mean()
    stderr = counts.std(ddof=1) / np.sqrt(samples)
    expected = (4 * 0.7) ** n
    assert abs(mean - expected) < 4 * stderr


def test_uniform_hash_basic_statistics():
    u = rng.cell_uniforms(rng.node_key(7, 0, 3), np.arange(200_000, dtype=np.uint64))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    # distinct positions decorrelate
    v = rng.cell_uniforms(rng.node_key(7, 0, 4), np.arange(200_000, dtype=np.uint64))
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_vector_sample_index_matches_scalar_calls():
    idx = np.arange(64, dtype=np.uint64)
    both = rng.cell_uniforms(rng.node_key(2024, np.array([[3], [11]]), 5), idx[None, :])
    for row, i in enumerate((3, 11)):
        scalar = rng.cell_uniforms(rng.node_key(2024, i, 5), idx)
        assert np.array_equal(both[row].view(np.uint64), scalar.view(np.uint64))
    pair = rng.cell_uniforms(rng.node_key(2024, np.array([3, 11]), 5), 17)
    singles = [rng.cell_uniforms(rng.node_key(2024, i, 5), 17) for i in (3, 11)]
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


def _pbm_per_cell(occ: np.ndarray) -> str:
    """Reference P1 text, one character per cell, rows cut every 70."""
    lines = ["P1", f"{occ.shape[1]} {occ.shape[0]}"]
    for row in occ:
        text = "".join("1" if v else "0" for v in row)
        lines.extend(text[i : i + 70] for i in range(0, len(text), 70))
    return "\n".join(lines) + "\n"


def test_pbm_matches_per_cell_reference():
    # widths on both sides of whole 70-character lines; rows all 1, all 0, mixed
    for width in (1, 69, 70, 71, 140, 141, 243):
        occ = np.random.default_rng(width).random((3, width)) < 0.5
        occ[0], occ[1] = True, False
        assert S.to_pbm(S.GridRealization(2, 0.5, 2, 0, 0, 0, occ)) == _pbm_per_cell(occ)
    for M, d, n, p in ((2, 1, 7, 0.7), (3, 2, 4, 0.8), (2, 2, 0, 1.0)):  # widths 128, 81, 1
        grid = S.sample(ModelParams(M, p, d), n, seed=1)
        assert S.to_pbm(grid) == _pbm_per_cell(grid.occupancy)
