"""Accumulator statistics, block and worker invariance, coupling, CSV output."""

import csv
import math

import numpy as np
import pytest

from fracperc import montecarlo as MC
from fracperc import sampler as S
from fracperc.analytic import ArgumentError, ModelParams
from fracperc.montecarlo import McEstimate


def test_estimate_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.normal(3.0, 2.0, size=500)
    est = McEstimate.of(data)
    assert est.count == 500
    assert est.mean == pytest.approx(data.mean(), rel=1e-12)
    assert est.variance == pytest.approx(data.var(ddof=1), rel=1e-10)
    assert est.stderr == pytest.approx(data.std(ddof=1) / math.sqrt(500), rel=1e-10)


def test_empty_estimate():
    est = McEstimate.of([])
    assert est.count == 0 and math.isnan(est.stderr)
    est = McEstimate.of([1.0])
    assert est.count == 1 and math.isnan(est.stderr)


def test_stderr_scales_like_inverse_sqrt_count():
    rng = np.random.default_rng(3)
    small = McEstimate.of(rng.normal(size=2000))
    large = McEstimate.of(rng.normal(size=32000))
    ratio = large.stderr / small.stderr
    assert ratio == pytest.approx(0.25, rel=0.15)


def _lattice_charge(cells, points):
    """``MC._block_size``'s bytes for one lattice: its draw or its scoring."""
    return max(cells * S.PEAK_BYTES_PER_CELL, cells * MC.SCORE_BYTES_PER_CELL
               + MC.SCORE_BYTES_PER_LATTICE + points * MC.SCORE_BYTES_PER_POINT)


def _counted_draws(monkeypatch) -> list:
    """The arguments of every ``sampler.sample_grid`` call made in this
    process from now on; each call still draws."""
    draws, draw = [], S.sample_grid

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(S, "sample_grid", counted)
    return draws


def _per_replicate_reference(params, n, samples, seed, axes):
    """The estimates of run_experiment, one sample, window pass and labelling per replicate."""
    from fracperc import geometry as G

    index = {"V0": 0, "V1": 1, "V2": 2}
    values = {(t, f): [] for t in ("F", "C") for f in ("V0", "V1", "V2")[: params.d + 1]}
    spans = {axis: [] for axis in axes}
    for i in range(samples):
        grid = S.sample(params, n, seed, i)
        pair = dict(zip(("F", "C"), G.minkowski(grid.occupancy, grid.cell_size, grid.d)))
        for (target, functional), column in values.items():
            column.append(float(pair[target][index[functional]]))
        lab = G.label(grid, 8)
        for axis, column in spans.items():
            column.append(1.0 if (lab.spans_x if axis == "x" else lab.spans_y) else 0.0)
    estimates = {key: McEstimate.of(column) for key, column in values.items()}
    spanning = {axis: McEstimate.of(column) for axis, column in spans.items()}
    return estimates, spanning


@pytest.mark.parametrize("M, d, n, p, axes", [
    (2, 2, 3, 0.7, ("x", "y")),
    (3, 2, 2, 0.5, ("y",)),
    (2, 1, 5, 0.8, ("x",)),
    (3, 1, 3, 0.6, ("x",)),
])
def test_blocked_run_matches_per_replicate_reference(M, d, n, p, axes):
    params = ModelParams(M, p, d)
    ref_est, ref_span = _per_replicate_reference(params, n, 137, 41, axes)
    per_replicate = M ** (d * n) * S.PEAK_BYTES_PER_CELL
    # one block per worker, then blocks of 5 and 7 replicates with a short last block
    for workers, budget in ((1, S.DEFAULT_BUDGET_BYTES), (3, S.DEFAULT_BUDGET_BYTES),
                            (1, 5 * per_replicate), (3, 7 * per_replicate)):
        result = MC.run_experiment(params, n, 137, 41, spanning_axes=axes, workers=workers,
                                   budget_bytes=budget)
        assert result.samples == 137
        for got, want in ((result.estimates, ref_est), (result.spanning, ref_span)):
            assert got.keys() == want.keys()
            for key, est in want.items():
                assert (got[key].count, got[key].mean, got[key].m2) == (est.count, est.mean, est.m2)


def _spanning(params, n, samples, seed, axis="x"):
    return MC.run_experiment(params, n, samples, seed, spanning_axes=(axis,)).spanning[axis]


def test_spanning_y_refused_in_one_dimension():
    pr = ModelParams(2, 0.7, 1)
    with pytest.raises(ValueError, match="d = 2"):
        MC.run_experiment(pr, 3, 10, seed=0, spanning_axes=("y",))
    with pytest.raises(ValueError, match="d = 2"):
        MC.run_experiment(pr, 3, 10, seed=0, spanning_axes=("x", "y"))
    with pytest.raises(ValueError, match="axis"):
        MC.run_experiment(ModelParams(2, 0.7, 2), 3, 10, seed=0, spanning_axes=("z",))
    # spanning along x keeps its meaning: the whole interval survives
    assert _spanning(ModelParams(2, 1.0, 1), 3, 10, seed=0).mean == 1.0


def test_merge_invariance_across_block_sizes():
    # one block of 800 replicates, then 8 blocks of 100 and 62 blocks of at most 13
    pr = ModelParams(2, 0.6, 2)
    base = MC.run_experiment(pr, 3, 800, seed=5)
    for block in (100, 13):
        budget = block * 4**3 * S.PEAK_BYTES_PER_CELL
        assert MC._block_size(pr, 3, budget, 1) == block
        other = MC.run_experiment(pr, 3, 800, seed=5, budget_bytes=budget)
        assert other.estimates == base.estimates, block


def test_block_size_charges_the_draw_or_the_graded_scoring():
    # (M, n, grid points) -> replicates per block at the default budget
    pins = {(2, 8, 37): 4, (2, 12, 1): 1, (2, 4, 1): 1024, (3, 3, 1): 359, (2, 3, 1): 4096,
            (2, 4, 300): 230}
    for (M, n, points), block in pins.items():
        pr = ModelParams(M, 0.7, 2)
        assert MC._block_size(pr, n, S.DEFAULT_BUDGET_BYTES, points) == block, (M, n, points)
    # where scoring outweighs the draw, the budget holds that many scored lattices
    scored = _lattice_charge(4**4, 300)
    assert scored > 4**4 * S.PEAK_BYTES_PER_CELL
    pr = ModelParams(2, 0.7, 2)
    assert MC._block_size(pr, 4, 10 * scored, 300) == 10
    assert MC._block_size(pr, 4, 10 * scored - 1, 300) == 9
    assert MC._block_size(pr, 4, scored, 300) == 1
    with pytest.raises(S.MemoryBudgetError):
        MC._block_size(pr, 4, scored - 1, 300)


def test_budget_below_one_scored_lattice_refused(monkeypatch):
    # 12,288 bytes hold one n = 4 lattice's draw, not its scoring over 300 points
    grid = tuple(np.linspace(0.0, 1.0, 300).tolist())
    pr = ModelParams(2, 1.0, 2)
    assert 4**4 * S.PEAK_BYTES_PER_CELL == 12_288 < _lattice_charge(4**4, 300)

    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(MC, "ProcessPoolExecutor", no_pool)
    draws = _counted_draws(monkeypatch)
    for workers in (1, 2):
        with pytest.raises(S.MemoryBudgetError, match="300 point"):
            MC.run_experiment(pr, 4, 2, 1, workers=workers, budget_bytes=12_288, grid=grid)
    assert draws == []
    # a budget of exactly one lattice's charge runs, one lattice per block
    exact = MC.run_experiment(pr, 4, 2, 1, budget_bytes=_lattice_charge(4**4, 300), grid=grid)
    assert exact.estimates == MC.run_experiment(pr, 4, 2, 1, grid=grid).estimates


def test_agreement_with_analytic_small():
    from fracperc import analytic

    pr = ModelParams(3, 0.7, 2)
    result = MC.run_experiment(pr, 3, 2500, seed=21)
    for (target, functional), est in result.estimates.items():
        k = {"V0": 0, "V1": 1, "V2": 2}[functional]
        exact = float(analytic.ev(pr, 3, k, target))
        assert abs(est.mean - exact) < 4 * est.stderr


def test_rescaled_mean_attached_only_in_regime():
    res = MC.run_experiment(ModelParams(2, 0.6, 2), 2, 50, seed=2)
    assert res.rescaled_mean("F", "V2") is not None
    scale = (4 / (4 * 0.6)) ** 2
    assert res.rescaled_mean("F", "V2") == pytest.approx(
        res.estimates[("F", "V2")].mean * scale
    )
    res_low = MC.run_experiment(ModelParams(2, 0.2, 2), 2, 50, seed=2)
    assert res_low.rescaled_mean("F", "V0") is None


def test_coupled_grids_are_monotone_in_p():
    # shared uniforms: the p-grid coupling nests realizations cell-wise
    for i in range(20):
        prev = None
        for p in (0.3, 0.5, 0.7, 0.9):
            occ = S.sample(ModelParams(2, p, 2), 5, seed=99, sample_index=i).occupancy
            if prev is not None:
                assert not (prev & ~occ).any()
            prev = occ


@pytest.mark.parametrize("blocks, workers", [(1, 1), (3, 1), (3, 2)])
def test_grid_run_equals_one_point_runs(blocks, workers):
    # one draw over the grid, then each point's estimates, equal a run at that p alone;
    # blocks of at most ceil(23 / blocks) replicates: 8, 8 and 7 for three in one worker
    grid = (0.0, 0.45, 0.7, 0.85, 1.0)
    for d, axes in ((2, ("x", "y")), (1, ("x",))):
        budget = -(-23 // blocks) * 3 ** (d * 3) * S.PEAK_BYTES_PER_CELL
        kwargs = dict(spanning_axes=axes, workers=workers, budget_bytes=budget)
        misses = MC._grid_values.cache_info().misses
        coupled = [MC.run_experiment(ModelParams(3, p, d), 3, 23, 17, grid=grid, **kwargs)
                   for p in grid]
        assert MC._grid_values.cache_info().misses == misses + 1  # drawn once
        for p, got in zip(grid, coupled):
            alone = MC.run_experiment(ModelParams(3, p, d), 3, 23, 17, **kwargs)
            assert got.samples == alone.samples == 23
            assert got.estimates == alone.estimates, (d, p)
            assert got.spanning == alone.spanning, (d, p)
    # 256 points take uint16 counts; one graded pass per block still scores each
    grid = tuple(np.linspace(0.0, 1.0, 256).tolist())
    budget = -(-23 // blocks) * _lattice_charge(4**2, 256)
    kwargs = dict(spanning_axes=("x", "y"), workers=workers, budget_bytes=budget)
    coupled = [MC.run_experiment(ModelParams(2, p, 2), 2, 23, 17, grid=grid, **kwargs)
               for p in grid]
    for j in (0, 1, 100, 171, 254, 255):
        alone = MC.run_experiment(ModelParams(2, grid[j], 2), 2, 23, 17, **kwargs)
        assert coupled[j].estimates == alone.estimates, grid[j]
        assert coupled[j].spanning == alone.spanning, grid[j]
    # n = 6, where each replicate's first spanning point, found by bisection, falls mid-grid
    grid = (0.55, 0.65, 0.72, 0.78, 0.82, 0.86, 0.9, 1.0)
    budget = -(-23 // blocks) * _lattice_charge(4**6, len(grid))
    for connectivity in (4, 8):
        kwargs = dict(connectivity=connectivity, spanning_axes=("x", "y"), workers=workers,
                      budget_bytes=budget)
        coupled = [MC.run_experiment(ModelParams(2, p, 2), 6, 23, 17, grid=grid, **kwargs)
                   for p in grid]
        for p, got in zip(grid, coupled):
            alone = MC.run_experiment(ModelParams(2, p, 2), 6, 23, 17, **kwargs)
            assert got.spanning == alone.spanning, (connectivity, p)
        means = [[got.spanning[axis].mean for got in coupled] for axis in ("x", "y")]
        for column in means:
            assert column[0] == 0.0 and column[-1] == 1.0
            assert sum(0.0 < m < 1.0 for m in column) >= 2, (connectivity, column)


def test_spanning_labels_a_bisection_per_replicate_and_axis(monkeypatch):
    from fracperc import geometry as G

    calls, original = [], G.label
    monkeypatch.setattr(G, "label", lambda *args: calls.append(args) or original(*args))
    default = tuple(round(0.26 + 0.02 * j, 12) for j in range(37))
    for grid in ((0.9,), (0.6, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0), default):
        for connectivity in (4, 8):
            MC._grid_values.cache_clear()
            calls.clear()
            MC.run_experiment(ModelParams(2, grid[-1], 2), 6, 20, 3, connectivity,
                              ("x", "y"), grid=grid)
            probes = math.ceil(math.log2(len(grid) + 1))
            assert 0 < len(calls) <= 20 * 2 * probes, (grid, connectivity, len(calls))
    # no shadow of these six lattices spans (their 16 x 16 tiles): nothing is labelled
    MC._grid_values.cache_clear()
    calls.clear()
    result = MC.run_experiment(ModelParams(2, 0.7, 2), 8, 6, 27, spanning_axes=("x", "y"))
    assert calls == []
    assert result.estimates[("F", "V2")].mean > 0
    assert result.spanning["x"].mean == result.spanning["y"].mean == 0.0


def test_grid_must_be_ascending_and_hold_p():
    pr = ModelParams(2, 0.5, 2)
    with pytest.raises(ValueError):
        MC.run_experiment(pr, 2, 10, seed=0, grid=(0.7, 0.5))
    with pytest.raises(ValueError, match="not a point of the grid"):
        MC.run_experiment(pr, 2, 10, seed=0, grid=(0.3, 0.7))


def test_coupled_spanning_monotone_in_p():
    values = []
    for p in (0.5, 0.65, 0.8, 0.95):
        est = _spanning(ModelParams(2, p, 2), 5, 150, seed=31)
        values.append(est.mean)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_spanning_trivial():
    assert _spanning(ModelParams(2, 1.0, 2), 3, 20, seed=0).mean == 1.0
    assert _spanning(ModelParams(2, 0.0, 2), 3, 20, seed=0).mean == 0.0
    assert _spanning(ModelParams(2, 1.0, 2), 3, 20, seed=0, axis="y").mean == 1.0


def test_independent_seeds_differ_from_coupled():
    s1 = MC.per_p_seed(7, 0.4)
    s2 = MC.per_p_seed(7, 0.42)
    assert s1 != s2 != 7
    a = S.sample(ModelParams(2, 0.5, 2), 4, seed=s1).occupancy
    b = S.sample(ModelParams(2, 0.5, 2), 4, seed=s2).occupancy
    assert not np.array_equal(a, b)


def _face_count_variance(M, d, n, p):
    """Var Z_n of the Galton-Watson generation Z_n with Binomial(M^d, p) offspring."""
    m, sigma2 = M**d * p, M**d * p * (1 - p)
    return sigma2 * m ** (n - 1) * (m**n - 1) / (m - 1)


def test_face_count_variance_is_galton_watson():
    # the law, not only the means: F_n's face count Z_n = V_d(F_n) M^(dn) is a
    # Galton-Watson generation (Athreya & Ney, Branching Processes, 1972), and
    # the mean of 20 independent batches' sample variances lies within 4
    # batch standard errors of its variance
    assert _face_count_variance(2, 2, 4, 0.6) == pytest.approx(305.0, abs=0.05)
    for M, d, n, p in ((2, 2, 4, 0.6), (3, 2, 3, 0.7), (2, 1, 6, 0.8)):
        scale = float(M) ** (d * n)
        batches = [MC.run_experiment(ModelParams(M, p, d), n, 1000, seed)
                   .estimates[("F", f"V{d}")].variance * scale**2 for seed in range(20)]
        spread = McEstimate.of(batches)
        exact = _face_count_variance(M, d, n, p)
        assert abs(spread.mean - exact) < 4 * spread.stderr, (M, d, n, p, spread.mean, exact)


def test_d1_spanning_probability_is_every_node_alive():
    # a d = 1 lattice spans iff every node of levels 1..n lives:
    # P = p^(M + M^2 + .. + M^n) = p^((M^(n+1) - M) / (M - 1))
    from fractions import Fraction

    from fracperc import oracle

    for M, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)):
        for p in (Fraction(0), Fraction(1, 3), Fraction(7, 10), Fraction(1)):
            leaves = dict(oracle.leaf_distribution(M, p, n))
            assert leaves[(1 << M**n) - 1] == p ** ((M ** (n + 1) - M) // (M - 1)), (M, n, p)
    for M, n, p in ((2, 3, 0.95), (3, 2, 0.9), (2, 5, 0.98)):
        exact = p ** ((M ** (n + 1) - M) // (M - 1))
        est = _spanning(ModelParams(M, p, 1), n, 20000, seed=41)
        assert abs(est.mean - exact) < 4 * math.sqrt(exact * (1 - exact) / 20000), (M, n, p)


def test_d1_experiment():
    from fracperc import analytic

    pr = ModelParams(2, 0.7, 1)
    res = MC.run_experiment(pr, 4, 1500, seed=13)
    exact = float(analytic.ev_vk_1d(pr, 4, 1))
    est = res.estimates[("F", "V1")]
    assert abs(est.mean - exact) < 4 * est.stderr
    assert ("F", "V2") not in res.estimates


def test_sample_count_validation():
    with pytest.raises(ValueError):
        MC.run_experiment(ModelParams(2, 0.5, 2), 2, 1, seed=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_refused(workers):
    with pytest.raises(ValueError, match="workers"):
        MC.run_experiment(ModelParams(2, 0.6, 2), 2, 10, seed=1, workers=workers)


def test_worker_pool_sized_to_the_blocks(monkeypatch):
    # ten replicates make at most ten blocks, whatever the worker count; a
    # stand-in pool records its size and chunks and maps in this process, so
    # none is started
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            pools.append(chunksize)
            return map(fn, iterable)

    monkeypatch.setattr(MC, "ProcessPoolExecutor", SerialPool)
    params = ModelParams(2, 0.6, 2)
    pooled = MC.run_experiment(params, 2, 10, seed=1, workers=5000)
    assert pools == [10, 1]
    assert pooled.estimates == MC.run_experiment(params, 2, 10, seed=1).estimates
    MC.run_experiment(params, 2, 10, seed=1, workers=3)  # blocks of 4, 4 and 2
    assert pools == [10, 1, 3, 1]
    # a budget of one lattice: ten blocks of one, fed to three workers in runs of four
    pools.clear()
    one = _lattice_charge(4**2, 1)
    pooled = MC.run_experiment(params, 2, 10, seed=1, workers=3, budget_bytes=one)
    assert pools == [3, 4]
    assert pooled.estimates == MC.run_experiment(params, 2, 10, seed=1).estimates


def test_refused_grid_starts_no_workers(monkeypatch):
    # the grid is checked before any pool is built, not in the blocks
    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(MC, "ProcessPoolExecutor", no_pool)
    params = ModelParams(2, 0.5, 2)
    for grid in ((0.7, 0.5), (), (0.5, 0.5, 0.3)):
        with pytest.raises(ArgumentError, match="ascending"):
            MC.run_experiment(params, 2, 10, seed=0, workers=2, grid=grid)
    with pytest.raises(ArgumentError, match="-0.1"):
        MC.run_experiment(params, 2, 10, seed=0, workers=2, grid=(-0.1, 0.5))


def test_refused_level_starts_no_workers(monkeypatch):
    # the level is checked before any block is drawn or pool started
    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(MC, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ArgumentError, match="level n"):
        MC.run_experiment(ModelParams(2, 0.6, 2), -1, 10, seed=1, workers=2)


def test_refused_connectivity_draws_nothing(monkeypatch):
    # the connectivity is checked before any block is drawn or pool started,
    # whether or not spanning is requested
    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(MC, "ProcessPoolExecutor", no_pool)
    draws = _counted_draws(monkeypatch)
    for workers in (1, 2):
        for axes in ((), ("x",), ("x", "y")):
            MC._grid_values.cache_clear()
            with pytest.raises(ArgumentError, match="connectivity"):
                MC.run_experiment(ModelParams(2, 0.7, 2), 3, 10, 0, connectivity=6,
                                  spanning_axes=axes, workers=workers)
    assert draws == []


def test_default_functionals_cover_every_k_up_to_d():
    res = MC.run_experiment(ModelParams(3, 0.7, 1), 3, 20, seed=4)
    assert set(res.estimates) == {(t, f) for t in ("F", "C") for f in ("V0", "V1")}
    assert all(est.count == 20 for est in res.estimates.values())
    res = MC.run_experiment(ModelParams(2, 0.7, 2), 2, 20, seed=4)
    assert {f for _, f in res.estimates} == {"V0", "V1", "V2"}


def test_oracle_bridge_at_level_one():
    # sample means meet the exact enumeration values at 4 sigma
    from fractions import Fraction

    from fracperc import oracle

    p = Fraction(3, 5)
    pr = ModelParams(2, float(p), 2)
    result = MC.run_experiment(pr, 1, 100_000, seed=2718)
    for target in ("F", "C"):
        est = result.estimates[(target, "V0")]
        exact = float(oracle.enumerate_2d(2, p, 1, "V0", target))
        assert abs(est.mean - exact) < 4 * est.stderr, (target, est.mean, exact)


def test_csv_round_trip(tmp_path):
    res = MC.run_experiment(ModelParams(2, 0.6, 2), 3, 60, seed=8)
    rows = res.to_rows()
    path = tmp_path / "out.csv"
    MC.write_csv(path, MC.CSV_COLUMNS, [[row[c] for c in MC.CSV_COLUMNS] for row in rows])
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for raw, row in zip(back, rows):
        assert int(raw["count"]) == row["count"]
        assert float(raw["mean"]) == row["mean"]  # 17 digits round-trip exactly
        if row["rescaled_mean"] is None:
            assert raw["rescaled_mean"] == ""
        else:
            assert float(raw["rescaled_mean"]) == row["rescaled_mean"]


def test_manifest(tmp_path):
    path = tmp_path / "run.manifest.json"
    manifest = MC.write_manifest(
        path, seed=123, config_text="a=1\n", elapsed=0.5, extra={"rows": 4}
    )
    assert manifest["seed"] == 123
    assert manifest["rows"] == 4
    import json

    on_disk = json.loads(path.read_text())
    assert on_disk["config_sha256"] == MC.config_digest("a=1\n")
