"""Accumulator statistics, shard invariance, coupling, CSV output."""

import csv
import math

import numpy as np
import pytest

from fracperc import montecarlo as MC
from fracperc import sampler as S
from fracperc.analytic import ModelParams
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


def _per_replicate_reference(params, n, samples, seed, functionals, axes):
    """The estimates of run_experiment, one sample, window pass and labelling per replicate."""
    from fracperc import geometry as G

    index = {"V0": 0, "V1": 1, "V2": 2}
    values = {(t, f): [] for t in ("F", "C") for f in functionals}
    spans = {axis: [] for axis in axes}
    for i in range(samples):
        grid = S.sample(params, n, seed, i)
        pair = dict(zip(("F", "C"), G.minkowski_pair(grid)))
        for (target, functional), column in values.items():
            column.append(float(pair[target].vk(index[functional])))
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
def test_blocked_run_matches_per_replicate_reference(monkeypatch, M, d, n, p, axes):
    params = ModelParams(M, p, d)
    functionals = ("V0", "V1", "V2")[: d + 1]
    ref_est, ref_span = _per_replicate_reference(params, n, 137, 41, functionals, axes)
    cells = M ** (d * n)
    # one block per shard, then blocks of 5 and 7 replicates with a short last block
    for shards, block_cells in ((1, MC.BLOCK_CELLS), (3, MC.BLOCK_CELLS), (1, 5 * cells),
                                (3, 7 * cells + 1)):
        monkeypatch.setattr(MC, "BLOCK_CELLS", block_cells)
        result = MC.run_experiment(params, n, 137, 41, functionals=functionals,
                                   spanning_axes=axes, shards=shards)
        assert result.samples == 137
        for got, want in ((result.estimates, ref_est), (result.spanning, ref_span)):
            assert got.keys() == want.keys()
            for key, est in want.items():
                assert (got[key].count, got[key].mean, got[key].m2) == (est.count, est.mean, est.m2)


def test_spanning_y_refused_in_one_dimension():
    pr = ModelParams(2, 0.7, 1)
    with pytest.raises(ValueError, match="d = 2"):
        MC.run_experiment(pr, 3, 10, seed=0, functionals=(), spanning_axes=("y",))
    with pytest.raises(ValueError, match="d = 2"):
        MC.spanning_probability(pr, 3, 10, seed=0, axis="y")
    with pytest.raises(ValueError, match="axis"):
        MC.spanning_probability(ModelParams(2, 0.7, 2), 3, 10, seed=0, axis="z")
    # spanning along x keeps its meaning: the whole interval survives
    assert MC.spanning_probability(ModelParams(2, 1.0, 1), 3, 10, seed=0).mean == 1.0


def test_merge_invariance_across_shardings():
    pr = ModelParams(2, 0.6, 2)
    base = MC.run_experiment(pr, 3, 800, seed=5, shards=1)
    for shards in (8, 64):
        other = MC.run_experiment(pr, 3, 800, seed=5, shards=shards)
        for key, est in base.estimates.items():
            rel = abs(other.estimates[key].mean - est.mean) / max(1.0, abs(est.mean))
            assert rel <= 1e-12


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


def test_coupled_spanning_probability_monotone():
    values = []
    for p in (0.5, 0.65, 0.8, 0.95):
        est = MC.spanning_probability(ModelParams(2, p, 2), 5, 150, seed=31)
        values.append(est.mean)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_spanning_trivial():
    assert MC.spanning_probability(ModelParams(2, 1.0, 2), 3, 20, seed=0).mean == 1.0
    assert MC.spanning_probability(ModelParams(2, 0.0, 2), 3, 20, seed=0).mean == 0.0
    est = MC.spanning_probability(ModelParams(2, 1.0, 2), 3, 20, seed=0, axis="y")
    assert est.mean == 1.0


def test_independent_seeds_differ_from_coupled():
    s1 = MC.per_p_seed(7, 0.4)
    s2 = MC.per_p_seed(7, 0.42)
    assert s1 != s2 != 7
    a = S.sample(ModelParams(2, 0.5, 2), 4, seed=s1).occupancy
    b = S.sample(ModelParams(2, 0.5, 2), 4, seed=s2).occupancy
    assert not np.array_equal(a, b)


def test_d1_experiment():
    from fracperc import analytic

    pr = ModelParams(2, 0.7, 1)
    res = MC.run_experiment(pr, 4, 1500, seed=13, functionals=("V0", "V1"))
    exact = float(analytic.ev_vk_1d(pr, 4, 1))
    est = res.estimates[("F", "V1")]
    assert abs(est.mean - exact) < 4 * est.stderr
    with pytest.raises(ValueError):
        MC.run_experiment(pr, 2, 10, seed=0, functionals=("V2",))


def test_sample_count_validation():
    with pytest.raises(ValueError):
        MC.run_experiment(ModelParams(2, 0.5, 2), 2, 1, seed=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_refused(workers):
    with pytest.raises(ValueError, match="workers"):
        MC.run_experiment(ModelParams(2, 0.6, 2), 2, 10, seed=1, workers=workers)


@pytest.mark.parametrize("shards", [0, -2])
def test_shards_below_one_refused(shards):
    with pytest.raises(ValueError, match="shards"):
        MC.run_experiment(ModelParams(2, 0.6, 2), 2, 10, seed=1, shards=shards)


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
    result = MC.run_experiment(pr, 1, 100_000, seed=2718, functionals=("V0",))
    for target in ("F", "C"):
        est = result.estimates[(target, "V0")]
        exact = float(oracle.enumerate_2d(2, p, 1, "V0", target))
        assert abs(est.mean - exact) < 4 * est.stderr, (target, est.mean, exact)


def test_csv_round_trip(tmp_path):
    res = MC.run_experiment(ModelParams(2, 0.6, 2), 3, 60, seed=8)
    rows = res.to_rows()
    path = tmp_path / "out.csv"
    MC.write_csv(rows, path)
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
