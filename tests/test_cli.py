"""CLI behaviour: config round-trip, outputs, exit codes, negative control."""

import csv
import hashlib
import json

import pytest

from fracperc import cli, montecarlo, sampler
from fracperc.analytic import ModelParams
from fracperc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY, RunConfig


def test_config_round_trip():
    config = RunConfig(
        command="simulate",
        M=3,
        p=0.62,
        n=5,
        samples=123,
        seed=99,
        n_list=(2, 4),
        coupled=False,
        out="/tmp/x",
    )
    again = RunConfig.from_text(config.to_text())
    assert again == config
    # and once more through text: fixed point
    assert again.to_text() == config.to_text()


def test_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError):
        RunConfig.from_text("bogus=1\n")
    with pytest.raises(cli.ConfigError):
        RunConfig.from_text("samples\n")


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M=3\nsamples=11\nseed=4\n")
    out = tmp_path / "sim"
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--samples", "13", "-n", "2", "-p", "0.6",
         "--out", str(out)]
    )
    assert rc == EXIT_OK
    manifest = json.loads((out / "simulation.manifest.json").read_text())
    assert "samples=13" in manifest["config"]  # flag wins
    assert "M=3" in manifest["config"]  # file fills the rest
    assert manifest["seed"] == 4


def test_simulation_csv_independent_of_workers(tmp_path):
    csv_bytes = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        rc = cli.main(["simulate", "-M", "2", "-n", "4", "-p", "0.6", "--samples", "40",
                       "--seed", "7", "--workers", workers, "--out", str(out)])
        assert rc == EXIT_OK
        csv_bytes.append((out / "simulation.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1]


def test_simulation_csv_digest_pinned(tmp_path):
    # byte identity of simulation.csv across changes to the sampler, the
    # window pass, labelling and the accumulators
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "-M", "2", "-n", "5", "--p-start", "0.6", "--p-stop", "0.7",
                   "--samples", "30", "--seed", "11", "--spanning", "both", "--workers", "1",
                   "--out", str(out)])
    assert rc == EXIT_OK
    digest = hashlib.sha256((out / "simulation.csv").read_bytes()).hexdigest()
    assert digest == "3a575c2348bc93c5d4c6310f9c63f4c007fefe24715b870e84bd7b49b5cd4bfd"


@pytest.mark.parametrize("argv, expected", [
    (["-M", "2", "-d", "1", "-n", "6", "--p-start", "0.6", "--p-stop", "0.9", "--samples", "100",
      "--seed", "5", "--spanning", "x"],
     "ee632a9073e7269297a037fa0b2d4d5de826cf0c6e98d9bc894dcbfcb610b6c6"),
    (["-M", "3", "-n", "3", "--p-start", "0.5", "--p-stop", "0.8", "--samples", "100",
      "--seed", "3", "--spanning", "x"],
     "7796c7440cc1580fdeff6d4cc33520c46d20efd031f44c79d736f27b3c2a1736"),
], ids=["d1", "M3"])
def test_simulation_csv_digest_pinned_small_lattices(tmp_path, argv, expected):
    # many replicates per block of the batched sampler: one 1-d and one M = 3 command
    out = tmp_path / "sim"
    assert cli.main(["simulate", *argv, "--workers", "1", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256((out / "simulation.csv").read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("argv, expected", [
    (["-M", "2"],
     {"curves_f.csv": "2553e5af48cee5ba1acf8d58093564b6a2ec6254f9c3e96a7c8068edab9a5bb6",
      "curves_c.csv": "c5f371f14cc1a6536518915adfe3a7b3191d283ad9418971084a2a02aabe6b9a",
      "limits.csv": "60b6e1b579853a17ec9e4b358b4f7b17886c1c6202f2fea48bebdc931b6856ca"}),
    (["-M", "3", "--p-step", "0.01", "--n-list", "1,2,5,40"],
     {"curves_f.csv": "4b729c919e615c9cc4bdc8d976837413fec2c8459b8da286461c8bae5eb66b27",
      "curves_c.csv": "876101b975e2a6068f8d12a250a7217adb44cdc64c37e6ef0a4061ed190bc1ef",
      "limits.csv": "db0b305890199514e2094b8adb201710d99b752a9174df2b5847366c5e6dccf6"}),
], ids=["M2", "M3"])
def test_curves_csv_digest_pinned(tmp_path, argv, expected):
    # the float bits of the finite-level and limit closed forms behind curves
    out = tmp_path / "curves"
    assert cli.main(["curves", *argv, "--out", str(out)]) == EXIT_OK
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_budget_below_default_block_keeps_csv(tmp_path):
    # a budget that fits three lattices but not a default block runs smaller blocks
    params, cells = ModelParams(2, 0.6, 2), 4**4
    small = 3 * cells * sampler.PEAK_BYTES_PER_CELL
    assert montecarlo._block_size(params, 4, sampler.DEFAULT_BUDGET_BYTES) > 3
    assert montecarlo._block_size(params, 4, small) == 3
    csv_bytes = []
    for budget in (sampler.DEFAULT_BUDGET_BYTES, small):
        out = tmp_path / f"b{budget}"
        rc = cli.main(["simulate", "-M", "2", "-n", "4", "-p", "0.6", "--samples", "50",
                       "--seed", "7", "--spanning", "x", "--budget-bytes", str(budget),
                       "--out", str(out)])
        assert rc == EXIT_OK
        csv_bytes.append((out / "simulation.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1]


def test_curves_outputs(tmp_path):
    rc = cli.main(["curves", "-M", "2", "--out", str(tmp_path), "--n-list", "4,8",
                   "--m-list", "2,3"])
    assert rc == EXIT_OK
    with open(tmp_path / "curves_f.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"p", "n4", "n8", "ninf"}
    # the limit column changes sign inside (1/4, 1)
    signs = [float(r["ninf"]) > 0 for r in rows]
    assert signs[0] and not signs[-1]
    ps = [float(r["p"]) for r in rows]
    assert min(ps) > 0.25 and max(ps) < 1.0
    # complement file: negated limit curve also changes sign
    with open(tmp_path / "curves_c.csv") as fh:
        crows = list(csv.DictReader(fh))
    csigns = [float(r["ninf"]) > 0 for r in crows]
    assert csigns[0] and not csigns[-1]
    # the large-M column of the limits table is the cubic
    from fracperc.analytic import large_m_v

    with open(tmp_path / "limits.csv") as fh:
        lrows = list(csv.DictReader(fh))
    for row in lrows[:: max(1, len(lrows) // 7)]:
        assert float(row["f_inf"]) == pytest.approx(large_m_v(float(row["p"])), abs=1e-15)


def test_curves_domain_guard(tmp_path):
    rc = cli.main(["curves", "-M", "2", "--p-start", "0.2", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_render_deterministic_and_trivial(tmp_path):
    out1 = tmp_path / "a.pbm"
    out2 = tmp_path / "b.pbm"
    for out in (out1, out2):
        rc = cli.main(["render", "-M", "3", "-p", "0.7", "-n", "3", "--seed", "1",
                       "--out", str(out)])
        assert rc == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    black = tmp_path / "black.pbm"
    cli.main(["render", "-M", "2", "-p", "1.0", "-n", "2", "--seed", "3", "--out", str(black)])
    body = "".join(black.read_text().splitlines()[2:])
    assert body == "1" * 16
    white = tmp_path / "white.pbm"
    cli.main(["render", "-M", "2", "-p", "0.0", "-n", "2", "--seed", "3", "--out", str(white)])
    assert "".join(white.read_text().splitlines()[2:]) == "0" * 16


def test_render_spanning_mask_subset(tmp_path):
    out = tmp_path / "r.pbm"
    rc = cli.main(["render", "-M", "2", "-p", "0.9", "-n", "4", "--seed", "2",
                   "--out", str(out), "--spanning-mask"])
    assert rc == EXIT_OK
    mask_file = tmp_path / "r_spanning.pbm"
    grid_bits = "".join(out.read_text().splitlines()[2:])
    mask_bits = "".join(mask_file.read_text().splitlines()[2:])
    assert len(grid_bits) == len(mask_bits)
    assert all(g == "1" or m == "0" for g, m in zip(grid_bits, mask_bits))


def test_render_seed_recorded_when_generated(tmp_path):
    out = tmp_path / "r.pbm"
    rc = cli.main(["render", "-M", "2", "-p", "0.5", "-n", "2", "--out", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["seed_generated"] is True
    assert isinstance(manifest["seed"], int)
    assert f"seed={manifest['seed']}" in manifest["config"]


def test_render_budget_guard(tmp_path):
    rc = cli.main(["render", "-M", "2", "-p", "0.5", "-n", "18", "--seed", "1",
                   "--out", str(tmp_path / "big.pbm")])
    assert rc == EXIT_RESOURCE


def test_oracle_command_exact(tmp_path, capsys):
    rc = cli.main(["oracle", "-M", "2", "-d", "2", "-n", "2", "-p", "1/2",
                   "--functional", "V0", "--target", "C"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "271/256"
    rc = cli.main(["oracle", "-M", "2", "-d", "1", "-n", "1", "-p", "0.5",
                   "--functional", "V0", "--target", "K"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "3/4"
    rc = cli.main(["oracle", "-M", "5", "-d", "2", "-n", "3", "-p", "1/2"])
    assert rc == EXIT_RESOURCE
    rc = cli.main(["oracle", "-M", "2", "-d", "2", "-n", "1", "-p", "x"])
    assert rc == EXIT_CONFIG


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "-M", "2", "-n", "3", "-p", "0.6", "--samples", "40",
                   "--seed", "10", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "simulation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["functional"] for r in rows} == {"V0", "V1", "V2"}
    assert {r["target"] for r in rows} == {"F", "C"}
    manifest = json.loads((out / "simulation.manifest.json").read_text())
    assert manifest["seed"] == 10 and manifest["seed_generated"] is False


def test_simulate_default_level_is_desk_scale():
    # when n is omitted the level keeps the lattice side within 4096 cells
    assert cli._default_level(2) == 12
    assert cli._default_level(3) == 7
    assert cli._default_level(4) == 6
    assert cli._default_level(5) == 5


def test_simulate_spanning_column(tmp_path):
    out = tmp_path / "span"
    rc = cli.main(["simulate", "-M", "2", "-n", "3", "-p", "0.8", "--samples", "30",
                   "--seed", "4", "--out", str(out), "--spanning", "x"])
    assert rc == EXIT_OK
    with open(out / "simulation.csv") as fh:
        rows = list(csv.DictReader(fh))
    span_rows = [r for r in rows if r["functional"] == "span_x"]
    assert len(span_rows) == 1
    assert 0.0 <= float(span_rows[0]["mean"]) <= 1.0


def test_thresholds_command(tmp_path, capsys):
    rc = cli.main(["thresholds", "--m-list", "2,3"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert [d["M"] for d in data] == [2, 3]
    assert data[0]["p0"] == pytest.approx(0.7075231, abs=1e-6)
    out = tmp_path / "t.json"
    rc = cli.main(["thresholds", "--m-list", "2", "--out", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())[0]["M"] == 2


def test_verify_passes(capsys):
    rc = cli.main(["verify", "--seed", "20240801"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert {g["name"] for g in report["groups"]} >= {
        "oracle_vs_analytic_1d",
        "oracle_vs_analytic_2d",
        "geometry_duality",
        "mc_agreement",
    }


def test_verify_stdout_digest_pinned(capsys):
    # byte identity of the verify report (default seed) across changes to
    # the oracle, the geometry kernel and the Monte Carlo engine
    assert cli.main(["verify"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ba4c084ecb755e00e9e3c87a8c92cf8db86d9929de91cc8244747660b3376600"


def test_verify_negative_control(monkeypatch, capsys):
    # a tampered closed form must make verification fail with exit code 3
    from fracperc import analytic

    real = analytic.limit_vk_2d

    def tampered(params, k):
        value = real(params, k)
        return value + 1e-3 if k == 0 else value

    monkeypatch.setattr(analytic, "limit_vk_2d", tampered)
    rc = cli.main(["verify", "--seed", "20240801"])
    assert rc == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failing = {g["name"] for g in report["groups"] if not g["passed"]}
    assert "limit_consistency" in failing


def test_unknown_subcommand_exits_2():
    assert cli.main(["frobnicate"]) == EXIT_CONFIG


def test_pair_table_guard_exits_4(capsys):
    # (4, 2) passes the node budget, but its KK and DD tables would hold
    # 65,536 x 65,536 pattern pairs
    for target in ("KK", "DD"):
        rc = cli.main(["oracle", "-M", "4", "-d", "1", "-n", "2", "-p", "1/2",
                       "--functional", "V0", "--target", target])
        assert rc == EXIT_RESOURCE
    assert "pattern pairs" in capsys.readouterr().err


def test_user_input_errors_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples=many\n")
    cfg_d = tmp_path / "d3.cfg"
    cfg_d.write_text("d=3\n")
    sim = ["simulate", "-n", "2", "-p", "0.6", "--seed", "1", "--out", str(tmp_path / "s")]
    for argv in (
        ["simulate", "--config", str(cfg), "-n", "2", "-p", "0.6", "--out", str(tmp_path)],
        sim + ["--samples", "1"],
        sim[:1] + ["-M", "1"] + sim[1:],
        ["simulate", "-n", "-1", "-p", "0.6", "--seed", "1", "--out", str(tmp_path / "s")],
        ["render", "-n", "2", "-p", "1.5", "--seed", "1", "--out", str(tmp_path / "r.pbm")],
        ["thresholds", "--m-list", "1,2"],
        ["oracle", "--config", str(cfg_d), "-M", "2", "-n", "1", "-p", "1/2"],
        ["oracle", "-M", "2", "-d", "1", "-n", "1", "-p", "1/2", "--target", "F"],
        ["oracle", "-M", "2", "-d", "2", "-n", "1", "-p", "1/2", "--functional", "N"],
        ["curves", "--p-step", "0", "--out", str(tmp_path / "c")],
        ["simulate", "-n", "2", "--samples", "2", "--seed", "1", "--p-step", "0",
         "--out", str(tmp_path / "s")],
        sim + ["--workers", "0"],
        sim + ["--workers", "-1"],
        sim[:1] + ["-d", "1"] + sim[1:] + ["--spanning", "y"],
        sim[:1] + ["-d", "1"] + sim[1:] + ["--spanning", "both"],
        ["simulate", "-M", "0", "-n", "2", "--samples", "2", "--seed", "1",
         "--out", str(tmp_path / "s")],
        ["curves", "-M", "0", "--out", str(tmp_path / "c")],
        ["oracle", "-M", "0", "-d", "1", "-n", "1", "-p", "1/2", "--target", "K"],
    ):
        assert cli.main(argv) == EXIT_CONFIG, argv


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    # a ValueError from inside a handler is a bug, not bad user input
    from fracperc import thresholds

    def broken(M):
        raise ValueError("internal failure")

    monkeypatch.setattr(thresholds, "threshold_report", broken)
    with pytest.raises(ValueError, match="internal failure"):
        cli.main(["thresholds", "--m-list", "2"])
