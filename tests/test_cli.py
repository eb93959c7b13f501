"""CLI behaviour: config round-trip, outputs, exit codes, negative control."""

import argparse
import collections
import csv
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_simulate_runs_one_experiment_per_grid_point(tmp_path, monkeypatch):
    # one run_experiment call per p with all the replicates, coupled or not:
    # tools that count drawn replicates sum ExperimentResult.samples over them
    calls = []

    def counted(params, n, samples, *args, **kwargs):
        result = original(params, n, samples, *args, **kwargs)
        calls.append((params.p, result.samples, kwargs["grid"]))
        return result

    original = montecarlo.run_experiment
    monkeypatch.setattr(montecarlo, "run_experiment", counted)
    grid = [0.5, 0.52, 0.54, 0.56]
    for extra, drawn_over in (([], grid), (["--independent"], None)):
        calls.clear()
        rc = cli.main(["simulate", "-M", "2", "-n", "3", "--p-start", "0.5", "--p-stop", "0.56",
                       "--samples", "20", "--seed", "3", "--out", str(tmp_path), *extra])
        assert rc == EXIT_OK
        assert calls == [(p, 20, drawn_over) for p in grid]


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
    assert montecarlo._block_size(params, 4, sampler.DEFAULT_BUDGET_BYTES, 1) > 3
    assert montecarlo._block_size(params, 4, small, 1) == 3
    csv_bytes = []
    for budget in (sampler.DEFAULT_BUDGET_BYTES, small):
        out = tmp_path / f"b{budget}"
        rc = cli.main(["simulate", "-M", "2", "-n", "4", "-p", "0.6", "--samples", "50",
                       "--seed", "7", "--spanning", "x", "--budget-bytes", str(budget),
                       "--out", str(out)])
        assert rc == EXIT_OK
        csv_bytes.append((out / "simulation.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1]


def test_budget_below_one_scored_lattice_exits_as_a_resource_guard(tmp_path, capsys):
    # 12,288 bytes draw one n = 4 lattice but cannot score it over the 296-point grid
    out = tmp_path / "refused"
    rc = cli.main(["simulate", "-M", "2", "-n", "4", "--p-step", "0.0025", "--samples", "2",
                   "--seed", "1", "--budget-bytes", "12288", "--out", str(out)])
    assert rc == EXIT_RESOURCE
    assert "296 point(s) needs 54016 bytes, over 12288" in capsys.readouterr().err
    assert not out.exists()


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


def test_p_grid_follows_the_model_dimension(tmp_path):
    # a d = 1 simulation grid starts above 1/M, not 1/M^2
    out = tmp_path / "sim"
    assert cli.main(["simulate", "-M", "2", "-d", "1", "-n", "1", "--samples", "2",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
    with open(out / "simulation.csv") as fh:
        assert min(float(row["p"]) for row in csv.DictReader(fh)) == 0.52
    # curves evaluates d = 2 formulas, so a configured d must not move its p grid
    cfg = tmp_path / "d1.cfg"
    cfg.write_text("d=1\n")
    digests = []
    for name, extra in (("plain", []), ("d1", ["--config", str(cfg)])):
        out = tmp_path / name
        assert cli.main(["curves", "-M", "2", "--out", str(out), *extra]) == EXIT_OK
        digests.append([(out / f).read_bytes() for f in ("curves_f.csv", "curves_c.csv",
                                                         "limits.csv")])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("M, d, step", [(2, 2, 4e-5), (2, 1, 1.6e-4), (4, 2, 1e-5), (5, 2, 3.2e-4),
                                         (10, 2, 8e-5)])
def test_fine_p_step_starts_above_the_domain_bound(M, d, step):
    # lo / step can round down onto a whole number of steps that lands on lo itself
    lo = 1.0 / M**d
    grid = cli._p_grid(RunConfig(M=M, p_step=step), d)
    assert grid[0] > lo >= round(grid[0] - step, 12)


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


def test_render_pbm_digest_pinned(tmp_path):
    # byte identity of the one-replicate path through sample, label and write_pbm
    out = tmp_path / "pic.pbm"
    rc = cli.main(["render", "-M", "3", "-p", "0.7", "-n", "5", "--seed", "1", "--spanning-mask",
                   "--out", str(out)])
    assert rc == EXIT_OK
    for name, digest in (
        ("pic.pbm", "c4341de228903dbeae98300ad436decfcb95940c684c31a9be2a2c83109d12a8"),
        ("pic_spanning.pbm", "19b5f8092f0ab95686e34240bdb7a1ba1e1f2a576d0d0aa36eddb46b5e50b4d7"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert json.loads((tmp_path / "pic.manifest.json").read_text())["elapsed_seconds"] > 0


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


def test_thresholds_stdout_digest_pinned(capsys):
    # the float bits of p0, p_min, p1 and their residuals, found on the limit curves
    assert cli.main(["thresholds", "--m-list", "2,3,4,8,32,128,1024"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "6b2823478d1b797f9e6e7038305f60f57b6d37ed71cd6a0bb8fbb96b7fb6240e"


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


def test_verify_full_stdout_digest_pinned(capsys):
    # byte identity of the full report: the larger oracle envelope, 2,000
    # duality grids and 4,000 Monte Carlo samples
    assert cli.main(["verify", "--full"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "fbaace8258f1b9db05f9391af4b2d632a80d42dfe9fdaae3b9bd420bcb1fc2b8"


def test_verify_module_entry_point():
    # the entry() path of the console script, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "fracperc.cli", "verify"], cwd=root, env=env,
                          capture_output=True, check=False)
    assert done.returncode == EXIT_OK, done.stderr.decode()
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == "ba4c084ecb755e00e9e3c87a8c92cf8db86d9929de91cc8244747660b3376600"


def test_closed_reader_ends_the_run_without_a_traceback():
    # the reader of stdout is gone before the first line is written, as in
    # `fracperc oracle ... | head -c 1`: exit 1 and nothing on stderr
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["oracle", "-M", "2", "-d", "2", "-n", "1", "-p", "1/2", "--functional", "V2"]
    proc = subprocess.Popen([sys.executable, "-m", "fracperc.cli", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b"", stderr.decode()  # no BrokenPipeError traceback


# one tampered closed form per exact group, and one limit: (name, where it
# is shifted, offset, the group that must fail). The recursion is tampered
# at its top level only, so no lower level scales the offset.
_TAMPERED = (
    ("ev_vk_1d", lambda params, n, k: k == 1, Fraction(1, 7), "oracle_vs_analytic_1d"),
    ("ev", lambda params, n, k, target: True, Fraction(1, 11), "oracle_vs_analytic_2d"),
    ("ev_n_isolated_1d", lambda params, n: n == 20, Fraction(1, 13), "level_recursions"),
    ("limit_vk_2d", lambda params, k: k == 0, 1e-3, "limit_consistency"),
)


def test_verify_negative_control(monkeypatch, capsys):
    # a tampered closed form must make verification fail with exit code 3,
    # its group reporting the offset as its worst residual
    from fracperc import analytic

    for name, tampered_at, offset, group in _TAMPERED:
        real = getattr(analytic, name)

        def tampered(*args, real=real, tampered_at=tampered_at, offset=offset):
            value = real(*args)
            return value + offset if tampered_at(*args) else value

        with monkeypatch.context() as patch:
            patch.setattr(analytic, name, tampered)
            rc = cli.main(["verify", "--seed", "20240801"])
        assert rc == EXIT_VERIFY, name
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        groups = {g["name"]: g for g in report["groups"]}
        assert groups[group]["passed"] is False, name
        # exact groups report the offset exactly, the limit group within its tolerance
        tolerance = groups[group]["details"].get("tolerance", 0)
        assert abs(groups[group]["worst_residual"] - float(offset)) <= tolerance, name
        assert groups["oracle_vs_analytic_1d"]["details"] == {"comparisons": 90}
        assert groups["oracle_vs_analytic_2d"]["details"] == {"comparisons": 36}
        assert groups["level_recursions"]["details"] == {"levels": 20}


def test_verify_negative_control_geometry(monkeypatch, capsys):
    # a tampered route of geometry_duality must fail it with exit code 3 and
    # the offset as its worst residual: F's edges_shared of one lattice per
    # audit stack, which enters no V0, then the cross-check of one lattice
    from fracperc import geometry

    def audit(occ, real=geometry.audit_counters):
        counters = real(occ)
        counters[0, 0, 2] += 1
        return counters

    def crosscheck(occ, real=geometry.euler_crosscheck):
        chi = real(occ)
        chi[0] -= 1
        return chi

    for name, tampered in (("audit_counters", audit), ("euler_crosscheck", crosscheck)):
        with monkeypatch.context() as patch:
            patch.setattr(geometry, name, tampered)
            rc = cli.main(["verify", "--seed", "20240801"])
        assert rc == EXIT_VERIFY, name
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False, name
        groups = {g["name"]: g for g in report["groups"]}
        assert [g for g in groups if not groups[g]["passed"]] == ["geometry_duality"], name
        assert groups["geometry_duality"]["worst_residual"] == 1.0, name
        assert groups["geometry_duality"]["details"] == {"grids": 300}, name


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
        # no lattice level to default to: 1^n never exceeds the side cap
        ["simulate", "-M", "1", "-p", "0.6", "--samples", "2", "--seed", "1",
         "--out", str(tmp_path / "s")],
        # seeds are 64-bit: -3 and 2**64 - 3 would draw the same lattices
        sim[:-4] + ["--seed", "-3"] + sim[-2:],
        sim[:-4] + ["--seed", str(2**64)] + sim[-2:],
        ["verify", "--seed", "-1"],
        ["curves", "--p-step", "nan", "--out", str(tmp_path / "c")],
        ["curves", "--p-start", "inf", "--out", str(tmp_path / "c")],
        ["simulate", "-n", "2", "--samples", "2", "--seed", "1", "--p-step", "nan",
         "--out", str(tmp_path / "s")],
        ["simulate", "-n", "2", "--samples", "2", "--seed", "1", "--p-stop", "nan",
         "--out", str(tmp_path / "s")],
        ["render", "-d", "1", "-n", "2", "-p", "0.6", "--seed", "1", "--spanning-mask",
         "--axis", "y", "--out", str(tmp_path / "r.pbm")],
        ["curves", "--m-list", ",", "--out", str(tmp_path / "c")],
        ["thresholds", "--m-list", ","],
        # a budget below one byte is malformed input, not a lattice over budget
        ["simulate", "-n", "2", "-p", "0.6", "--samples", "3", "--seed", "1",
         "--budget-bytes", "0", "--out", str(tmp_path / "s")],
        ["render", "-n", "2", "-p", "0.6", "--seed", "1", "--budget-bytes", "-1",
         "--out", str(tmp_path / "r.pbm")],
    ):
        assert cli.main(argv) == EXIT_CONFIG, argv


@pytest.mark.parametrize("argv, message", [
    (["curves", "-M", "1"], "needs M >= 2, got M = 1"),
    (["simulate", "-M", "1", "-n", "2"], "needs M >= 2, got M = 1"),
    (["oracle", "-M", "1", "-d", "2", "-n", "1", "-p", "1/2"], "M must be an integer >= 2, got 1"),
])
def test_subdivision_count_below_two_exits_2_naming_m(tmp_path, monkeypatch, capsys, argv,
                                                     message):
    # a p grid above 1/M^d, and a 2-d oracle instance, need M >= 2
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_empty_p_grid_names_both_ends(tmp_path, capsys):
    out = tmp_path / "c"
    assert cli.main(["curves", "--p-start", "0.9", "--p-stop", "0.5", "--out", str(out)]) == 2
    assert "p_start = 0.9 lies above p_stop = 0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "-n", "2", "-p", "0.6", "--samples", "1"],
    ["simulate", "-n", "2", "-p", "0.6", "--workers", "0"],
    ["simulate", "-n", "-1", "-p", "0.6"],
    ["simulate", "-M", "1", "-n", "2", "-p", "0.6"],
    ["render", "-n", "-1", "-p", "0.6"],
    ["render", "-M", "1", "-n", "2", "-p", "0.6"],
])
def test_refused_run_writes_nothing(tmp_path, argv):
    # the library refuses these arguments; the output directory is made
    # only once the runs have succeeded
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "1", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_parser_flags_pinned():
    # each command takes the flags it took before they were declared on
    # RunConfig's fields; only -p names two fields (p, and oracle's p_exact)
    expected = {
        "curves": "-M --n-list --m-list --out --p-start --p-stop --p-step --config",
        "simulate": "-M -d -n -p --p-start --p-stop --p-step --samples --seed --connectivity "
                    "--out --spanning --independent --workers --budget-bytes --config",
        "thresholds": "--m-list --out --config",
        "verify": "--seed --full --config",
        "render": "-M -d -n -p --seed --connectivity --axis --out --spanning-mask "
                  "--budget-bytes --config",
        "oracle": "-M -d -n -p --functional --target --config",
    }
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(expected)
    for command, flags in expected.items():
        parsed = {s for a in commands.choices[command]._actions for s in a.option_strings}
        assert parsed - {"-h", "--help"} == set(flags.split()), command
    declared = collections.Counter(
        flag for f in dataclasses.fields(RunConfig) for flag in f.metadata.get("flags", ()))
    assert {flag: count for flag, count in declared.items() if count > 1} == {"-p": 2}


@pytest.mark.parametrize("command, flag, key, value", [
    ("simulate", "--connectivity", "connectivity", "5"),
    ("render", "--axis", "axis", "z"),
    ("simulate", "--spanning", "spanning", "diag"),
    ("simulate", "-d", "d", "3"),
    ("simulate", "-n", "n", "two"),
    ("simulate", "--p-step", "p_step", "x"),
    ("curves", "--n-list", "n_list", "a,b"),
])
def test_bad_value_exits_2_as_flag_and_as_config_line(tmp_path, capsys, command, flag, key,
                                                      value):
    # a config-file value is converted and checked like its flag
    quick = {"simulate": ["-n", "1", "-p", "0.6", "--samples", "2", "--seed", "1"],
             "render": ["-n", "1", "-p", "0.6", "--seed", "1"], "curves": []}[command]
    argv = [command, *quick, "--out", str(tmp_path / "out")]
    assert cli.main(argv + [flag, value]) == EXIT_CONFIG
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}={value}\n")
    capsys.readouterr()
    assert cli.main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {key}")
    assert not (tmp_path / "out").exists()


def test_public_names_resolve():
    import fracperc

    assert all(hasattr(fracperc, name) for name in fracperc.__all__)
    namespace = {}
    exec("from fracperc import *", namespace)
    assert set(fracperc.__all__) <= set(namespace)


def test_readme_quickstart_runs():
    # the README's python block, run as written, keeps it in step with the API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_examples_parse():
    # the README's command lines, parsed without running them, keep it in
    # step with the options declared on RunConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```sh\n(fracperc .*?)^```", readme, re.S | re.M)
    lines = [line.split("#")[0].replace("[", "").replace("]", "") for line in block.splitlines()]
    assert len(lines) == 6
    parser = cli.build_parser()
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "fracperc"
        parser.parse_args(argv)


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    # a ValueError from inside a handler is a bug, not bad user input
    from fracperc import thresholds

    def broken(M):
        raise ValueError("internal failure")

    monkeypatch.setattr(thresholds, "threshold_report", broken)
    with pytest.raises(ValueError, match="internal failure"):
        cli.main(["thresholds", "--m-list", "2"])
