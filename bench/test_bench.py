"""Tests of the benchmark itself: quick runs of every workload and its checks.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_passes_its_checks(workload):
    result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", "0", "--quick"))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The workers-invariance probe in sweep fails until the shard plan stops
    # following the worker count.
    probes = 1 if workload == "sweep" else 0
    assert result["failed"] == probes
    assert result["attempted"] > probes


def test_traced_quick_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "deep", "--seed", "5", "--seconds", "1",
                             "--trace", "1", "--quick"))
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["geometry.label.calls"]["value"] == 4
    assert metrics["sampler.sample.calls"]["value"] == 4
    assert metrics["geometry.minkowski_of_array.calls"]["value"] == 8
    assert metrics["geometry.label.peak_bytes_per_cell"]["value"] > 1
    assert metrics["oracle.enumerate_1d.self_s"]["value"] == 0


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_search_counts_corner_contact_as_connected():
    occ = np.array([[1, 0, 0, 1],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [1, 0, 0, 1]], dtype=bool)
    # One diagonal spans both axes; the two other corners stay apart.
    assert checks.components_bfs(occ) == (3, True, True)
    assert checks.components_bfs(np.zeros((3, 5), dtype=bool)) == (0, False, False)
    # Two rows, each spanning x, are two components.
    rows = np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]], dtype=bool)
    assert checks.components_bfs(rows) == (2, True, False)


def _area_rows(p, mean_f, stderr=0.01, count=100):
    return [
        {"p": p, "n": 1, "functional": "V2", "target": "F", "mean": mean_f,
         "stderr": stderr, "count": count},
        {"p": p, "n": 1, "functional": "V2", "target": "C", "mean": 1 - mean_f,
         "stderr": stderr, "count": count},
    ]


def test_checks_reject_broken_outputs():
    def ev(M, p, n, k, target):
        return p**n if target == "F" else 1 - p**n

    good = _area_rows(Fraction(1, 2), 0.5) + _area_rows(Fraction(3, 5), 0.61)
    assert checks.check_minkowski_rows(good, 2, 100, ev) == []
    assert checks.check_sweep_properties(good) == []
    biased = _area_rows(Fraction(1, 2), 0.6) + _area_rows(Fraction(3, 5), 0.61)
    assert checks.check_minkowski_rows(biased, 2, 100, ev)
    falling = _area_rows(Fraction(1, 2), 0.5) + _area_rows(Fraction(3, 5), 0.49)
    assert checks.check_sweep_properties(falling)
    short = _area_rows(Fraction(1, 2), 0.5, count=99)
    assert checks.check_minkowski_rows(short, 2, 100, ev)
    unbalanced = _area_rows(Fraction(1, 2), 0.5)
    unbalanced[1]["mean"] += 1e-9
    assert checks.check_sweep_properties(unbalanced)
