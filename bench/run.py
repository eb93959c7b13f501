"""fracperc benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload sweep|deep|exact --seed N --seconds S --trace 0|1 [--quick]

Run it from anywhere; it finds the package in ``src/`` next to this
directory. A run repeats the workload's command, each time in a fresh
interpreter with ``--workers 1``, until the next repeat would end after
``--seconds`` (at least once; each repeat is a "round"). It then checks
the outputs (see checks.py) and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` operations, and the metrics.

* ``--trace 0`` reports the end-to-end metrics: medians over the rounds of
  the command's wall time and peak RSS and of replicates per second, and
  the median time of several fresh ``import fracperc``.
* ``--trace 1`` runs one untraced and one traced round and reports the
  per-layer metrics of the traced one (see spans.py), and the difference
  of the two wall times as ``trace.overhead_s``.
* ``--quick`` runs every check on tiny inputs in seconds.

Outputs go to a temporary directory under ``.bench_build/`` that is
removed at exit. README.md gives the workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy
import scipy

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
#: Per-command limit, so that a run ends within three minutes.
CHILD_TIMEOUT_S = 150
SETUP_IMPORTS = 5


class Workload:
    """One workload: its command, what it prints, and how to check that."""

    def output(self, out: Path, stdout: str) -> bytes:
        """What every round at the same seed must print identically."""
        return (out / "simulation.csv").read_bytes()

    def probe(self, fp, tmp: Path) -> int:
        """Failed operations of the untimed probe that follows each round."""
        return 0


class Sweep(Workload):
    """``simulate -M 2 -n 8`` over the default coupled grid of 37 p values."""

    M, n, points = 2, 8, 37
    #: Workers-invariance probe: a slice of the same grid at a fixed seed,
    #: so that its outcome does not depend on the benchmark seed.
    PROBE = ["simulate", "-M", "2", "-n", "8", "--p-start", "0.5", "--p-stop", "0.52",
             "--samples", "40", "--seed", "7"]

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.samples = 30 if quick else 50
        self.replicates = self.points * self.samples
        self.operations = self.points + 1

    def command(self, out: Path) -> list[str]:
        return ["simulate", "-M", str(self.M), "-n", str(self.n), "--samples", str(self.samples),
                "--seed", str(self.seed), "--workers", "1", "--out", str(out)]

    def check(self, fp, out: Path, stdout: str) -> list[str]:
        rows = checks.read_rows(out / "simulation.csv")
        problems = []
        if len(rows) != 6 * self.points:
            problems.append(f"{len(rows)} rows, expected {6 * self.points}")
        problems += checks.check_minkowski_rows(rows, self.M, self.samples, _ev(fp))
        return problems + checks.check_sweep_properties(rows)

    def probe(self, fp, tmp: Path) -> int:
        csv = []
        for workers in ("2", "1"):
            out = tmp / f"probe-w{workers}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = fp.cli.main(self.PROBE + ["--workers", workers, "--out", str(out)])
            csv.append((out / "simulation.csv").read_bytes() if rc == 0 else None)
        return int(csv[0] is None or csv[0] != csv[1])


class Deep(Workload):
    """``simulate -M 2 -p 0.7 --spanning both`` at the default level 12."""

    M, p = 2, 0.7
    #: Replicates whose component counts are also compared with label().
    LABELLED = 2

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n = 10 if quick else 12
        self.samples = 4 if quick else 12
        self.replicates = self.samples
        self.operations = self.samples

    def command(self, out: Path) -> list[str]:
        return ["simulate", "-M", str(self.M), "-p", str(self.p), "-n", str(self.n),
                "--spanning", "both", "--samples", str(self.samples),
                "--seed", str(self.seed), "--workers", "1", "--out", str(out)]

    def check(self, fp, out: Path, stdout: str) -> list[str]:
        rows = checks.read_rows(out / "simulation.csv")
        problems = []
        if len(rows) != 8:
            problems.append(f"{len(rows)} rows, expected 8")
        problems += checks.check_minkowski_rows(rows, self.M, self.samples, _ev(fp))
        params = fp.ModelParams(self.M, self.p, 2)

        def draw(i):
            return fp.sampler.sample(params, self.n, self.seed, i)

        return problems + checks.check_deep_replicates(rows, draw, self.samples, self.LABELLED,
                                                       fp.geometry.label)


class Exact(Workload):
    """``verify --full``: exact oracle tables, closed forms, small MC groups."""

    def __init__(self, seed: int, quick: bool):
        # verify keeps its own default seed: its MC group applies a 4-sigma
        # bound to 12 rows, which some seeds would fail by chance.
        self.quick = quick
        self.comparisons = ({"oracle_vs_analytic_1d": 90, "oracle_vs_analytic_2d": 36} if quick
                            else {"oracle_vs_analytic_1d": 126, "oracle_vs_analytic_2d": 54})
        self.operations = sum(self.comparisons.values())
        # Replicates drawn by run_experiment: the mc_agreement group (two
        # configurations) and the determinism group (two runs of 400).
        self.replicates = 2 * (800 if quick else 4000) + 2 * 400
        self.oracle_n = 1 if quick else 2

    def command(self, out: Path) -> list[str]:
        return ["verify"] if self.quick else ["verify", "--full"]

    def output(self, out: Path, stdout: str) -> bytes:
        return stdout.encode()

    def check(self, fp, out: Path, stdout: str) -> list[str]:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return ["verify printed no JSON report"]
        problems = checks.check_verify_report(report, self.comparisons)
        n = self.oracle_n
        rec = run_child(["oracle", "-M", "2", "-d", "2", "-n", str(n), "-p", "1/2",
                         "--functional", "V2", "--target", "F"], out / "oracle", 0)
        want = Fraction(1, 2) ** n
        got = rec["stdout"].split("\n", 1)[0].strip()
        if rec["rc"] != 0 or got != f"{want.numerator}/{want.denominator}":
            problems.append(f"oracle V2(F) at M=2, n={n}, p=1/2 printed {got!r}, want {want}")
        return problems


WORKLOADS = {"sweep": Sweep, "deep": Deep, "exact": Exact}


def _ev(fp):
    def ev(M, p, n, k, target):
        return fp.analytic.ev(fp.ModelParams(M, p, 2), n, k, target)

    return ev


def run_child(args: list[str], out: Path, trace: int) -> dict:
    """Run ``fracperc.cli.main(args)`` in a fresh interpreter via child.py."""
    out.mkdir(parents=True, exist_ok=True)
    result = out / "child.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), str(trace), "--", *args],
        env=ENV, cwd=out, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"rc": None, "stdout": proc.stdout, "error": " | ".join(tail)}
    record = json.loads(result.read_text(encoding="utf-8"))
    record["stdout"] = proc.stdout
    return record


def setup_times(count: int, cwd: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to a completed import fracperc."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fracperc"], env=ENV, cwd=cwd,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def layer_metrics(traced: dict, untraced_wall: float, replicates: int) -> dict:
    """Per-layer metrics of one traced round; rates divide the work of a
    call by its inclusive time."""
    spans, work = traced["spans"], traced["work"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def rate(name):
        total = spans.get(name, [0, 0.0, 0.0])[1]
        return work.get(name, 0) / total if total > 0 else 0.0

    peaks = traced["peak_bytes_per_cell"]
    mc_self = self_s("montecarlo.run_experiment")
    metrics = {
        "rng.node_uniforms.calls": (calls("rng.node_uniforms"), "count"),
        "rng.node_uniforms.self_s": (self_s("rng.node_uniforms"), "s"),
        "rng.uniforms_per_s": (rate("rng.node_uniforms"), "1/s"),
        "sampler.sample.calls": (calls("sampler.sample"), "count"),
        "sampler.sample.self_s": (self_s("sampler.sample"), "s"),
        "sampler.living_nodes_per_s": (rate("sampler.sample"), "1/s"),
        "sampler.complement.self_s": (self_s("sampler.complement"), "s"),
        "sampler.peak_bytes_per_cell": (peaks["sampler"], "B/cell"),
        "geometry.minkowski_of_array.calls": (calls("geometry.minkowski_of_array"), "count"),
        "geometry.minkowski_of_array.self_s": (self_s("geometry.minkowski_of_array"), "s"),
        "geometry.minkowski_of_array.cells_per_s": (rate("geometry.minkowski_of_array"), "1/s"),
        "geometry.label.calls": (calls("geometry.label"), "count"),
        "geometry.label.self_s": (self_s("geometry.label"), "s"),
        "geometry.label.cells_per_s": (rate("geometry.label"), "1/s"),
        "geometry.label.peak_bytes_per_cell": (peaks["geometry.label"], "B/cell"),
        "montecarlo.run_experiment.self_s": (mc_self, "s"),
        "montecarlo.overhead_us_per_replicate": (1e6 * mc_self / replicates, "us"),
        "analytic.ev.calls": (calls("analytic.ev"), "count"),
        "analytic.ev.self_s": (self_s("analytic.ev"), "s"),
        "oracle.enumerate_1d.self_s": (self_s("oracle.enumerate_1d"), "s"),
        "oracle.enumerate_2d.self_s": (self_s("oracle.enumerate_2d"), "s"),
        "oracle.enumerate_2d.cold_s": (traced["cold_s"], "s"),
        "verify.run_verification.self_s": (self_s("verify.run_verification"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_spans(traced: dict) -> None:
    print("span                                      calls     total_s      self_s")
    for name, (calls, total, own) in sorted(traced["spans"].items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:40s} {calls:7d} {total:11.4f} {own:11.4f}")


def run(args, fp, tmp: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    setup = [] if args.trace else setup_times(2 if args.quick else SETUP_IMPORTS, tmp)
    traces = [0, 1] if args.trace else [0]
    rounds, problems = [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    while True:
        trace = traces[len(rounds)]
        out = tmp / f"round-{len(rounds) + 1}"
        rec = run_child(workload.command(out), out, trace)
        rounds.append(rec)
        attempted += workload.operations
        failed += workload.probe(fp, tmp)
        if rec["rc"] != 0:
            problems.append(f"round {len(rounds)}: exit code {rec['rc']} {rec.get('error', '')}")
            break
        print(f"round {len(rounds)}: trace={trace} wall_s={rec['wall_s']:.4f} "
              f"import_s={rec['import_s']:.4f} peak_rss_mb={rec['maxrss_kb'] / 1024:.1f}")
        if not rec["package"].startswith(str(SRC)):
            problems.append(f"imported {rec['package']}, not the checkout's src/")
        output = workload.output(out, rec["stdout"])
        if reference is None:
            reference = output
            problems += workload.check(fp, out, rec["stdout"])
        elif output != reference:
            problems.append(f"round {len(rounds)}: output differs from round 1 at the same seed")
        if len(rounds) < len(traces):
            continue
        elapsed = time.perf_counter() - start
        if args.trace or args.quick or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
        traces.append(0)
    metrics = {}
    if rounds[-1]["rc"] == 0:
        metrics = summarize(args, workload, rounds, setup, problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def summarize(args, workload, rounds, setup, problems) -> dict:
    if args.trace:
        traced = rounds[-1]
        print_spans(traced)
        drawn = traced["work"].get("montecarlo.run_experiment", 0)
        if drawn != workload.replicates:
            problems.append(f"traced round drew {drawn} replicates, expected {workload.replicates}")
        return layer_metrics(traced, rounds[0]["wall_s"], workload.replicates)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    walls = [r["wall_s"] for r in rounds]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
                        "unit": "MB"},
        "replicates_per_s": {"value": statistics.median(workload.replicates / w for w in walls),
                             "unit": "1/s"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny inputs, every check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracperc" / "__init__.py").is_file():
        print(f"no fracperc package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import fracperc
    import fracperc.cli

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
    }))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=build, prefix="run-") as tmp:
            result = run(args, fracperc, Path(tmp))
    finally:
        with contextlib.suppress(OSError):
            build.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
