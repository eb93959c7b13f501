"""Command-line interface: curves, simulate, thresholds, verify, render, oracle.

Each option is declared once, on its :class:`RunConfig` field, which holds
its default, flags, commands, type, choices and help; the parser and the
config-file reader are both built from those fields, so a value read from
a config file is converted and checked like the flag. Configuration
precedence is flags > config file (key=value lines) > defaults; the
resolved configuration round-trips losslessly through its textual form and
is hashed into the run manifest of every randomized command. Exit codes: 0
success, 2 configuration error, 3 verification or bracketing failure, 4
resource guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import secrets
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import analytic, geometry, montecarlo, oracle, sampler, thresholds, verify
from .analytic import ArgumentError, ModelParams
from .montecarlo import format_float
from .oracle import InstanceTooLargeError
from .sampler import MemoryBudgetError
from .thresholds import BracketingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


#: Spanning axes estimated for each value of the ``spanning`` option.
_SPANNING_AXES = {"none": (), "x": ("x",), "y": ("y",), "both": ("x", "y")}

_GRID = ("curves", "simulate")
_LATTICE = ("simulate", "render")
_MODEL = ("simulate", "render", "oracle")


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v)


def _option(default, *flags, on, **kwargs):
    """A :class:`RunConfig` field declared as the option ``flags`` of the
    commands ``on``; ``kwargs`` (type, choices, action, const, help) go to
    ``add_argument`` as they are and also convert a config-file value."""
    return dataclasses.field(default=default, metadata={"flags": flags, "on": on, "kwargs": kwargs})


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation; round-trips via to_text."""

    command: str = ""
    M: int = _option(2, "-M", on=("curves", *_MODEL), type=int, help="subdivision count per axis")
    d: int = _option(2, "-d", on=_MODEL, type=int, choices=(1, 2), help="dimension")
    p: float | None = _option(None, "-p", on=_LATTICE, type=float,
                              help="retention probability; simulate runs it instead of a grid")
    p_start: float | None = _option(None, "--p-start", on=_GRID, type=float, help="first grid p")
    p_stop: float | None = _option(None, "--p-stop", on=_GRID, type=float, help="last grid p")
    p_step: float | None = _option(None, "--p-step", on=_GRID, type=float, help="grid spacing")
    n: int | None = _option(None, "-n", on=_MODEL, type=int, help="construction level")
    n_list: tuple = _option((4, 8, 12), "--n-list", on=("curves",), type=_int_list,
                            help="comma-separated levels of the finite-level curves")
    m_list: tuple = _option((2, 3, 4, 8, 32, 128, 1024), "--m-list", on=("curves", "thresholds"),
                            type=_int_list, help="comma-separated subdivision counts")
    samples: int = _option(2000, "--samples", on=("simulate",), type=int, help="replicates per p")
    seed: int | None = _option(None, "--seed", on=("simulate", "verify", "render"), type=int,
                               help="master seed")
    connectivity: int = _option(8, "--connectivity", on=_LATTICE, type=int, choices=(4, 8))
    axis: str = _option("x", "--axis", on=("render",), choices=("x", "y"))
    functional: str = _option("V0", "--functional", on=("oracle",),
                              help="V0, V1, V2 (2d) or V0, V1, N, contains0, contains1 (1d)")
    target: str = _option("F", "--target", on=("oracle",), help="F or C (2d); K, D, KK, DD (1d)")
    p_exact: str | None = _option(None, "-p", on=("oracle",),
                                  help="exact probability, e.g. 1/2 or 0.4")
    out: str = _option(".", "--out", on=("curves", "simulate", "thresholds", "render"),
                       help="output directory or file")
    spanning_mask: bool = _option(False, "--spanning-mask", on=("render",), action="store_const",
                                  const=True, help="also write the spanning-cluster mask")
    spanning: str = _option("none", "--spanning", on=("simulate",), choices=tuple(_SPANNING_AXES),
                            help="also estimate spanning probabilities")
    coupled: bool = _option(True, "--independent", on=("simulate",), action="store_const",
                            const=False, help="fresh uniforms per p instead of a shared stream")
    full: bool = _option(False, "--full", on=("verify",), action="store_const", const=True)
    workers: int = _option(1, "--workers", on=("simulate",), type=int)
    budget_bytes: int = _option(sampler.DEFAULT_BUDGET_BYTES, "--budget-bytes", on=_LATTICE,
                                type=int, help="memory budget in bytes of one rendered lattice"
                                " or one block of simulated replicates")

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls(**_read_config(text))


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce_one(name: str, text: str):
    """A config-file value converted by its field's flag type and checked
    against its choices; bool fields read ``true`` or ``false``."""
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown configuration key {name!r}")
    if isinstance(field.default, bool):
        if text not in ("true", "false"):
            raise ConfigError(f"{name} must be true or false, got {text!r}")
        return text == "true"
    kwargs = field.metadata.get("kwargs", {})
    try:
        value = kwargs.get("type", str)(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ConfigError(f"{name} must be one of {kwargs['choices']}, got {value!r}")
    return value


def _read_config(text: str, source: str | None = None) -> dict:
    """Field values of a configuration text of ``key=value`` lines; blank and
    ``#`` lines are skipped. ``source`` names the file in error messages."""
    where = f" in {source}" if source else ""
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value{where}, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return {k: _coerce_one(k, v) for k, v in values.items()}


def _merge_config(cli_values: dict, config_path: str | None) -> RunConfig:
    merged: dict = {}
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        merged.update(_read_config(text, config_path))
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    return RunConfig(**merged)


def _check_config(config: RunConfig) -> None:
    """Refuse the option values that the library cannot check before work
    starts; it checks every other one, and its ArgumentError exits 2 too."""
    if any(n < 0 for n in config.n_list):
        raise ConfigError(f"n_list entries must be nonnegative, got {config.n_list}")
    if not config.m_list or any(m < 2 for m in config.m_list):
        raise ConfigError(f"m_list needs one or more entries, each at least 2, got {config.m_list}")
    if config.seed is not None and not 0 <= config.seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {config.seed}")
    if config.d == 1 and config.spanning_mask and config.axis == "y":
        raise ConfigError("a spanning mask along y needs d = 2: a d = 1 lattice has one row")
    if config.budget_bytes < 1:
        raise ConfigError(f"budget_bytes must be at least 1, got {config.budget_bytes}")


def _require_seed(config: RunConfig) -> tuple:
    """Return (seed, generated_flag); a missing seed is drawn and recorded."""
    if config.seed is not None:
        return config.seed, False
    return secrets.randbits(63), True


def _p_grid(config: RunConfig, d: int) -> list:
    """The p grid of a d-dimensional model: it starts above the domain bound 1/M^d."""
    if config.M < 2:
        raise ConfigError(f"a p grid needs M >= 2, got M = {config.M}")
    for name in ("p_start", "p_stop", "p_step"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    lo_domain = 1.0 / config.M**d
    step = config.p_step if config.p_step is not None else 0.02
    if step <= 0:
        raise ConfigError("p_step must be positive")
    stop = config.p_stop if config.p_stop is not None else 0.99
    if config.p_start is not None:
        start = config.p_start
    else:
        k = int(lo_domain / step) + 1
        while round(k * step, 12) <= lo_domain:  # the division may round down
            k += 1
        start = round(k * step, 12)
    if start <= lo_domain:
        raise ConfigError(
            f"p grid start {start} violates the open domain p > {lo_domain} for M = {config.M}"
        )
    if stop >= 1:
        raise ConfigError("p grid must stay below 1")
    grid = []
    p = start
    while p <= stop + 1e-12:
        grid.append(round(p, 12))
        p += step
    if not grid:
        raise ConfigError(f"empty p grid: p_start = {start} lies above p_stop = {stop}")
    return grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_curves(config: RunConfig) -> int:
    grid = _p_grid(config, 2)
    m_list = tuple(config.m_list)
    lo = max(1.0 / m**2 for m in m_list)
    limits_grid = [p for p in grid if p > lo]
    if not limits_grid:
        raise ConfigError(
            f"no grid point exceeds the domain bound p > {lo} of the smallest M in m_list"
        )
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    n_list = tuple(config.n_list)
    headers = ["p"] + [f"n{n}" for n in n_list] + ["ninf"]
    f, c = thresholds.euler_curve, thresholds.complement_curve
    for fname, curve in {"curves_f.csv": f, "curves_c.csv": c}.items():
        rows = [[p, *(curve(config.M, p, n) for n in n_list), curve(config.M, p)] for p in grid]
        montecarlo.write_csv(out / fname, headers, rows)
    headers = ["p", *(f"f_M{m}" for m in m_list), "f_inf", *(f"c_M{m}" for m in m_list), "c_inf"]
    rows = [
        [p, *(f(m, p) for m in m_list), analytic.large_m_v(p),
         *(c(m, p) for m in m_list), analytic.large_m_vc(p)]
        for p in limits_grid
    ]
    montecarlo.write_csv(out / "limits.csv", headers, rows)
    print(f"wrote {out / 'curves_f.csv'}, {out / 'curves_c.csv'}, {out / 'limits.csv'}")
    return EXIT_OK


def _default_level(M: int, cap: int = 4096) -> int:
    """Largest level whose lattice side M^n stays within the desk-scale cap."""
    if M < 2:
        raise ConfigError(f"simulate needs M >= 2, got {M}")
    n = 0
    while M ** (n + 1) <= cap:
        n += 1
    return n


def cmd_simulate(config: RunConfig) -> int:
    n = config.n if config.n is not None else _default_level(config.M)
    seed, generated = _require_seed(config)
    grid = [config.p] if config.p is not None else _p_grid(config, config.d)
    axes = _SPANNING_AXES[config.spanning]
    t0 = time.perf_counter()
    rows = []
    for p in grid:
        params = ModelParams(config.M, p, config.d)
        run_seed = seed if config.coupled else montecarlo.per_p_seed(seed, p)
        result = montecarlo.run_experiment(
            params, n, config.samples, run_seed,
            connectivity=config.connectivity,
            spanning_axes=axes,
            workers=config.workers,
            budget_bytes=config.budget_bytes,
            grid=grid if config.coupled else None,
        )
        rows.extend(result.to_rows())
    out = Path(config.out)  # made only once every run has succeeded
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "simulation.csv"
    columns = montecarlo.CSV_COLUMNS
    montecarlo.write_csv(csv_path, columns, [[row[c] for c in columns] for row in rows])
    resolved = dataclasses.replace(config, seed=seed, n=n)
    montecarlo.write_manifest(
        out / "simulation.manifest.json",
        seed=seed,
        config_text=resolved.to_text(),
        elapsed=time.perf_counter() - t0,
        extra={"seed_generated": generated, "rows": len(rows)},
    )
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_thresholds(config: RunConfig) -> int:
    reports = []
    for M in config.m_list:
        rep = thresholds.threshold_report(M)
        reports.append(
            {
                "M": M,
                "p0": rep.p0,
                "pmin": rep.pmin,
                "p1": rep.p1,
                "p0_residual": rep.p0_residual,
                "p1_residual": rep.p1_residual,
                "known_lower": rep.known_bounds[0],
                "known_upper": rep.known_bounds[1],
            }
        )
    text = json.dumps(reports, indent=2)
    if config.out not in (".", "-"):
        Path(config.out).parent.mkdir(parents=True, exist_ok=True)
        Path(config.out).write_text(text + "\n", encoding="ascii")
        print(f"wrote {config.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    seed = config.seed if config.seed is not None else 20240801
    report = verify.run_verification(seed=seed, full=config.full)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_render(config: RunConfig) -> int:
    if config.n is None or config.p is None:
        raise ConfigError("render requires n and p")
    out = Path(config.out)
    if out.suffix != ".pbm":
        out = out / "realization.pbm"
    seed, generated = _require_seed(config)
    params = ModelParams(config.M, config.p, config.d)
    t0 = time.perf_counter()
    grid = sampler.sample(params, config.n, seed, budget_bytes=config.budget_bytes)
    out.parent.mkdir(parents=True, exist_ok=True)  # only once the draw has succeeded
    sampler.write_pbm(grid, out)
    written = [str(out)]
    if config.spanning_mask:
        labeling = geometry.label(grid, config.connectivity)
        mask = labeling.spanning_mask(config.axis)
        mask_path = out.with_name(out.stem + "_spanning" + out.suffix)
        sampler.write_pbm(grid, mask_path, mask=mask)
        written.append(str(mask_path))
    resolved = dataclasses.replace(config, seed=seed)
    montecarlo.write_manifest(
        out.with_suffix(".manifest.json"),
        seed=seed,
        config_text=resolved.to_text(),
        elapsed=time.perf_counter() - t0,
        extra={"seed_generated": generated, "files": written},
    )
    print("\n".join(written))
    return EXIT_OK


def cmd_oracle(config: RunConfig) -> int:
    if config.n is None:
        raise ConfigError("oracle requires n")
    if config.p_exact is None:
        raise ConfigError("oracle requires an exact probability (e.g. 1/2 or 0.4)")
    try:
        p = Fraction(config.p_exact)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse probability {config.p_exact!r}: {exc}") from exc
    enumerate_ = oracle.enumerate_1d if config.d == 1 else oracle.enumerate_2d
    value = enumerate_(config.M, p, config.n, config.functional, config.target)
    print(f"{value.numerator}/{value.denominator}")
    print(format_float(float(value)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMANDS = {
    "curves": (cmd_curves, "emit finite-level and limit curve tables"),
    "simulate": (cmd_simulate, "Monte Carlo estimation over a p grid"),
    "thresholds": (cmd_thresholds, "locate p0, p_min, p1 for a list of M"),
    "verify": (cmd_verify, "run the self-verification suite"),
    "render": (cmd_render, "write one realization as a PBM bitmap"),
    "oracle": (cmd_oracle, "exact enumeration expectation for tiny instances"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the option of every field declared on it."""
    parser = argparse.ArgumentParser(
        prog="fracperc",
        description="Fractal percolation: exact functionals, simulation, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for f in dataclasses.fields(RunConfig):
            if command in f.metadata.get("on", ()):
                sp.add_argument(*f.metadata["flags"], dest=f.name, default=None,
                                **f.metadata["kwargs"])
        sp.add_argument("--config", default=None, help="key=value configuration file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    values = {k: v for k, v in vars(args).items() if k != "config"}
    # only the typed errors map to exit codes; any other exception is a bug
    # and propagates with its traceback
    try:
        config = _merge_config(values, args.config)
        _check_config(config)
        handler, _ = _COMMANDS[config.command]
        return handler(config)
    except (MemoryBudgetError, InstanceTooLargeError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BracketingError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ConfigError, ArgumentError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader gone before the exit flush shows here
    except BrokenPipeError:
        # the reader closed early: send what is left to devnull, so the flush
        # at exit raises nothing either, and exit 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
