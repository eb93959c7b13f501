"""Command-line interface: curves, simulate, thresholds, verify, render, oracle.

Configuration precedence is flags > config file (key=value lines) >
defaults; the resolved configuration round-trips losslessly through its
textual form and is hashed into the run manifest of every randomized
command. Exit codes: 0 success, 2 configuration error, 3 verification or
bracketing failure, 4 resource guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import analytic, geometry, montecarlo, oracle, sampler, thresholds, verify
from .analytic import DomainError, ModelParams
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


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation; round-trips via to_text."""

    command: str = ""
    M: int = 2
    d: int = 2
    p: float | None = None
    p_start: float | None = None
    p_stop: float | None = None
    p_step: float | None = None
    n: int | None = None
    n_list: tuple = (4, 8, 12)
    m_list: tuple = (2, 3, 4, 8, 32, 128, 1024)
    samples: int = 2000
    seed: int | None = None
    connectivity: int = 8
    axis: str = "x"
    functional: str = "V0"
    target: str = "F"
    p_exact: str | None = None
    out: str = "."
    spanning_mask: bool = False
    spanning: str = "none"
    coupled: bool = True
    full: bool = False
    workers: int = 1
    budget_bytes: int = sampler.DEFAULT_BUDGET_BYTES

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
        return cls(**_coerce_fields(_parse_key_values(text)))


def _parse_key_values(text: str, source: str | None = None) -> dict:
    """Raw ``key=value`` pairs of a configuration text; blank and ``#`` lines
    are skipped. ``source`` names the file in error messages."""
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
    return values


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

#: Spanning axes estimated for each value of the ``spanning`` option.
_SPANNING_AXES = {"none": (), "x": ("x",), "y": ("y",), "both": ("x", "y")}


def _coerce_one(name: str, text: str):
    ftype = _FIELD_TYPES.get(name)
    if ftype is None:
        raise ConfigError(f"unknown configuration key {name!r}")
    try:
        if ftype in ("int", "int | None"):
            return int(text)
        if ftype in ("float | None", "float"):
            return float(text)
        if ftype == "tuple":
            return tuple(int(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if ftype == "bool":
        if text not in ("true", "false"):
            raise ConfigError(f"{name} must be true or false, got {text!r}")
        return text == "true"
    return text


def _coerce_fields(values: dict) -> dict:
    return {k: _coerce_one(k, v) for k, v in values.items()}


def _merge_config(cli_values: dict, config_path: str | None) -> RunConfig:
    merged: dict = {}
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        merged.update(_coerce_fields(_parse_key_values(text, config_path)))
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    return RunConfig(**merged)


def _check_config(config: RunConfig) -> None:
    """Refuse option values that the library would reject deeper down."""
    if config.M < 1:
        raise ConfigError(f"M must be at least 1, got {config.M}")
    if config.d not in (1, 2):
        raise ConfigError(f"d must be 1 or 2, got {config.d}")
    if config.n is not None and config.n < 0:
        raise ConfigError(f"n must be nonnegative, got {config.n}")
    if any(n < 0 for n in config.n_list):
        raise ConfigError(f"n_list entries must be nonnegative, got {config.n_list}")
    if any(m < 2 for m in config.m_list):
        raise ConfigError(f"m_list entries must be at least 2, got {config.m_list}")
    if config.samples < 2:
        raise ConfigError(f"samples must be at least 2 for a standard error, got {config.samples}")
    if config.connectivity not in (4, 8):
        raise ConfigError(f"connectivity must be 4 or 8, got {config.connectivity}")
    if config.axis not in ("x", "y"):
        raise ConfigError(f"axis must be x or y, got {config.axis!r}")
    if config.spanning not in _SPANNING_AXES:
        raise ConfigError(f"spanning must be one of {tuple(_SPANNING_AXES)}, got {config.spanning!r}")
    if config.d == 1 and "y" in _SPANNING_AXES[config.spanning]:
        raise ConfigError(f"spanning {config.spanning!r} needs d = 2: a d = 1 lattice has one row")
    if config.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {config.workers}")


def _model_params(M, p, d) -> ModelParams:
    """:class:`ModelParams` whose validation failures are configuration errors."""
    try:
        return ModelParams(M, p, d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_seed(config: RunConfig) -> tuple:
    """Return (seed, generated_flag); a missing seed is drawn and recorded."""
    if config.seed is not None:
        return config.seed, False
    return secrets.randbits(63), True


def _p_grid(config: RunConfig) -> list:
    lo_domain = 1.0 / config.M**config.d
    step = config.p_step if config.p_step is not None else 0.02
    if step <= 0:
        raise ConfigError("p_step must be positive")
    stop = config.p_stop if config.p_stop is not None else 0.99
    if config.p_start is not None:
        start = config.p_start
    else:
        k = int(lo_domain / step) + 1
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
        raise ConfigError("empty p grid")
    return grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_curves(config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = _p_grid(config)
    n_list = tuple(config.n_list)
    headers = ["p"] + [f"n{n}" for n in n_list] + ["ninf"]
    for target, fname in (("F", "curves_f.csv"), ("C", "curves_c.csv")):
        with open(out / fname, "w", encoding="ascii") as fh:
            fh.write(",".join(headers) + "\n")
            for p in grid:
                params = _model_params(config.M, p, 2)
                row = [format_float(p)]
                for n in n_list:
                    if target == "F":
                        value = float(analytic.vbar0_2d_finite(params, n))
                    else:
                        value = -float(analytic.vbarc0_2d_finite(params, n).vbar)
                    row.append(format_float(value))
                limit = float(analytic.limit_vk_2d(params, 0)) if target == "F" else -float(
                    analytic.limit_vck_2d(params, 0)
                )
                row.append(format_float(limit))
                fh.write(",".join(row) + "\n")
    m_list = tuple(config.m_list)
    headers = (
        ["p"]
        + [f"f_M{m}" for m in m_list] + ["f_inf"]
        + [f"c_M{m}" for m in m_list] + ["c_inf"]
    )
    lo = max(1.0 / m**2 for m in m_list)
    limits_grid = [p for p in grid if p > lo]
    if not limits_grid:
        raise ConfigError(
            f"no grid point exceeds the domain bound p > {lo} of the smallest M in m_list"
        )
    with open(out / "limits.csv", "w", encoding="ascii") as fh:
        fh.write(",".join(headers) + "\n")
        for p in limits_grid:
            row = [format_float(p)]
            for m in m_list:
                row.append(format_float(float(analytic.limit_vk_2d(_model_params(m, p, 2), 0))))
            row.append(format_float(float(analytic.large_m_v(p))))
            for m in m_list:
                row.append(format_float(-float(analytic.limit_vck_2d(_model_params(m, p, 2), 0))))
            row.append(format_float(float(analytic.large_m_vc(p))))
            fh.write(",".join(row) + "\n")
    print(f"wrote {out / 'curves_f.csv'}, {out / 'curves_c.csv'}, {out / 'limits.csv'}")
    return EXIT_OK


def _default_level(M: int, cap: int = 4096) -> int:
    """Largest level whose lattice side M^n stays within the desk-scale cap."""
    n = 0
    while M ** (n + 1) <= cap:
        n += 1
    return n


def cmd_simulate(config: RunConfig) -> int:
    n = config.n if config.n is not None else _default_level(config.M)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    seed, generated = _require_seed(config)
    grid = [config.p] if config.p is not None else _p_grid(config)
    axes = _SPANNING_AXES[config.spanning]
    t0 = time.perf_counter()
    rows = []
    for p in grid:
        params = _model_params(config.M, p, config.d)
        run_seed = seed if config.coupled else montecarlo.per_p_seed(seed, p)
        result = montecarlo.run_experiment(
            params, n, config.samples, run_seed,
            connectivity=config.connectivity,
            spanning_axes=axes,
            workers=config.workers,
            budget_bytes=config.budget_bytes,
        )
        rows.extend(result.to_rows())
    csv_path = out / "simulation.csv"
    montecarlo.write_csv(rows, csv_path)
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
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_render(config: RunConfig) -> int:
    if config.n is None or config.p is None:
        raise ConfigError("render requires n and p")
    out = Path(config.out)
    if out.suffix != ".pbm":
        out = out / "realization.pbm"
    out.parent.mkdir(parents=True, exist_ok=True)
    seed, generated = _require_seed(config)
    params = _model_params(config.M, config.p, config.d)
    grid = sampler.sample(params, config.n, seed, budget_bytes=config.budget_bytes)
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
        elapsed=0.0,
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
    if not 0 <= p <= 1:
        raise ConfigError(f"probability {p} outside [0, 1]")
    if config.d == 1:
        enumerate_, functionals, targets = oracle.enumerate_1d, oracle.FUNCTIONALS_1D, oracle.TARGETS_1D
    else:
        enumerate_, functionals, targets = oracle.enumerate_2d, oracle.FUNCTIONALS_2D, oracle.TARGETS_2D
    if config.functional not in functionals:
        raise ConfigError(f"functional for d = {config.d} must be one of {functionals}, "
                          f"got {config.functional!r}")
    if config.target not in targets:
        raise ConfigError(f"target for d = {config.d} must be one of {targets}, got {config.target!r}")
    value = enumerate_(config.M, p, config.n, config.functional, config.target)
    print(f"{value.numerator}/{value.denominator}")
    print(format_float(float(value)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracperc",
        description="Fractal percolation: exact functionals, simulation, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        if "M" in names:
            sp.add_argument("-M", type=int, default=None, help="subdivision count per axis")
        if "d" in names:
            sp.add_argument("-d", type=int, default=None, choices=(1, 2), help="dimension")
        if "n" in names:
            sp.add_argument("-n", type=int, default=None, help="construction level")
        if "seed" in names:
            sp.add_argument("--seed", type=int, default=None, help="master seed")
        if "out" in names:
            sp.add_argument("--out", default=None, help="output directory or file")
        if "pgrid" in names:
            sp.add_argument("--p-start", dest="p_start", type=float, default=None)
            sp.add_argument("--p-stop", dest="p_stop", type=float, default=None)
            sp.add_argument("--p-step", dest="p_step", type=float, default=None)
        if "budget" in names:
            sp.add_argument("--budget-bytes", dest="budget_bytes", type=int, default=None,
                            help="memory budget per realization")
        sp.add_argument("--config", default=None, help="key=value configuration file")

    sp = sub.add_parser("curves", help="emit finite-level and limit curve tables")
    common(sp, "M", "out", "pgrid")
    sp.add_argument("--n-list", dest="n_list", type=_int_list, default=None)
    sp.add_argument("--m-list", dest="m_list", type=_int_list, default=None)

    sp = sub.add_parser("simulate", help="Monte Carlo estimation over a p grid")
    common(sp, "M", "d", "n", "seed", "out", "pgrid", "budget")
    sp.add_argument("-p", type=float, default=None, help="single p instead of a grid")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--connectivity", type=int, default=None, choices=(4, 8))
    sp.add_argument("--independent", dest="coupled", action="store_const", const=False,
                    default=None, help="fresh uniforms per p instead of a shared stream")
    sp.add_argument("--spanning", default=None, choices=("none", "x", "y", "both"),
                    help="also estimate spanning probabilities")

    sp = sub.add_parser("thresholds", help="locate p0, p_min, p1 for a list of M")
    common(sp, "out")
    sp.add_argument("--m-list", dest="m_list", type=_int_list, default=None)

    sp = sub.add_parser("verify", help="run the self-verification suite")
    common(sp, "seed")
    sp.add_argument("--full", action="store_const", const=True, default=None)

    sp = sub.add_parser("render", help="write one realization as a PBM bitmap")
    common(sp, "M", "d", "n", "seed", "out", "budget")
    sp.add_argument("-p", type=float, default=None)
    sp.add_argument("--spanning-mask", dest="spanning_mask", action="store_const",
                    const=True, default=None, help="also write the spanning-cluster mask")
    sp.add_argument("--axis", default=None, choices=("x", "y"))
    sp.add_argument("--connectivity", type=int, default=None, choices=(4, 8))

    sp = sub.add_parser("oracle", help="exact enumeration expectation for tiny instances")
    common(sp, "M", "d", "n")
    sp.add_argument("-p", dest="p_exact", default=None,
                    help="exact probability, e.g. 1/2 or 0.4")
    sp.add_argument("--functional", default=None,
                    help="V0, V1, V2 (2d) or V0, V1, N, contains0, contains1 (1d)")
    sp.add_argument("--target", default=None,
                    help="F or C (2d); K, D, KK, DD (1d)")
    return parser


_COMMANDS = {
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "thresholds": cmd_thresholds,
    "verify": cmd_verify,
    "render": cmd_render,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    values = {k: v for k, v in vars(args).items() if k not in ("config",)}
    values["command"] = args.command
    # only the typed errors map to exit codes; any other exception is a bug
    # and propagates with its traceback
    try:
        config = _merge_config(values, args.config)
        _check_config(config)
        handler = _COMMANDS[config.command]
        return handler(config)
    except (MemoryBudgetError, InstanceTooLargeError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BracketingError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
