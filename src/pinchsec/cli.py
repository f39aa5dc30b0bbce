"""Command-line front end: `sweep`, `dist`, and `validate`.

Powers are accepted in dBm, the carrier frequency in GHz, rates in
bits/s/Hz. The system options, their defaults and their conversion to
SI are the rows of ``system.OPTIONS``, from which ``operating_point``
builds the base configuration and ``sweep.config_at`` each swept point.
CSV goes to stdout (or --out); everything else goes to stderr. Exit
codes: 0 success, 1 validation failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .distributions import DISTRIBUTION_TAGS
from .montecarlo import McConfig
from .sop import CHEBYSHEV_ORDER, Method
from .sweep import (
    DIST_CSV_HEADER,
    Axis,
    SweepSpec,
    dump_distribution,
    format_float,
    run_sweep,
)
from .system import OPTIONS, operating_point

DEFAULT_SEED = 12345
SEED_ENV_VAR = "PINCH_SEED"
MAX_GRID_POINTS = 1_000_000  # of a grid or a --chebyshev-order rule, checked before it is built
# of a sweep's Chebyshev rule, points times order: the default order on the largest grid
MAX_CHEBYSHEV_NODES = MAX_GRID_POINTS * CHEBYSHEV_ORDER
_SYSTEM_KEYS = [key.replace("-", "_") for key in OPTIONS]  # what operating_point takes


class _Param(NamedTuple):
    """One option ``--<key>`` of the parameter table."""

    section: str  # "sweep" or "dist" options, "system" group, or "io" on both
    type: Callable[[str], Any]
    default: Any  # None: no built-in default
    help: str | None
    in_file: bool = False  # may also be set from a --config file
    choices: list[str] | None = None


# every option of `sweep` and `dist` but --log-grid, in help order
_PARAMS: dict[str, _Param] = {
    "x": _Param("sweep", str, "power-dbm", "swept variable", choices=[a.value for a in Axis]),
    "x-min": _Param("sweep", float, 0.0, None),
    "x-max": _Param("sweep", float, 40.0, None),
    "x-step": _Param("sweep", float, 5.0, None),
    "x-values": _Param("sweep", str, None, "explicit comma-separated x values"),
    "methods": _Param(
        "sweep",
        str,
        "mc,chebyshev",
        "comma-separated subset of: " + ",".join(m.value for m in Method),
    ),
    "trials": _Param("sweep", int, 100_000, "Monte Carlo trials per grid point", True),
    "chebyshev-order": _Param("sweep", int, CHEBYSHEV_ORDER, "quadrature order N", True),
    "which": _Param("dist", str, "gamma-e-pdf", None, choices=sorted(DISTRIBUTION_TAGS)),
    "grid": _Param("dist", int, 1000, "number of grid points (>= 2)", True),
    **{key: _Param("system", float, row[1], row[3], True) for key, row in OPTIONS.items()},
    "config": _Param("io", Path, None, "key=value file merged beneath flags"),
    "out": _Param("io", Path, None, "write CSV here instead of stdout"),
    "seed": _Param("io", int, None, f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})", True),
}


class UsageError(Exception):
    pass


def _add_params(parser: argparse._ActionsContainer, section: str) -> None:
    for key, p in _PARAMS.items():
        if p.section == section:
            parser.add_argument(f"--{key}", type=p.type, choices=p.choices, help=p.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsec",
        description="Secrecy outage probability of a pinching-antenna downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate SOP methods over a parameter grid")
    _add_params(sw, "sweep")
    ds = sub.add_parser("dist", help="dump a distribution on a grid as CSV")
    _add_params(ds, "dist")
    ds.add_argument("--log-grid", action="store_true", help="logarithmic grid")
    for cmd in (sw, ds):
        _add_params(cmd.add_argument_group("system parameters"), "system")
        _add_params(cmd, "io")

    va = sub.add_parser("validate", help="run the cross-validation check suite")
    va.add_argument("--seed", type=int)
    return parser


def _read_config_file(path: Path) -> dict[str, float | int]:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        param = _PARAMS.get(key)
        if param is None or not param.in_file:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key.replace("-", "_")] = param.type(value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge precedence: flag > config file > built-in default."""
    merged = {
        key.replace("-", "_"): p.default for key, p in _PARAMS.items() if p.default is not None
    }
    if getattr(args, "config", None) is not None:
        merged.update(_read_config_file(args.config))
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config", "out", "log_grid"):
            merged[key] = value
    return merged


def _resolve_seed(merged: dict) -> int:
    """Seed precedence: flag, then config file, then env, then default.

    ``merged`` carries a 'seed' key only when the flag or the config
    file provided one (there is no built-in 'seed' default).
    """
    if "seed" in merged:
        return int(merged["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _x_values(args: argparse.Namespace, p: dict) -> tuple[float, ...]:
    if getattr(args, "x_values", None) is not None:  # "" is a bad list, not no list
        try:
            return tuple(float(v) for v in args.x_values.split(","))
        except ValueError as exc:
            raise UsageError(f"--x-values: {exc}") from exc
    lo, hi, step = p["x_min"], p["x_max"], p["x_step"]
    for flag, value in (("--x-min", lo), ("--x-max", hi), ("--x-step", step)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if step <= 0.0:
        raise UsageError(f"--x-step must be > 0, got {step}")
    if hi < lo:
        raise UsageError(f"empty grid: --x-min {lo} exceeds --x-max {hi}")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_POINTS:  # inf when the span overflows
        raise UsageError(f"--x-step {step} gives more than {MAX_GRID_POINTS} grid points")
    return tuple(lo + i * step for i in range(int(steps) + 1))


def _methods(spec: str) -> tuple[Method, ...]:
    methods = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            methods.append(Method(token))
        except ValueError as exc:
            valid = ",".join(m.value for m in Method)
            raise UsageError(f"--methods: unknown method {token!r}; valid: {valid}") from exc
    if not methods:
        raise UsageError("--methods: no methods given")
    return tuple(methods)


def _check_out(out: Path | None) -> None:
    """Reject an --out path that cannot be written, before any computation."""
    if out is not None and not out.parent.is_dir():
        raise UsageError(f"--out: {out.parent} is not an existing directory")
    if out is not None and out.is_dir():
        raise UsageError(f"--out: {out} is a directory")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_out(args.out)
    p = _resolve(args)
    seed = _resolve_seed(p)
    order = p["chebyshev_order"]
    if order > MAX_GRID_POINTS:
        raise UsageError(f"--chebyshev-order must be <= {MAX_GRID_POINTS}, got {order}")
    x_values = _x_values(args, p)
    if len(x_values) * order > MAX_CHEBYSHEV_NODES:
        raise UsageError(
            f"--chebyshev-order {order} at {len(x_values)} grid points gives more than "
            f"{MAX_CHEBYSHEV_NODES} Chebyshev nodes"
        )
    try:
        spec = SweepSpec(
            x_axis=Axis(p["x"]),
            x_values=x_values,
            base=operating_point(**{k: p[k] for k in _SYSTEM_KEYS}),
            methods=_methods(p["methods"]),
            mc=McConfig(trials=int(p["trials"]), seed=seed),
            chebyshev_order=order,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(run_sweep(spec).to_csv(), args.out)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    _check_out(args.out)
    p = _resolve(args)
    if int(p["grid"]) > MAX_GRID_POINTS:
        raise UsageError(f"--grid must be <= {MAX_GRID_POINTS}, got {p['grid']}")
    try:
        cfg = operating_point(**{k: p[k] for k in _SYSTEM_KEYS})
        rows = dump_distribution(p["which"], int(p["grid"]), cfg, log_grid=args.log_grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [DIST_CSV_HEADER]
    lines.extend(
        f"{format_float(z)},{format_float(v)},{flag}" for z, v, flag in rows
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # imported here, so that sweep and dist never load the check suite and
    # CLI start-up stays flat
    from .validation import check_seed, run_checks

    seed = _resolve_seed({} if args.seed is None else {"seed": args.seed})
    try:
        check_seed(seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results = run_checks(seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed (seed {seed})")
    return 1 if failed else 0


def _joined_x_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--x-values -10,0,10`` joined into ``--x-values=-10,0,10``.

    argparse reads a token that starts with a minus as an option unless it
    is a single number, so a list that starts below zero needs the join.
    It joins after every abbreviation argparse reads as ``--x-values``:
    ``--x-v`` and longer, since ``--x-min``, ``--x-max`` and ``--x-step``
    share ``--x-``.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        is_x_values = flag.startswith("--x-v") and "--x-values".startswith(flag)
        if is_x_values and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_x_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "dist":
            return _cmd_dist(args)
        return _cmd_validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
