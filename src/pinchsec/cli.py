"""Command-line front end: `sweep`, `dist`, and `validate`.

Unit conversions happen exactly once at this boundary: powers are
accepted in dBm, the carrier frequency in GHz, rates in bits/s/Hz; all
library computation is SI. CSV goes to stdout (or --out); everything
else goes to stderr. Exit codes: 0 success, 1 validation failure,
2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .distributions import DISTRIBUTION_TAGS
from .montecarlo import McConfig
from .sop import Method
from .sweep import (
    DIST_CSV_HEADER,
    Axis,
    SweepSpec,
    dump_distribution,
    format_float,
    run_sweep,
)
from .system import SystemConfig, dbm_to_watts
from .validation import check_seed, run_checks

DEFAULT_SEED = 12345
SEED_ENV_VAR = "PINCH_SEED"

# zero-flag defaults: 28 GHz carrier, 3 m height, -80 dBm noise,
# Chebyshev order 100, 1e5 trials
_DEFAULTS: dict[str, float | int | str] = {
    "region_side": 10.0,
    "height": 3.0,
    "freq_ghz": 28.0,
    "n_eff": 1.4,
    "power_dbm": 20.0,
    "noise_dbm": -80.0,
    "rate": 0.1,
    "trials": 100_000,
    "workers": 1,
    "chebyshev_order": 100,
    "exact_tol": 1e-8,
    "grid": 1000,
    "x_min": 0.0,
    "x_max": 40.0,
    "x_step": 5.0,
    "x": "power-dbm",
    "which": "gamma-e-pdf",
    "methods": "mc,chebyshev",
}

_CONFIG_FILE_KEYS = {
    "region-side": float,
    "height": float,
    "freq-ghz": float,
    "n-eff": float,
    "power-dbm": float,
    "noise-dbm": float,
    "rate": float,
    "trials": int,
    "seed": int,
    "workers": int,
    "chebyshev-order": int,
    "exact-tol": float,
    "grid": int,
}


class UsageError(Exception):
    pass


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("system parameters")
    g.add_argument("--region-side", type=float, help="region side D in meters")
    g.add_argument("--height", type=float, help="antenna height h in meters")
    g.add_argument("--freq-ghz", type=float, help="carrier frequency in GHz")
    g.add_argument("--n-eff", type=float, help="waveguide effective refractive index")
    g.add_argument("--power-dbm", type=float, help="transmit power in dBm")
    g.add_argument("--noise-dbm", type=float, help="noise power in dBm")
    g.add_argument("--rate", type=float, help="target secrecy rate in bits/s/Hz")
    parser.add_argument("--config", type=Path, help="key=value file merged beneath flags")
    parser.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    parser.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsec",
        description="Secrecy outage probability of a pinching-antenna downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate SOP methods over a parameter grid")
    sw.add_argument("--x", choices=[a.value for a in Axis], help="swept variable")
    sw.add_argument("--x-min", type=float)
    sw.add_argument("--x-max", type=float)
    sw.add_argument("--x-step", type=float)
    sw.add_argument("--x-values", type=str, help="explicit comma-separated x values")
    sw.add_argument(
        "--methods",
        type=str,
        help="comma-separated subset of: " + ",".join(m.value for m in Method),
    )
    sw.add_argument("--trials", type=int, help="Monte Carlo trials per grid point")
    sw.add_argument("--workers", type=int, help="partitioning hint; never changes values")
    sw.add_argument("--chebyshev-order", type=int, help="quadrature order N")
    sw.add_argument(
        "--exact-tol",
        type=float,
        help="bound on the order-doubling error estimate of the exact integral",
    )
    _add_config_flags(sw)

    ds = sub.add_parser("dist", help="dump a distribution on a grid as CSV")
    ds.add_argument("--which", choices=sorted(DISTRIBUTION_TAGS))
    ds.add_argument("--grid", type=int, help="number of grid points (>= 2)")
    ds.add_argument("--log-grid", action="store_true", help="logarithmic grid")
    _add_config_flags(ds)

    va = sub.add_parser("validate", help="run the cross-validation check suite")
    va.add_argument("--level", choices=["fast", "full"], default="fast")
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
        if key not in _CONFIG_FILE_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key.replace("-", "_")] = _CONFIG_FILE_KEYS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge precedence: flag > config file > built-in default."""
    merged = dict(_DEFAULTS)
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


def _system_config(p: dict) -> SystemConfig:
    return SystemConfig(
        region_side=p["region_side"],
        height=p["height"],
        carrier_freq=p["freq_ghz"] * 1e9,
        refractive_index=p["n_eff"],
        transmit_power=dbm_to_watts(p["power_dbm"]),
        noise_power=dbm_to_watts(p["noise_dbm"]),
        target_rate=p["rate"],
    )


def _x_values(args: argparse.Namespace, p: dict) -> tuple[float, ...]:
    if getattr(args, "x_values", None):
        try:
            return tuple(float(v) for v in args.x_values.split(","))
        except ValueError as exc:
            raise UsageError(f"--x-values: {exc}") from exc
    lo, hi, step = p["x_min"], p["x_max"], p["x_step"]
    if step <= 0.0:
        raise UsageError(f"--x-step must be > 0, got {step}")
    if hi < lo:
        raise UsageError(f"empty grid: --x-min {lo} exceeds --x-max {hi}")
    count = int((hi - lo) / step + 1e-9) + 1
    return tuple(lo + i * step for i in range(count))


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


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    p = _resolve(args)
    seed = _resolve_seed(p)
    try:
        spec = SweepSpec(
            x_axis=Axis(p["x"]),
            x_values=_x_values(args, p),
            base=_system_config(p),
            methods=_methods(p["methods"]),
            mc=McConfig(trials=int(p["trials"]), seed=seed, workers=int(p["workers"])),
            chebyshev_order=int(p["chebyshev_order"]),
            exact_tol=float(p["exact_tol"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(run_sweep(spec).to_csv(), args.out)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    p = _resolve(args)
    try:
        cfg = _system_config(p)
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
    seed = _resolve_seed({} if args.seed is None else {"seed": args.seed})
    try:
        check_seed(seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results = run_checks(level=args.level, seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed ({args.level} level, seed {seed})")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
