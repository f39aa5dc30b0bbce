"""Parameter sweeps and distribution dumps as CSV rows.

A sweep evaluates a set of SOP methods over one independent variable
(transmit power in dBm, target rate, or region side) with everything
else held fixed. Monte Carlo points get independent per-point seeds
derived from the sweep seed and the point index, so estimates at
different x values are statistically independent yet fully reproducible
and worker-count invariant. At one x, ``mc`` and ``mc-fpa`` count their
outage events over the same trials, drawn once. The high-power
asymptote depends only on the region side, the height and the rate
threshold, so a power sweep evaluates it once and repeats that estimate
at every x value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import montecarlo as mc_mod
from . import sop as sop_mod
from .distributions import DISTRIBUTION_TAGS
from .montecarlo import McConfig
from .sop import Method, SopEstimate
from .system import SystemConfig, dbm_to_watts

__all__ = [
    "Axis",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "dump_distribution",
    "format_float",
    "SWEEP_CSV_HEADER",
    "DIST_CSV_HEADER",
]

SWEEP_CSV_HEADER = "x,method,sop,stderr,order_or_trials"
DIST_CSV_HEADER = "z,value,breakpoint"


def format_float(x: float) -> str:
    """Round-trippable decimal rendering (17 significant digits)."""
    return format(x, ".17g")


class Axis(str, Enum):
    POWER_DBM = "power-dbm"
    RATE = "rate"
    REGION_SIDE = "region"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the x axis, its values, and the methods to evaluate."""

    x_axis: Axis
    x_values: tuple[float, ...]
    base: SystemConfig
    methods: tuple[Method, ...]
    mc: McConfig
    chebyshev_order: int = 100
    exact_tol: float = 1e-8

    def __post_init__(self) -> None:
        if len(self.x_values) == 0:
            raise ValueError("x_values must be nonempty")
        if any(b <= a for a, b in zip(self.x_values, self.x_values[1:])):
            raise ValueError("x_values must be strictly increasing")
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        if self.chebyshev_order < 1:
            raise ValueError("chebyshev_order must be >= 1")
        if not 0.0 < self.exact_tol <= 1e-3:
            raise ValueError("exact_tol must be in (0, 1e-3]")
        for x in self.x_values:
            config_at(self.base, self.x_axis, x)  # raises on an out-of-domain x


@dataclass(frozen=True)
class SweepRow:
    x: float
    method: Method
    sop: float
    stderr: float | None
    order_or_trials: int

    def to_csv(self) -> str:
        err = format_float(self.stderr) if self.stderr is not None else ""
        return ",".join(
            (
                format_float(self.x),
                self.method.value,
                format_float(self.sop),
                err,
                str(self.order_or_trials),
            )
        )


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        lines.extend(row.to_csv() for row in self.rows)
        return "\n".join(lines) + "\n"


def config_at(base: SystemConfig, axis: Axis, x: float) -> SystemConfig:
    """The fixed configuration with the swept variable set to x."""
    if axis is Axis.POWER_DBM:
        return replace(base, transmit_power=dbm_to_watts(x))
    if axis is Axis.RATE:
        return replace(base, target_rate=x)
    return replace(base, region_side=x)


def _point_seed(seed: int, index: int) -> int:
    """Stable per-point seed so grid points draw independent trials."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def _evaluate(method: Method, cfg: SystemConfig, spec: SweepSpec) -> SopEstimate:
    if method is Method.EXACT:
        return sop_mod.sop_exact(cfg, spec.exact_tol)
    if method is Method.CHEBYSHEV:
        return sop_mod.sop_chebyshev(cfg, spec.chebyshev_order)
    if method is Method.ASYMPTOTIC:
        return sop_mod.sop_asymptotic(cfg)
    if method is Method.LOWER_PAS:
        return sop_mod.sop_lower_bound_pas()
    return sop_mod.sop_lower_bound_fpa()


# Monte Carlo methods and the system each one simulates.
_MC_SYSTEMS = {Method.MC: "pas", Method.MC_FPA: "fpa"}


def _simulate(
    methods: list[Method], cfg: SystemConfig, spec: SweepSpec, point_index: int
) -> dict[Method, SopEstimate]:
    """Every requested Monte Carlo method at one point, from one set of draws."""
    if not methods:
        return {}
    point_mc = replace(spec.mc, seed=_point_seed(spec.mc.seed, point_index))
    results = mc_mod.simulate_sops(cfg, point_mc, [_MC_SYSTEMS[m] for m in methods])
    return {
        m: SopEstimate(res.estimate, m, res.trials, stderr=res.stderr)
        for m, res in zip(methods, results)
    }


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested method at every x value.

    Rows come out sorted by (x, method name); output is deterministic
    for a given seed and independent of the worker count. The Monte
    Carlo methods at one x share one pass over that point's draws. The
    asymptote is evaluated once per distinct (region side, height,
    rate threshold), the only inputs it reads.
    """
    rows = []
    asymptotes: dict[tuple[float, float, float], SopEstimate] = {}
    mc_methods = [m for m in spec.methods if m in _MC_SYSTEMS]
    for index, x in enumerate(spec.x_values):
        cfg = config_at(spec.base, spec.x_axis, x)
        simulated = _simulate(mc_methods, cfg, spec, index)
        for method in spec.methods:
            if method in simulated:
                est = simulated[method]
            elif method is Method.ASYMPTOTIC:
                key = (cfg.region_side, cfg.height, cfg.rate_threshold)
                if key not in asymptotes:
                    asymptotes[key] = _evaluate(method, cfg, spec)
                est = asymptotes[key]
            else:
                est = _evaluate(method, cfg, spec)
            rows.append(
                SweepRow(
                    x=x,
                    method=method,
                    sop=est.value,
                    stderr=est.stderr,
                    order_or_trials=est.order_or_trials,
                )
            )
    rows.sort(key=lambda r: (r.x, r.method.value))
    return SweepResult(tuple(rows))


def dump_distribution(
    which: str, grid: int, cfg: SystemConfig, log_grid: bool = False
) -> list[tuple[float, float, int]]:
    """(z, value, is_breakpoint) rows for one distribution object.

    A uniform (or logarithmic) grid over the support, endpoints
    included, with every interior branch boundary inserted as an extra
    row flagged 1 in the third column.
    """
    if which not in DISTRIBUTION_TAGS:
        known = ", ".join(sorted(DISTRIBUTION_TAGS))
        raise ValueError(f"unknown distribution tag {which!r}; expected one of: {known}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    obj = DISTRIBUTION_TAGS[which](cfg)
    if log_grid:
        if obj.support_lo <= 0.0:
            raise ValueError(
                f"log grid needs a positive support; {which} starts at {obj.support_lo}"
            )
        zs = np.geomspace(obj.support_lo, obj.support_hi, grid)
    else:
        zs = np.linspace(obj.support_lo, obj.support_hi, grid)
    rows = [(float(z), 0) for z in zs]
    rows.extend((float(b), 1) for b in obj.breakpoints)
    rows.sort()
    values = obj.evaluate(np.array([z for z, _ in rows])).tolist()
    return [(z, v, flag) for (z, flag), v in zip(rows, values)]
