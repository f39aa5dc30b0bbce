"""Parameter sweeps and distribution dumps as CSV rows.

A sweep evaluates a set of SOP methods over one independent variable
(transmit power in dBm, target rate, or region side) with everything
else held fixed. Each method is one column over all x values. The
Monte Carlo methods make one ``montecarlo.simulate_sops`` call per
sweep, with the sweep's seed: every x value, and ``mc`` and ``mc-fpa``
at each, count their outage events over the same trials, drawn once.
These common random numbers leave each point's estimate and standard
error distributed as for a point simulated alone, and make the curve
smooth: neighbouring points share their trials, so their difference is
far less noisy than their standard errors suggest, and a rate sweep's
Monte Carlo columns never decrease in the rate. The CSV is byte-reproducible
for a given seed, and each point's rows are its one-point sweep's.

The analytic columns are evaluated before any Monte Carlo draw: the
Chebyshev rule in one call of ``sop.sop_chebyshev_batch``, whose
rows equal per-point ``sop_chebyshev`` calls bit for bit; the exact SOP
in one ``sop.sop_exact`` call per point; the high-power asymptote,
which depends only on the region side, the height and the rate
threshold, once per distinct triple (so once for a power sweep); each
floor as one constant. Each x value's configuration is built once, by
``SweepSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import montecarlo as mc_mod
from . import sop as sop_mod
from .distributions import DISTRIBUTION_TAGS
from .montecarlo import McConfig
from .sop import Method, SopEstimate
from .system import OPTIONS, SystemConfig

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
    """One sweep: the x axis, its values, the methods, and their settings.

    Exact and asymptotic take none: ``sop`` fixes their accuracy bound.
    ``configs`` holds the configuration at each x value, built once here.
    ``chebyshev_order`` is an integer >= 1 (a numpy integer is stored as
    an int); a float or a bool is a TypeError.
    """

    x_axis: Axis
    x_values: tuple[float, ...]
    base: SystemConfig
    methods: tuple[Method, ...]
    mc: McConfig
    chebyshev_order: int = sop_mod.CHEBYSHEV_ORDER
    configs: tuple[SystemConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.x_values) == 0:
            raise ValueError("x_values must be nonempty")
        if any(b <= a for a, b in zip(self.x_values, self.x_values[1:])):
            raise ValueError("x_values must be strictly increasing")
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        if len(set(self.methods)) < len(self.methods):
            named = ",".join(m.value for m in self.methods)
            raise ValueError(f"methods must not repeat, got {named}")
        order = sop_mod._checked_order(self.chebyshev_order, "chebyshev_order")
        object.__setattr__(self, "chebyshev_order", order)
        # config_at raises on an out-of-domain x
        configs = tuple(config_at(self.base, self.x_axis, x) for x in self.x_values)
        object.__setattr__(self, "configs", configs)


class SweepRow(NamedTuple):
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
    """The fixed configuration with the swept variable set to x, in its option's unit."""
    name, _, to_si, _ = OPTIONS["region-side" if axis is Axis.REGION_SIDE else axis.value]
    return replace(base, **{name: x if to_si is None else to_si(x)})


# Monte Carlo methods and the system each one simulates.
_MC_SYSTEMS = {Method.MC: "pas", Method.MC_FPA: "fpa"}


def _mc_columns(methods: list[Method], spec: SweepSpec) -> dict[Method, list[SopEstimate]]:
    """Every requested Monte Carlo method at each of ``spec.configs``, from one set of draws."""
    if not methods:
        return {}
    points = mc_mod.simulate_sops(spec.configs, spec.mc, [_MC_SYSTEMS[m] for m in methods])
    return {
        m: [SopEstimate(res.estimate, m, res.trials, stderr=res.stderr) for res in column]
        for m, column in zip(methods, zip(*points))
    }


def _column(method: Method, spec: SweepSpec) -> list[SopEstimate]:
    """An analytic method's estimate at each of ``spec.configs``, as the module describes."""
    if method is Method.CHEBYSHEV:
        return sop_mod.sop_chebyshev_batch(spec.configs, spec.chebyshev_order)
    if method is Method.EXACT:
        return [sop_mod.sop_exact(cfg) for cfg in spec.configs]
    if method is Method.ASYMPTOTIC:
        # it reads only these three, so any configuration of a key gives that key's estimate
        keys = [(cfg.region_side, cfg.height, cfg.rate_threshold) for cfg in spec.configs]
        one_each = dict(zip(keys, spec.configs))
        by_key = {key: sop_mod.sop_asymptotic(cfg) for key, cfg in one_each.items()}
        return [by_key[key] for key in keys]
    if method is Method.LOWER_PAS:
        return [sop_mod.sop_lower_bound_pas()] * len(spec.configs)
    return [sop_mod.sop_lower_bound_fpa()] * len(spec.configs)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested method at every x value.

    Every method is one column over the x values. The analytic columns
    come first, so a failing analytic call stops the sweep before any
    Monte Carlo draw; the Monte Carlo methods then share one draw of
    ``spec.mc``'s trials. Rows are emitted in (x, method name) order,
    whatever the order of ``spec.methods``: the x values ascend and each
    point visits the methods by name, so no sort follows. Output is fixed
    by the seed, and each point's rows are its one-point sweep's.
    """
    methods = sorted(spec.methods, key=lambda m: m.value)
    columns = {m: _column(m, spec) for m in methods if m not in _MC_SYSTEMS}
    columns.update(_mc_columns([m for m in methods if m in _MC_SYSTEMS], spec))
    rows = []
    for index, x in enumerate(spec.x_values):
        for m in methods:
            est = columns[m][index]
            rows.append(SweepRow(x, m, est.value, est.stderr, est.order_or_trials))
    return SweepResult(tuple(rows))


def dump_distribution(
    which: str, grid: int, cfg: SystemConfig, log_grid: bool = False
) -> list[tuple[float, float, int]]:
    """(z, value, is_breakpoint) rows for one tag of ``DISTRIBUTION_TAGS``.

    A uniform (or logarithmic) grid over the support, endpoints
    included, with every interior branch boundary inserted as an extra
    row flagged 1 in the third column.
    """
    if which not in DISTRIBUTION_TAGS:
        known = ", ".join(sorted(DISTRIBUTION_TAGS))
        raise ValueError(f"unknown distribution tag {which!r}; expected one of: {known}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    func, knots = DISTRIBUTION_TAGS[which]
    lo, *breakpoints, hi = knots(cfg)
    if log_grid:
        if lo <= 0.0:
            raise ValueError(f"log grid needs a positive support; {which} starts at {lo}")
        zs = np.geomspace(lo, hi, grid)
    else:
        zs = np.linspace(lo, hi, grid)
    rows = [(float(z), 0) for z in zs]
    rows.extend((float(b), 1) for b in breakpoints)
    rows.sort()
    values = func(np.array([z for z, _ in rows]), cfg).tolist()
    return [(z, v, flag) for (z, flag), v in zip(rows, values)]
