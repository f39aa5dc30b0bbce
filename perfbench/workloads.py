"""Workload inputs, operations and correctness checks of the benchmark.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one returned. The program sees only the
inputs :func:`generate` derives from the workload seed.

- ``analytic-curves``: one operation is one SOP-vs-power curve, a
  ``run_sweep`` call over -10..60 dBm in 5 dB steps with methods
  exact, chebyshev and asymptotic. Time goes to the scalar closed forms
  called from ``sop``; ``montecarlo`` is idle.
- ``mc-curves``: one operation is one SOP-vs-rate curve with methods mc
  and mc-fpa at 1e6 trials per point on one worker. Time goes to
  random-number generation, the event test and the count in
  ``montecarlo`` and ``system``; ``sop`` and ``distributions`` are idle.
  One worker, because a second thread on a host with few cores measures
  the scheduler; the threaded path is timed in the traced run.
- ``validate-full``: one operation is ``run_checks("full", s)`` for one
  of ``VALIDATE_SEEDS`` check seeds drawn from the workload seed. It
  runs the same layers differently: 1e6-sample arrays, vectorised
  CDFs, scipy.stats and the 54-point acceptance grid. About one check
  seed in twenty costs 1.8 s more than the usual 1.5 s (on a 2-vCPU
  Xeon), because scipy computes the KS p-value of a large statistic the
  slow, exact way; with eight seeds per input set such operations stay
  above the median and the tail, so which seeds a run drew does not
  move them.

Curve configurations are one random point in each cell of a grid over
the full parameter box, so every seed covers the whole box evenly and
run-to-run spread comes from the program rather than from which corner
a seed favoured.
The box is not narrowed to the region where the methods are accurate:
at large D/h, N = 100 Chebyshev misses the 1e-3 tolerance at several
per cent of points. Such misses, and statistical checks that fail at
their designed rate, are tolerance misses (``Failure.hard`` false): they
are counted and reported, but do not fail the operation.

The program is called through module attributes (``sweep_mod.run_sweep``,
``validation_mod.run_checks``, ``sop_mod.sop_exact``) so that the traced
run, which replaces those attributes, sees every call.

This module imports only what generating the inputs needs:
``pinchsec.validation`` (and with it scipy.stats) is imported where a
``validate-full`` operation runs, so that the set-up time measured with
it loads no more than the program itself loads.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from pinchsec import sop as sop_mod
from pinchsec import sweep as sweep_mod
from pinchsec.montecarlo import McConfig
from pinchsec.sop import Method
from pinchsec.system import SystemConfig, dbm_to_watts

WORKLOADS = ("analytic-curves", "mc-curves", "validate-full")

# Strata of (region side, height, rate or power) per input set, one curve
# per cell; a pass runs the set once.
ANALYTIC_GRID = (4, 4, 4)
MC_GRID = (2, 2, 1)

POWERS_DBM = tuple(float(p) for p in range(-10, 65, 5))
RATES = (0.1, 0.5, 1.0, 1.5, 2.0)
MC_TRIALS = 1_000_000
MC_WORKERS = 1
VALIDATE_SEEDS = 8
ANALYTIC_METHODS = (Method.EXACT, Method.CHEBYSHEV, Method.ASYMPTOTIC)
MC_METHODS = (Method.MC, Method.MC_FPA)

# Reference tolerances: the README acceptance tolerance for Chebyshev
# against exact, and the Monte Carlo agreement rule of the check suite.
CHEBYSHEV_TOL = 1e-3
ASYMPTOTE_TOL = 1e-6
MC_ABS_TOL = 0.01

# Checks of `run_checks` that fail at a designed rate on correct code
# (Monte Carlo agreement within 3 sigma, goodness of fit at the 1% level).
STATISTICAL_CHECKS = frozenset(
    {
        "lower-bound-event-mc",
        "offset-sampler-ks",
        "eve-sampler-chi2",
        "mc-vs-chebyshev",
        "pas-floor-on-grid",
        "pas-beats-fpa-ordering",
    }
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def config(region_side: float, height: float, power_dbm: float = 30.0, rate: float = 0.1) -> SystemConfig:
    """A system at the check suite's operating point: 28 GHz, n_eff 1.4, -80 dBm noise."""
    return SystemConfig(
        region_side=region_side,
        height=height,
        carrier_freq=28e9,
        refractive_index=1.4,
        transmit_power=dbm_to_watts(power_dbm),
        noise_power=dbm_to_watts(-80.0),
        target_rate=rate,
    )


def _stratified(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """One jittered point in [0, 1)^dims per cell of a ``shape`` grid, in cell order."""
    cells = np.stack(np.meshgrid(*(np.arange(n) for n in shape), indexing="ij"), axis=-1)
    cells = cells.reshape(-1, len(shape))
    return (cells + rng.random(cells.shape)) / np.asarray(shape)


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def generate(workload: str, seed: int) -> list:
    """The workload's input set: sweep specs for curves, check seeds otherwise."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "validate-full":
        return [int(x) for x in rng.integers(0, 2**31, size=VALIDATE_SEEDS)]
    analytic = workload == "analytic-curves"
    u = _stratified(rng, ANALYTIC_GRID if analytic else MC_GRID)
    sides = _log_uniform(u[:, 0], 5.0, 100.0)
    heights = 1.0 + 9.0 * u[:, 1]
    if analytic:
        return [
            sweep_mod.SweepSpec(
                x_axis=sweep_mod.Axis.POWER_DBM,
                x_values=POWERS_DBM,
                base=config(float(d), float(h), rate=float(r)),
                methods=ANALYTIC_METHODS,
                mc=McConfig(trials=1, seed=0),
            )
            for d, h, r in zip(sides, heights, 2.0 * u[:, 2])
        ]
    mc_seeds = rng.integers(0, 2**63, size=len(u))
    return [
        sweep_mod.SweepSpec(
            x_axis=sweep_mod.Axis.RATE,
            x_values=RATES,
            base=config(float(d), float(h), power_dbm=float(p)),
            methods=MC_METHODS,
            mc=McConfig(trials=MC_TRIALS, seed=int(s), workers=MC_WORKERS),
        )
        for d, h, p, s in zip(sides, heights, 40.0 * u[:, 2], mc_seeds)
    ]


def run_op(workload: str, item):
    """One operation of the workload; returns the program's result."""
    if workload == "validate-full":
        from pinchsec import validation as validation_mod

        return validation_mod.run_checks("full", item)
    return sweep_mod.run_sweep(item)


def output_text(workload: str, result) -> str:
    """The bytes the fingerprint covers: sweep CSV, or check names with pass/fail."""
    if workload == "validate-full":
        return "".join(f"{r.name},{'PASS' if r.passed else 'FAIL'}\n" for r in result)
    return result.to_csv()


def estimates_per_op(workload: str, item) -> int:
    """SOP estimates (point x method) one operation produces; 0 for checks."""
    if workload == "validate-full":
        return 0
    return len(item.x_values) * len(item.methods)


@dataclass(frozen=True)
class Failure:
    """One estimate or check that raised or missed its reference.

    ``hard`` marks a miss that correct code cannot produce: a failed
    operation. The others are tolerance misses of an approximation or
    statistical checks that fail at a designed rate.
    """

    kind: str
    hard: bool
    detail: str


@dataclass
class Verdict:
    attempted: int
    failures: list[Failure]


def _check_curve(spec, result) -> Verdict:
    floor = sop_mod.LOWER_BOUND_PAS
    by_point: dict[float, dict[Method, object]] = {}
    for row in result.rows:
        by_point.setdefault(row.x, {})[row.method] = row
    failures: list[Failure] = []
    for x, rows in by_point.items():
        where = f"D={spec.base.region_side:.4g} h={spec.base.height:.4g} x={x:g}"
        for method, row in rows.items():
            if method is Method.MC_FPA:
                continue
            sigma = row.stderr or 0.0
            if row.sop < floor - max(3.0 * sigma, 1e-12):
                failures.append(
                    Failure(
                        "below-pas-floor",
                        # exact and asymptotic are held to the floor;
                        # Chebyshev and mc approximate and may dip below it
                        hard=method in (Method.EXACT, Method.ASYMPTOTIC),
                        detail=f"{method.value}={row.sop!r} < {floor:.6f} at {where}",
                    )
                )
        exact = rows.get(Method.EXACT)
        cheb = rows.get(Method.CHEBYSHEV)
        asym = rows.get(Method.ASYMPTOTIC)
        if exact and cheb and abs(cheb.sop - exact.sop) > CHEBYSHEV_TOL:
            failures.append(
                Failure(
                    "chebyshev-vs-exact",
                    hard=False,
                    detail=f"|{cheb.sop:.6g}-{exact.sop:.6g}| > {CHEBYSHEV_TOL:g} at {where}",
                )
            )
        if exact and asym and exact.sop < asym.sop - ASYMPTOTE_TOL:
            failures.append(
                Failure(
                    "exact-below-asymptote",
                    hard=True,
                    detail=f"exact={exact.sop!r} asymptotic={asym.sop!r} at {where}",
                )
            )
        mc = rows.get(Method.MC)
        if mc:
            try:
                ref = sop_mod.sop_exact(sweep_mod.config_at(spec.base, spec.x_axis, x)).value
            except sop_mod.AccuracyError as exc:
                failures.append(Failure("mc-reference-raised", hard=False, detail=f"{exc} at {where}"))
            else:
                if abs(mc.sop - ref) > max(3.0 * mc.stderr, MC_ABS_TOL):
                    failures.append(
                        Failure(
                            "mc-vs-exact",
                            hard=False,
                            detail=f"mc={mc.sop:.6f}+-{mc.stderr:.1e} exact={ref:.6f} at {where}",
                        )
                    )
        fpa = rows.get(Method.MC_FPA)
        if fpa and fpa.sop < sop_mod.LOWER_BOUND_FPA - 3.0 * fpa.stderr:
            failures.append(
                Failure("below-fpa-floor", hard=False, detail=f"mc-fpa={fpa.sop!r} at {where}")
            )
    return Verdict(len(result.rows), failures)


def check(workload: str, item, result) -> Verdict:
    """Hold one operation's result to the stated references (untimed)."""
    if workload == "validate-full":
        return Verdict(
            len(result),
            [
                Failure(r.name, hard=r.name not in STATISTICAL_CHECKS, detail=r.detail)
                for r in result
                if not r.passed
            ],
        )
    return _check_curve(item, result)


def fingerprint(texts: list[str]) -> str:
    """sha256 of the concatenated outputs of one pass, in input order."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()
