"""The acceptance criteria of pinchsec, behind the `validate` subcommand.

This module is their single home: every grid, seed, quadrature and
tolerance of the acceptance gate lives here, and the acceptance tests
assert on the named results of :func:`run_checks`. The checks cover
exact bound constants against their defining integrals, quadrature vs
closed forms, Monte Carlo vs analytics on the reference grids, sampler
goodness of fit, pinching-vs-fixed ordering, determinism and saturated
outage. ``fast`` (1e4 trials, thinned grids) and ``full``
(acceptance-grade counts) return the same check names in the same order.

Checks call the library through module attributes so a corrupted
implementation (or a deliberately monkeypatched one) is caught rather
than masked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from . import distributions as dist_mod
from . import montecarlo as mc_mod
from . import sop as sop_mod
from . import sweep as sweep_mod
from .montecarlo import McConfig
from .sop import Method
from .system import SystemConfig, dbm_to_watts

__all__ = ["CheckResult", "check_seed", "run_checks", "reference_config"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_config(
    region_side: float = 10.0,
    power_dbm: float = 30.0,
    rate: float = 0.1,
    height: float = 3.0,
) -> SystemConfig:
    """Default operating point: 28 GHz carrier, n_eff 1.4, -80 dBm noise."""
    return SystemConfig(
        region_side=region_side,
        height=height,
        carrier_freq=28e9,
        refractive_index=1.4,
        transmit_power=dbm_to_watts(power_dbm),
        noise_power=dbm_to_watts(-80.0),
        target_rate=rate,
    )


def _grid_configs(fast: bool) -> list[SystemConfig]:
    sides = (10.0, 30.0)
    powers = (0.0, 20.0, 40.0) if fast else tuple(float(p) for p in range(0, 45, 5))
    rates = (0.1, 1.0) if fast else (0.1, 0.5, 1.0)
    return [
        reference_config(region_side=d, power_dbm=p, rate=r)
        for d in sides
        for p in powers
        for r in rates
    ]


def _check_bound_constants(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    pas = sop_mod.sop_lower_bound_pas().value
    expected = (2.0 * math.pi - 1.0) / 24.0
    results.append(
        CheckResult(
            "lower-bound-pas-constant",
            pas == expected,
            f"value={pas!r} expected={expected!r}",
        )
    )

    # the floor's defining double integral, D-independent (D=1 here)
    j1, _ = integrate.quad(lambda z: math.pi * z * z / 4.0, 0.0, 0.5, epsabs=1e-14)
    j2, _ = integrate.quad(lambda z: z**3 / 3.0, 0.0, 0.5, epsabs=1e-14)
    rebuilt = 8.0 * j1 - 8.0 * j2
    results.append(
        CheckResult(
            "lower-bound-pas-integral",
            abs(rebuilt - pas) <= 1e-12,
            f"integral={rebuilt!r} constant={pas!r} diff={abs(rebuilt - pas):.3e}",
        )
    )

    fpa = sop_mod.sop_lower_bound_fpa().value
    results.append(CheckResult("lower-bound-fpa-constant", fpa == 0.5, f"value={fpa!r}"))

    trials = 10_000 if fast else 1_000_000
    deviations = []
    for i, (d, h) in enumerate(((10.0, 3.0), (30.0, 7.5))):
        cfg = reference_config(region_side=d, height=h)
        res = mc_mod.simulate_lower_bound_event(cfg, McConfig(trials, seed + i))
        deviations.append(abs(res.estimate - pas) / max(res.stderr, 1e-300))
    results.append(
        CheckResult(
            "lower-bound-event-mc",
            all(dev <= 3.0 for dev in deviations),
            f"deviations={['%.2f sigma' % dev for dev in deviations]} trials={trials}",
        )
    )
    return results


def _panel_mass(pdf, edges) -> float:
    """Integral of a density over consecutive panels, by tanh-sinh at atol 1e-10."""
    edges = np.asarray(edges)
    return float(integrate.tanhsinh(pdf, edges[:-1], edges[1:], atol=1e-10).integral.sum())


def _check_distributions(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    cfg = reference_config()
    d2 = cfg.region_side**2

    mass = _panel_mass(lambda w: dist_mod.pdf_offset_sq(w, cfg), (0.0, 0.25 * d2, d2, 1.25 * d2))
    results.append(
        CheckResult(
            "offset-pdf-normalization", abs(mass - 1.0) <= 1e-6, f"integral={mass!r}"
        )
    )

    lo, hi = dist_mod.snr_eve_support(cfg)
    b_outer, b_inner = dist_mod.snr_eve_breakpoints(cfg)
    mass = _panel_mass(lambda z: dist_mod.pdf_snr_eve(z, cfg), (lo, b_outer, b_inner, hi))
    results.append(
        CheckResult(
            "eve-pdf-normalization", abs(mass - 1.0) <= 1e-6, f"integral={mass!r}"
        )
    )

    # relative agreement anchored to the density scale 1/(hi-lo): the
    # density has a root at the lower support edge, where no two
    # algebraically different forms can agree in pure relative terms
    rng = np.random.default_rng(seed)
    zs = rng.uniform(lo, hi, size=10_000)
    a = dist_mod.pdf_snr_eve(zs, cfg)
    b = dist_mod.pdf_snr_eve_via_offset(zs, cfg)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0 / (hi - lo))
    worst = float((np.abs(a - b) / scale).max())
    results.append(
        CheckResult(
            "eve-pdf-dual-route",
            worst <= 1e-9,
            f"max scaled rel diff={worst:.3e} over 10^4 z",
        )
    )

    near, mid, far = dist_mod._eve_branches(np.array([b_inner, b_outer]), cfg)
    jumps = [
        abs(left - right) / max(abs(left), abs(right), 1e-300)
        for left, right in ((mid[0], near[0]), (far[1], mid[1]))
    ]
    results.append(
        CheckResult(
            "eve-pdf-continuity",
            all(j <= 1e-9 for j in jumps),
            f"branch mismatches={['%.3e' % j for j in jumps]}",
        )
    )

    ts = np.linspace(0.0, 1.25 * d2, 41)
    worst = float(
        np.abs(dist_mod.cdf_offset_sq(ts, cfg) - dist_mod.cdf_offset_sq_quadrature(ts, cfg)).max()
    )
    results.append(
        CheckResult(
            "offset-cdf-closed-vs-quadrature", worst <= 1e-8, f"max diff={worst:.3e}"
        )
    )
    return results


def _check_sampler_fit(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    cfg = reference_config()
    n = 10_000 if fast else 1_000_000

    samples = mc_mod.sample_offset_sq(cfg, McConfig(n, seed + 11))
    ks = stats.kstest(samples, lambda t: dist_mod.cdf_offset_sq(t, cfg))
    results.append(
        CheckResult(
            "offset-sampler-ks",
            ks.pvalue > 0.01,
            f"D={ks.statistic:.4e} p={ks.pvalue:.4f} n={n}",
        )
    )

    snr = mc_mod.sample_snr_eve(cfg, McConfig(n, seed + 12))
    lo, hi = dist_mod.snr_eve_support(cfg)
    nbins = 50 if fast else 200
    edges = np.linspace(lo, hi, nbins + 1)
    observed, _ = np.histogram(snr, bins=edges)
    # bin masses through the monotone offset map: F_off is decreasing in z
    f_off = dist_mod.cdf_offset_sq(cfg.effective_snr / edges - cfg.height**2, cfg)
    expected = n * (f_off[:-1] - f_off[1:])
    # merge sparse bins from the low-density tail upward
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and obs_m:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    obs_arr = np.asarray(obs_m)
    exp_arr = np.asarray(exp_m)
    exp_arr *= obs_arr.sum() / exp_arr.sum()
    chi2_stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(obs_arr) - 1
    critical = float(stats.chi2.ppf(0.99, dof))
    results.append(
        CheckResult(
            "eve-sampler-chi2",
            chi2_stat < critical,
            f"chi2={chi2_stat:.1f} critical(99%, dof={dof})={critical:.1f} n={n}",
        )
    )
    return results


def _check_sop_agreement(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    configs = _grid_configs(fast)
    trials = 10_000 if fast else 100_000
    floor = sop_mod.sop_lower_bound_pas().value

    worst_cheb = 0.0
    worst_mc = 0.0
    mc_ok = True
    floor_ok = True
    for i, cfg in enumerate(configs):
        exact = sop_mod.sop_exact(cfg, tol=1e-8).value
        cheb = sop_mod.sop_chebyshev(cfg, 100).value
        worst_cheb = max(worst_cheb, abs(cheb - exact))
        mc = mc_mod.simulate_sop_pas(cfg, McConfig(trials, seed + 100 + i))
        gap = abs(mc.estimate - cheb)
        worst_mc = max(worst_mc, gap)
        if gap > max(3.0 * mc.stderr, 0.01):
            mc_ok = False
        if min(mc.estimate, cheb, exact) < floor - 3.0 * mc.stderr:
            floor_ok = False
    results.append(
        CheckResult(
            "chebyshev-vs-exact",
            worst_cheb <= 1e-3,
            f"max |cheb-exact|={worst_cheb:.2e} over {len(configs)} points",
        )
    )
    results.append(
        CheckResult(
            "mc-vs-chebyshev",
            mc_ok,
            f"max |mc-cheb|={worst_mc:.4f} trials={trials} over {len(configs)} points",
        )
    )
    results.append(
        CheckResult(
            "pas-floor-on-grid", floor_ok, f"floor={floor:.6f} held on {len(configs)} points"
        )
    )
    return results


def _check_asymptotics(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    worst = 0.0
    for d in (10.0, 30.0):
        for r in (0.1, 1.0):
            high = reference_config(region_side=d, power_dbm=60.0, rate=r)
            exact = sop_mod.sop_exact(high, tol=1e-8).value
            asym = sop_mod.sop_asymptotic(high).value
            worst = max(worst, abs(exact - asym))
    results.append(
        CheckResult("asymptotic-plateau", worst <= 1e-2, f"max |exact(60dBm)-asym|={worst:.2e}")
    )

    a = sop_mod.sop_asymptotic(reference_config(power_dbm=0.0)).value
    b = sop_mod.sop_asymptotic(reference_config(power_dbm=50.0)).value
    results.append(
        CheckResult("asymptotic-power-invariance", a == b, f"0dBm={a!r} 50dBm={b!r}")
    )
    return results


def _check_ordering(fast: bool, seed: int) -> list[CheckResult]:
    rates = (0.1, 0.5, 1.0, 1.5, 2.0) if fast else tuple(r / 10.0 for r in range(1, 21))
    powers = (0.0, 20.0, 40.0) if fast else tuple(float(p) for p in range(0, 45, 5))
    trials = 10_000 if fast else 100_000
    # the rate sweep at 20 dBm, then the power sweep at rate 0.1
    points = [(20.0, r) for r in rates] + [(p, 0.1) for p in powers]
    ok = True
    worst_margin = math.inf
    for i, (power, rate) in enumerate(points):
        cfg = reference_config(region_side=30.0, power_dbm=power, rate=rate)
        pas = mc_mod.simulate_sop_pas(cfg, McConfig(trials, seed + 300 + i))
        fpa = mc_mod.simulate_sop_fpa(cfg, McConfig(trials, seed + 600 + i))
        cheb = sop_mod.sop_chebyshev(cfg, 100).value
        if pas.estimate > fpa.estimate or cheb > fpa.estimate:
            ok = False
        worst_margin = min(worst_margin, fpa.estimate - max(pas.estimate, cheb))
        if fpa.estimate < 0.5 - 3.0 * fpa.stderr:
            ok = False
    return [
        CheckResult(
            "pas-beats-fpa-ordering",
            ok,
            f"min margin={worst_margin:.4f} over {len(points)} points, trials={trials}",
        )
    ]


def _check_determinism(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    cfg = reference_config(power_dbm=20.0)
    trials = 10_000 if fast else 100_000

    one = mc_mod.simulate_sop_pas(cfg, McConfig(trials, seed + 900, workers=1))
    two = mc_mod.simulate_sop_pas(cfg, McConfig(trials, seed + 900, workers=1))
    three = mc_mod.simulate_sop_pas(cfg, McConfig(trials, seed + 900, workers=3))
    results.append(
        CheckResult(
            "mc-determinism",
            one.estimate == two.estimate == three.estimate,
            f"workers 1/1/3 -> {one.estimate!r}/{two.estimate!r}/{three.estimate!r}",
        )
    )

    spec = dict(
        x_axis=sweep_mod.Axis.POWER_DBM,
        x_values=(0.0, 20.0, 40.0),
        base=cfg,
        methods=(Method.MC, Method.CHEBYSHEV),
        chebyshev_order=100,
    )
    csv_a = sweep_mod.run_sweep(
        sweep_mod.SweepSpec(mc=McConfig(trials, seed + 901, workers=1), **spec)
    ).to_csv()
    csv_b = sweep_mod.run_sweep(
        sweep_mod.SweepSpec(mc=McConfig(trials, seed + 901, workers=4), **spec)
    ).to_csv()
    results.append(
        CheckResult(
            "sweep-csv-worker-invariance",
            csv_a == csv_b,
            f"{len(csv_a)} bytes, workers 1 vs 4",
        )
    )
    return results


def _check_saturation(fast: bool, seed: int) -> list[CheckResult]:
    cfg = reference_config(power_dbm=-30.0, rate=12.0)
    exact = sop_mod.sop_exact(cfg).value
    cheb = sop_mod.sop_chebyshev(cfg, 100).value
    mc = mc_mod.simulate_sop_pas(cfg, McConfig(10_000, seed + 950)).estimate
    ok = exact == 1.0 and abs(cheb - 1.0) <= 1e-6 and mc == 1.0
    return [
        CheckResult(
            "saturated-outage", ok, f"exact={exact!r} chebyshev={cheb!r} mc={mc!r}"
        )
    ]


def check_seed(seed: int) -> None:
    """Reject a seed whose derived check seeds, seed .. seed + 950, leave [0, 2**64)."""
    if not 0 <= seed < 2**64 - 950:
        raise ValueError(f"seed must be in [0, 2**64 - 950), got {seed}")


def run_checks(level: str = "fast", seed: int = 12345) -> list[CheckResult]:
    """Run the invariant suite; `full` uses acceptance-grade counts."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    check_seed(seed)
    fast = level == "fast"
    results: list[CheckResult] = []
    results.extend(_check_bound_constants(fast, seed))
    results.extend(_check_distributions(fast, seed))
    results.extend(_check_sampler_fit(fast, seed))
    results.extend(_check_sop_agreement(fast, seed))
    results.extend(_check_asymptotics(fast, seed))
    results.extend(_check_ordering(fast, seed))
    results.extend(_check_determinism(fast, seed))
    results.extend(_check_saturation(fast, seed))
    return results
