"""The acceptance criteria of pinchsec, behind the `validate` subcommand.

This module is their single home: every grid, seed, quadrature and
tolerance of the acceptance gate lives here, and the acceptance tests
assert on the named results of :func:`run_checks`. The checks cover
exact bound constants against their defining integrals, quadrature vs
closed forms, Monte Carlo vs analytics on the reference grids, sampler
goodness of fit, pinching-vs-fixed ordering, seeded determinism and
saturated outage. ``fast`` (1e4 trials, thinned grids) and ``full``
(acceptance-grade counts) return the same check names in the same order.

Six checks are statistical, so they fail on correct code at a designed
rate. At the fast level (1e4 trials or samples) the rates are at most:
``lower-bound-event-mc`` 0.54% (two estimates, each within 3 sigma);
``offset-sampler-ks`` and ``eve-sampler-chi2`` 1% each (tests at the 1%
level); ``mc-vs-chebyshev`` 3.2% (12 points, each within max(3 sigma,
0.01), where 3 sigma is at least 0.012); ``pas-floor-on-grid`` and
``pas-beats-fpa-ordering`` below 1e-8 (every margin is above 6 sigma).
So at most about one fast run in eighteen fails one of them. Each grid
check draws its points' trials once, in one ``simulate_sops`` call, so
its per-point deviations are correlated and, at these trial counts,
close to jointly normal. By Sidak's inequality (JASA 62, 1967) the
chance that every point stays within its two-sided bound is then at
least the product of the per-point chances, so each figure, computed
for independent points, bounds the rate from above. At the full level
the 0.01 floor is above 6 sigma for ``mc-vs-chebyshev``, and the suite
fails at most about one run in forty, by its three other tests.

Checks call the library through module attributes so a corrupted
implementation (or a deliberately monkeypatched one) is caught rather
than masked. The suite runs on numpy alone: the two laws its tests
need, Kolmogorov's for the KS p-value and the chi-square quantile for
the critical value, are computed here with :mod:`math`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import distributions as dist_mod
from . import montecarlo as mc_mod
from . import sop as sop_mod
from . import sweep as sweep_mod
from .montecarlo import McConfig
from .sop import Method
from .system import SystemConfig, operating_point

__all__ = ["CheckResult", "check_seed", "run_checks", "reference_config"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_config(**values: float) -> SystemConfig:
    """The check suite's reference point: ``system.operating_point`` at 30 dBm by default."""
    return operating_point(**{"power_dbm": 30.0, **values})


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
    floor = sop_mod._panel_quadrature(lambda z: 2.0 * math.pi * z * z - 8.0 * z**3 / 3.0, (0, 0.5))
    rebuilt = float(floor[0])
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


def _check_distributions(fast: bool, seed: int) -> list[CheckResult]:
    results = []
    cfg = reference_config()
    knots = dist_mod.offset_sq_knots(cfg)

    mass = float(sop_mod._panel_quadrature(lambda w: dist_mod.pdf_offset_sq(w, cfg), knots)[0])
    results.append(
        CheckResult(
            "offset-pdf-normalization", abs(mass - 1.0) <= 1e-6, f"integral={mass!r}"
        )
    )

    eve_knots = dist_mod._eve_boundaries(cfg)
    lo, b_outer, b_inner, hi = eve_knots
    mass = float(sop_mod._panel_quadrature(lambda z: dist_mod.pdf_snr_eve(z, cfg), eve_knots)[0])
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

    near, mid, far = dist_mod._eve_branches(np.array([b_inner, b_outer]), dist_mod._scales(cfg))
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

    ts = np.linspace(0.0, knots[-1], 41)
    worst = float(
        np.abs(dist_mod.cdf_offset_sq(ts, cfg) - dist_mod.cdf_offset_sq_quadrature(ts, cfg)).max()
    )
    results.append(
        CheckResult(
            "offset-cdf-closed-vs-quadrature", worst <= 1e-8, f"max diff={worst:.3e}"
        )
    )
    return results


# Monte Carlo's chunk length: each chunk's temporaries stay in cache
_KS_CHUNK = 1 << 14

# up to this x, exp(-pi^2 / (8 x^2)) is under DBL_MIN and the law's survival
# function rounds to 1
_KOLMOGOROV_ONE = math.pi / math.sqrt(-8.0 * math.log(sys.float_info.min))
_KOLMOGOROV_CUTOVER = 0.82


def _kolmogorov_sf(x: float) -> float:
    """The Kolmogorov law's survival function, ``scipy.special.kolmogorov``.

    A port of scipy's algorithm (after Marsaglia, Tsang & Wang, J. Stat.
    Softw. 8(18), 2003) in its order of operations, so it returns the same
    floats: up to the cutover, 1 minus the theta series of the CDF,
    w u (1 + u^8 + u^24 + u^48) with u = exp(-pi^2 / (8 x^2)) and
    w = sqrt(2 pi) / x; above it, the alternating series
    2 (v - v^4 + v^9 - v^16) with v = exp(-2 x^2). scipy switches to
    logarithms when u underflows to 0, which no x above
    ``_KOLMOGOROV_ONE`` reaches.
    """
    if x <= _KOLMOGOROV_ONE:
        return 1.0
    if x <= _KOLMOGOROV_CUTOVER:
        w = math.sqrt(2.0 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8.0)
        u8 = math.exp(logu8)
        cdf = 1.0 + u8**3
        cdf = 1.0 + u8 * u8 * cdf
        cdf = 1.0 + u8 * cdf
        sf = 1.0 - w * u * cdf
    else:
        v = math.exp(-2.0 * x * x)
        vsq = v * v
        v3 = v**3
        sf = 1.0 - v3 * v3 * v
        sf = 1.0 - v3 * vsq * sf
        sf = 1.0 - v3 * sf
        sf = 2.0 * v * sf
    return min(max(sf, 0.0), 1.0)


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    """The regularized incomplete gamma functions (P, Q) at a > 0, x >= 0.

    Numerical Recipes, 3rd ed., section 6.2: the series of P below
    x = a + 1, the continued fraction of Q (modified Lentz) above it. The
    one computed is accurate to a few ulps; the other is 1 minus it.
    """
    if x <= 0.0:
        return 0.0, 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        p = front * total
        return p, 1.0 - p
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            q = front * h
            return 1.0 - q, q


def _chi2_isf(dof: float, p: float) -> float:
    """The x at which the chi-square law with ``dof`` degrees has tail mass ``p``.

    ``scipy.special.chdtri``: solves Q(dof/2, x/2) = p by bisection down
    to adjacent floats. For p > 1/2 it solves P = 1 - p instead, which is
    exact, so the lower tail keeps its precision too. Each evaluation
    sums O(sqrt(dof)) terms, about 0.5 ms a call at dof 200.
    """
    if not (dof >= 1.0 and math.isfinite(dof)):
        raise ValueError(f"dof must be finite and >= 1, got {dof!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    a = 0.5 * dof
    upper = p <= 0.5
    target = p if upper else 1.0 - p

    def below_root(t: float) -> bool:
        lower_mass, upper_mass = _gamma_pq(a, t)
        return upper_mass > target if upper else lower_mass < target

    lo, hi = 0.0, max(1.0, a)
    while below_root(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return 2.0 * hi
        if below_root(mid):
            lo = mid
        else:
            hi = mid


def _ks_test(samples: np.ndarray, cdf) -> tuple[float, float]:
    """Two-sided KS statistic of ``samples``, sorted in place, against ``cdf``.

    The same floats as ``scipy.stats.kstest(..., method="asymp")``: its
    statistic, and the Kolmogorov law at sqrt(n) * D as the p-value. It
    walks the sorted sample in chunks of ``_KS_CHUNK``, each against its
    own ranks i/n, so it makes no temporary as long as the sample.
    """
    samples.sort()
    n = samples.size
    d = 0.0
    for lo in range(0, n, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, n)
        f = cdf(samples[lo:hi])
        ranks = np.arange(lo, hi + 1) / n
        d = max(d, float((ranks[1:] - f).max()), float((f - ranks[:-1]).max()))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def _check_sampler_fit(fast: bool, seed: int) -> list[CheckResult]:
    """Goodness of fit of the two samplers: KS for offsets, chi-square for SNRs.

    The KS p-value comes from the asymptotic Kolmogorov law, not the
    exact finite-n law (``scipy.stats.kstwo``) that ``kstest`` uses by
    default. Judged by the exact law, the verdict ``p > 0.01`` so
    rejects a correct sampler with probability 0.989% at n = 1e4 and
    0.999% at n = 1e6, where the exact p-value rejected it with 1%.

    The KS step runs chunk by chunk, with the same floats as ``kstest(...,
    method="asymp")``. The offset samples go straight into it, so they are
    freed before the SNR sampler draws its own n.
    """
    results = []
    cfg = reference_config()
    n = 10_000 if fast else 1_000_000

    d, p = _ks_test(
        mc_mod.sample_offset_sq(cfg, McConfig(n, seed + 11)),
        lambda t: dist_mod.cdf_offset_sq(t, cfg),
    )
    results.append(
        CheckResult("offset-sampler-ks", p > 0.01, f"D={d:.4e} p={p:.4f} n={n}")
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
    # a CDF so wrong that fewer than two bins survive fails, as scipy's nan did
    critical = _chi2_isf(dof, 0.01) if dof >= 1 else math.nan
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
    chebs = [est.value for est in sop_mod.sop_chebyshev_batch(configs, sop_mod.CHEBYSHEV_ORDER)]
    # one draw for the whole grid: neighbouring points share their trials
    mcs = mc_mod.simulate_sops(configs, McConfig(trials, seed + 100), ("pas",))
    for cfg, cheb, (mc,) in zip(configs, chebs, mcs):
        exact = sop_mod.sop_exact(cfg).value
        worst_cheb = max(worst_cheb, abs(cheb - exact))
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
            exact = sop_mod.sop_exact(high).value
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
    # the rate sweep at 20 dBm, then the power sweep at rate 0.1; the two
    # share (20 dBm, 0.1), which is evaluated once
    points = list(dict.fromkeys([(20.0, r) for r in rates] + [(p, 0.1) for p in powers]))
    configs = [reference_config(region_side=30.0, power_dbm=p, rate=r) for p, r in points]
    chebs = [est.value for est in sop_mod.sop_chebyshev_batch(configs, sop_mod.CHEBYSHEV_ORDER)]
    # both systems at every point on one draw: common random numbers pair the comparison
    sops = mc_mod.simulate_sops(configs, McConfig(trials, seed + 300), ("pas", "fpa"))
    ok = True
    worst_margin = math.inf
    for cheb, (pas, fpa) in zip(chebs, sops):
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
    """A seed's draws repeat bit for bit: a call equals its repeat, a shared
    pass (over two region sides) each configuration's own call, and a
    sweep's CSV its points swept one at a time."""
    results = []
    cfg = reference_config(power_dbm=20.0)
    # bits, not statistics: at full level, three chunks of 2^14 trials and a ragged one
    trials = 10_000 if fast else 50_000

    mc = McConfig(trials, seed + 900)
    cfgs = (cfg, reference_config(region_side=30.0, power_dbm=40.0, rate=1.0))
    shared = [r for (r,) in mc_mod.simulate_sops(cfgs, mc, ("pas",))]
    alone = [mc_mod.simulate_sop_pas(c, mc) for c in cfgs]
    again = mc_mod.simulate_sop_pas(cfg, mc)
    results.append(
        CheckResult(
            "mc-determinism",
            shared == alone and again == alone[0],
            f"shared/alone/repeat -> {[r.estimate for r in shared + alone + [again]]}",
        )
    )

    spec = sweep_mod.SweepSpec(
        x_axis=sweep_mod.Axis.POWER_DBM,
        x_values=(0.0, 20.0, 40.0),
        base=cfg,
        methods=(Method.MC, Method.CHEBYSHEV),
        mc=McConfig(trials, seed + 901),
    )
    swept = sweep_mod.run_sweep(spec).to_csv()
    points = [sweep_mod.run_sweep(replace(spec, x_values=(x,))) for x in spec.x_values]
    pointwise = sweep_mod.SweepResult(sum((p.rows for p in points), ())).to_csv()
    results.append(
        CheckResult(
            "sweep-csv-pointwise",
            swept == pointwise,
            f"{len(swept)} bytes, {len(spec.x_values)} points vs one-point sweeps",
        )
    )
    return results


def _check_saturation(fast: bool, seed: int) -> list[CheckResult]:
    cfg = reference_config(power_dbm=-30.0, rate=12.0)
    exact = sop_mod.sop_exact(cfg).value
    cheb = sop_mod.sop_chebyshev(cfg, sop_mod.CHEBYSHEV_ORDER).value
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
