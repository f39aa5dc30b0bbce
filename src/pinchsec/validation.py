"""The acceptance criteria of pinchsec, behind the `validate` subcommand.

This module is their single home: every grid, seed, quadrature and
tolerance of the acceptance gate lives here or, for the Chebyshev rule,
in ``sop.ACCEPTANCE_TOLERANCE``, and the acceptance tests assert on the
named results of :func:`run_checks`. The checks cover exact bound
constants against their defining integrals, quadrature vs closed forms,
Monte Carlo vs analytics on the reference grids, sampler goodness of
fit, pinching-vs-fixed ordering, seeded determinism and saturated
outage, around ``system.reference_config``, at acceptance-grade trial
counts; the two bit-identity checks draw two chunks and a ragged one.

Six checks are statistical, so they fail on correct code at a designed
rate: :data:`STATISTICAL_CHECKS` bounds each one's rate per run, and a
run fails some check at most at their sum (the union bound). Each grid
check draws its points' trials once, in one ``simulate_sops`` call, so
its per-point deviations are correlated and, at these trial counts,
close to jointly normal. By Sidak's inequality (JASA 62, 1967) the
chance that every point stays within its two-sided bound is then at
least the product of the per-point chances, so a grid check's rate,
computed for independent points, bounds it from above.

The floor check, ``lower-bound-event-mc``, is one conditional Monte
Carlo estimate of the constant, :func:`montecarlo.simulate_lower_bound_event`
at the reference configuration, 1e6 trials and seed + 11, computed from
the offset draw that the sampler checks test: from its sorted prefix up
to D^2/4, once the KS step has sorted it, since every offset past D^2/4
adds exactly 0. It reads only the uniform law of y1, never the offset
CDF or density under test, so it stays an independent simulation of the
constant. Its standard error, 2.56e-4, is below the 4.14e-4 of a 1e6
event count, so the 3-sigma detection threshold does not grow.

Checks call the library through module attributes so a corrupted
implementation (or a deliberately monkeypatched one) is caught rather
than masked. The suite runs on numpy alone: each goodness-of-fit test
compares its statistic with one constant, its law's critical value at
the 1% level, written here as the float scipy computes for it and pinned
against scipy in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import distributions as dist_mod
from . import montecarlo as mc_mod
from . import sop as sop_mod
from . import sweep as sweep_mod
from .montecarlo import McConfig
from .sop import Method
from .system import SystemConfig, reference_config

__all__ = ["CheckResult", "MAX_SEED_OFFSET", "STATISTICAL_CHECKS", "check_seed", "run_checks"]

# Each statistical check's false-failure rate per run on correct code, at
# most; no other check fails correct code
STATISTICAL_CHECKS = {
    # one conditional estimate of the floor (see above) within 3 sigma,
    # 0.27% two-sided
    "lower-bound-event-mc": 0.0027,
    "offset-sampler-ks": 0.01,  # tests at the 1% level
    "eve-sampler-chi2": 0.01,
    # the 0.01 floor is above 6 sigma at all 54 points
    "mc-vs-chebyshev": 1e-8,
    "pas-floor-on-grid": 1e-8,  # every margin is above 6 sigma
    "pas-beats-fpa-ordering": 1e-8,
}

# the largest offset a check adds to the run's seed: every derived seed,
# seed .. seed + MAX_SEED_OFFSET, must lie in [0, 2**64)
MAX_SEED_OFFSET = 950


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grid_configs() -> list[SystemConfig]:
    return [
        reference_config(region_side=d, power_dbm=float(p), rate=r)
        for d in (10.0, 30.0)
        for p in range(0, 45, 5)
        for r in (0.1, 0.5, 1.0)
    ]


def _check_bound_constants() -> list[CheckResult]:
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

    # the floor is the outage integral at h = 0, infinite SNR and rate 0, at any D
    rebuilt = sop_mod._outage_integral(1.0, 0.0, 1.0, math.inf)[0]
    results.append(
        CheckResult(
            "lower-bound-pas-integral",
            abs(rebuilt - pas) <= 1e-12,
            f"integral={rebuilt!r} constant={pas!r} diff={abs(rebuilt - pas):.3e}",
        )
    )

    fpa = sop_mod.sop_lower_bound_fpa().value
    results.append(CheckResult("lower-bound-fpa-constant", fpa == 0.5, f"value={fpa!r}"))
    return results


def _check_distributions(seed: int) -> list[CheckResult]:
    results = []
    cfg = reference_config()
    knots = dist_mod.offset_sq_knots(cfg)

    mass = float(sop_mod._panel_quadrature(lambda w: dist_mod.pdf_offset_sq(w, cfg), knots)[0])
    results.append(
        CheckResult(
            "offset-pdf-normalization", abs(mass - 1.0) <= 1e-6, f"integral={mass!r}"
        )
    )

    eve_knots = dist_mod._snr_knots(cfg)
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


# the sampler checks' critical values at the 1% level: sqrt(n) * D under
# Kolmogorov's law, scipy.special.kolmogi(0.01), and the chi-square statistic
# at its 200 bins' dof 199, scipy.stats.chi2.isf(0.01, 199)
_KS_CRITICAL = 1.6276236115189504
_CHI2_CRITICAL = 248.32859572006595


# sorted samples per block of the KS step, and the slack on a block's bound:
# far above any fall of the offset CDF along a sorted sample (see _ks_test)
_KS_BLOCK = 64
_KS_SLACK = 1e-12


def _ks_max(f: np.ndarray, idx: np.ndarray, n: int) -> float:
    """The largest KS term, (i+1)/n - F_i or F_i - i/n, over the sorted indices ``idx``."""
    return max(float(((idx + 1) / n - f).max()), float((f - idx / n).max()))


def _ks_test(samples: np.ndarray, cdf) -> float:
    """Two-sided KS statistic D of ``samples``, sorted in place, against ``cdf``.

    The same float as ``scipy.stats.kstest(...).statistic``: the largest
    term (i+1)/n - F_i or F_i - i/n over the sorted sample.

    D is a maximum, so only terms near it count (the bucketing of
    Gonzalez, Sahni & Franta, ACM TOMS 3(1), 1977). ``cdf`` is first
    evaluated at the first sample and at the last of each block of
    ``_KS_BLOCK`` sorted samples. Within a block of ranks a..b, F lies
    between its value at the previous block's end (at the first sample,
    for the first block) and at its own end, so each term is at most
    (b+1)/n minus the former or the latter minus a/n; the exact
    terms at the evaluated samples bound D from below. Only the blocks
    whose bound plus ``_KS_SLACK`` reaches that lower bound are then
    evaluated in full, in slices of Monte Carlo's chunk, so no temporary
    is as long as the sample.

    The result is exact, not an estimate, as long as the computed ``cdf``
    never falls by more than the slack along the sorted sample: a block
    left out then holds only terms below the lower bound, the rounding of
    the bound included, and the maximum of the same term floats is the
    same float. ``cdf_offset_sq`` meets it: on sorted draws at D from
    0.3 to 1000 m it never falls, and on a dense grid by at most 5.6e-16.
    Should the block ends fall by more than the slack, every block is
    evaluated.
    """
    samples.sort()
    n = samples.size
    starts = np.arange(0, n, _KS_BLOCK)
    ends = np.minimum(starts + _KS_BLOCK, n) - 1
    # F at the first sample, then at the last of each block
    at = np.concatenate(([0], ends))
    edge = cdf(samples[at])
    d = _ks_max(edge, at, n)
    bound = np.maximum((ends + 1) / n - edge[:-1], edge[1:] - starts / n)
    falls = bool((np.diff(edge) < -_KS_SLACK).any())
    blocks = starts[(bound + _KS_SLACK >= d) | falls]
    step = mc_mod._CHUNK_TRIALS // _KS_BLOCK
    for lo in range(0, blocks.size, step):
        idx = (blocks[lo : lo + step, None] + np.arange(_KS_BLOCK)).ravel()
        idx = idx[idx < n]
        d = max(d, _ks_max(cdf(samples[idx]), idx, n))
    return d


def _bin_counts(ascending: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """A sorted sample's counts in the bins between ``edges``, as numpy's histogram counts them."""
    at = np.searchsorted(ascending, edges)
    at[-1] = np.searchsorted(ascending, edges[-1], side="right")
    return np.diff(at)


def _check_sampler_fit(seed: int) -> list[CheckResult]:
    """The floor estimate and the goodness of fit of the two samplers, on one draw.

    KS tests the offsets, sorting them in place. The floor check then maps
    the sorted prefix up to D^2/4 to its conditional estimate, in slices,
    and passes within 3 sigma of the constant. Chi-square last tests the
    SNRs, mapped in place from the offsets.

    Each goodness-of-fit test passes when its statistic is below its law's critical value at
    the 1% level: sqrt(n) * D below ``_KS_CRITICAL``, and the chi-square
    statistic below ``_CHI2_CRITICAL``. The chi-square test bins the SNRs
    in 200 equal-width bins over the support, so its dof is 199. Each bin
    must expect at least 5 counts (Cochran's rule); at the reference
    configuration the sparsest, bin 0, expects 119. A law that leaves any
    bin under 5 is wrong, so the check fails on it before any sample is
    mapped to an SNR, not re-binned.

    The KS critical value is that of the asymptotic Kolmogorov law, not
    of the exact finite-n law (``scipy.stats.kstwo``) that ``kstest``
    uses by default. Under the exact law, ``sqrt(n) * D < 1.6276``
    rejects a correct sampler with probability 0.999% at n = 1e6, where
    the exact law's own critical value rejects it with 1%.

    The KS step evaluates the offset CDF only in the blocks of sorted
    samples that can hold the statistic (:func:`_ks_test`), under 5% of
    the sample at n = 1e6, with the same D as ``kstest``. Both tests
    read the one draw: the SNR sampler is the offset sampler mapped by the
    decreasing effective_snr / (w + h^2), so the offsets the KS step
    sorted map in place to SNRs in descending order, whose reversed view
    is binned by bisection.
    """
    cfg = reference_config()
    n = 1_000_000

    mc = McConfig(n, seed + 11)
    samples = mc_mod.sample_offset_sq(cfg, mc)
    d = _ks_test(samples, lambda t: dist_mod.cdf_offset_sq(t, cfg))
    scaled = math.sqrt(n) * d
    detail = f"D={d:.4e} sqrt(n)D={scaled:.4f} critical={_KS_CRITICAL:.4f} n={n}"
    ks = CheckResult("offset-sampler-ks", scaled < _KS_CRITICAL, detail)

    # past fl(D^2/4), sqrt(w) * fl(2/D) rounds to at least 1 - 2^-41, so
    # g = max(0, 1 - 2 sqrt(w)/D) is under 2^-41 and rounds to 0 units of
    # 2^-40: the sorted prefix up to fl(D^2/4) gives the same integer sums,
    # and the estimate still divides by all n trials
    k = np.searchsorted(samples, dist_mod._offset_knots(cfg.region_side)[1], side="right")
    floor = sop_mod.sop_lower_bound_pas().value
    res = mc_mod._lower_bound_event_of_offset(samples[:k], cfg, mc)
    deviation = abs(res.estimate - floor) / max(res.stderr, 1e-300)
    detail = f"estimate={res.estimate:.6f} deviation={deviation:.2f} sigma trials={n}"
    event = CheckResult("lower-bound-event-mc", deviation <= 3.0, detail)

    lo, hi = dist_mod.snr_eve_support(cfg)
    nbins = 200
    edges = np.linspace(lo, hi, nbins + 1)
    # bin masses through the monotone offset map: F_off is decreasing in z
    f_off = dist_mod.cdf_offset_sq(cfg.effective_snr / edges - cfg.height**2, cfg)
    expected = n * (f_off[:-1] - f_off[1:])
    sparse = np.count_nonzero(~(expected >= 5.0))  # a nan mass is sparse too
    if sparse:
        detail = f"{sparse} of {nbins} bins expect under 5 counts, no sample mapped n={n}"
        return [event, ks, CheckResult("eve-sampler-chi2", False, detail)]
    observed = _bin_counts(mc_mod._snr_eve_of_offset(samples, cfg)[::-1], edges)
    # expected counts sum to n, so a sample outside the support counts as a
    # misfit, and a sampler with none inside still has a finite statistic
    expected *= n / expected.sum()
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    detail = f"chi2={chi2_stat:.1f} dof={nbins - 1} critical={_CHI2_CRITICAL:.1f} n={n}"
    return [event, ks, CheckResult("eve-sampler-chi2", chi2_stat < _CHI2_CRITICAL, detail)]


def _check_sop_agreement(seed: int) -> list[CheckResult]:
    results = []
    configs = _grid_configs()
    trials = 100_000
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
            worst_cheb <= sop_mod.ACCEPTANCE_TOLERANCE,
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


def _check_asymptotics() -> list[CheckResult]:
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


def _check_ordering(seed: int) -> list[CheckResult]:
    rates = tuple(r / 10.0 for r in range(1, 21))
    powers = tuple(float(p) for p in range(0, 45, 5))
    trials = 100_000
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


def _check_determinism(seed: int) -> list[CheckResult]:
    """A seed's draws repeat bit for bit: a call equals its repeat, a shared
    pass (over two region sides, two rates that share their SNRs, and a
    further power that shares their denominators) each configuration's own
    call, and a sweep's CSV its points swept one at a time."""
    results = []
    cfg = reference_config(power_dbm=20.0)
    # bits, not statistics: two chunks and a ragged one
    trials = 2 * mc_mod._CHUNK_TRIALS + 7

    mc = McConfig(trials, seed + 900)
    cfgs = (
        cfg,
        reference_config(region_side=30.0, power_dbm=40.0, rate=1.0),
        reference_config(power_dbm=20.0, rate=1.0),
        # the first at another power, with SOP about 0.35 against its 0.25
        reference_config(power_dbm=-10.0),
    )
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


def _check_saturation(seed: int) -> list[CheckResult]:
    cfg = reference_config(power_dbm=-30.0, rate=12.0)
    exact = sop_mod.sop_exact(cfg).value
    cheb = sop_mod.sop_chebyshev(cfg, sop_mod.CHEBYSHEV_ORDER).value
    mc = mc_mod.simulate_sop_pas(cfg, McConfig(10_000, seed + MAX_SEED_OFFSET)).estimate
    ok = exact == 1.0 and abs(cheb - 1.0) <= 1e-6 and mc == 1.0
    return [
        CheckResult(
            "saturated-outage", ok, f"exact={exact!r} chebyshev={cheb!r} mc={mc!r}"
        )
    ]


def check_seed(seed: int) -> None:
    """Reject a seed whose derived check seeds (see ``MAX_SEED_OFFSET``) leave [0, 2**64)."""
    if not 0 <= seed < 2**64 - MAX_SEED_OFFSET:
        raise ValueError(f"seed must be in [0, 2**64 - {MAX_SEED_OFFSET}), got {seed}")


def run_checks(level: str = "full", seed: int = 12345) -> list[CheckResult]:
    """Run the check suite; ``level`` names its one level, "full"."""
    if level != "full":
        raise ValueError(f"level must be 'full', the one level, got {level!r}")
    check_seed(seed)
    return [
        *_check_bound_constants(),
        *_check_distributions(seed),
        *_check_sampler_fit(seed),
        *_check_sop_agreement(seed),
        *_check_asymptotics(),
        *_check_ordering(seed),
        *_check_determinism(seed),
        *_check_saturation(seed),
    ]
