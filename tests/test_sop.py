import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pinchsec import distributions as dist_mod
from pinchsec import montecarlo as mc_mod
from pinchsec import sop as sop_mod
from pinchsec import (
    LOWER_BOUND_FPA,
    LOWER_BOUND_PAS,
    AccuracyError,
    McConfig,
    Method,
    SopEstimate,
    sop_asymptotic,
    sop_chebyshev,
    sop_exact,
    sop_lower_bound_fpa,
    sop_lower_bound_pas,
    simulate_sops,
)

from conftest import box_configs, cdf_offset_sq_full_correction, make_config

README = Path(__file__).resolve().parents[1] / "README.md"

# 2 E[sqrt(W)] / D for the squared offset W: the floor at C >= 5 is 1 - KAPPA / sqrt(C)
KAPPA = (3.0 + 15.0 * math.sqrt(5.0) + 20.0 * math.log(2.0 + math.sqrt(5.0))) / 72.0


def mc_sop_pas_oracle(cfg, n: int, seed: int) -> tuple[float, float]:
    """Independent plain-numpy Monte Carlo of the pinching-system outage."""
    rng = np.random.default_rng(seed)
    half = cfg.region_side / 2.0
    h2 = cfg.height**2
    s = cfg.effective_snr
    c = cfg.rate_threshold
    hits = 0
    done = 0
    while done < n:
        m = min(n - done, 2_000_000)
        u = rng.uniform(-half, half, size=(m, 4))
        gb = s / (u[:, 1] ** 2 + h2)
        ge = s / ((u[:, 0] - u[:, 2]) ** 2 + u[:, 3] ** 2 + h2)
        hits += int(np.count_nonzero(1.0 + gb <= c * (1.0 + ge)))
        done += m
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


def mc_bound_event_oracle(n: int, seed: int) -> tuple[float, float]:
    """Scale-free event (x1-x2)^2 + y2^2 <= y1^2 on the unit region."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=(n, 4))
    p = np.count_nonzero((u[:, 0] - u[:, 2]) ** 2 + u[:, 3] ** 2 <= u[:, 1] ** 2) / n
    return p, math.sqrt(p * (1.0 - p) / n)


class TestLowerBounds:
    def test_constants_exact(self):
        assert sop_lower_bound_pas().value == (2.0 * math.pi - 1.0) / 24.0
        assert sop_lower_bound_fpa().value == 0.5
        assert LOWER_BOUND_PAS == pytest.approx(0.2201, abs=5e-5)
        assert LOWER_BOUND_FPA == 0.5

    def test_estimate_metadata(self):
        est = sop_lower_bound_pas()
        assert est.method is Method.LOWER_PAS
        assert est.order_or_trials == 0
        assert est.stderr is None

    def test_pas_constant_from_defining_integrals(self):
        # (8/D^3) int J1 dz - (8/D^4) int J2 dz with J1 = pi z^2/4,
        # J2 = z^3/3; D-independent, checked for two region sizes
        for d in (1.0, 30.0):
            j1, _ = integrate.quad(lambda z: math.pi * z * z / 4.0, 0.0, d / 2.0, epsabs=1e-15)
            j2, _ = integrate.quad(lambda z: z**3 / 3.0, 0.0, d / 2.0, epsabs=1e-15)
            rebuilt = 8.0 / d**3 * j1 - 8.0 / d**4 * j2
            assert abs(rebuilt - LOWER_BOUND_PAS) <= 1e-12

    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0, 1000.0])
    def test_outage_integral_at_zero_height_and_infinite_snr_is_the_floor(self, d):
        # at h = 0 and s = inf the outage is W <= C y^2: its mean over y is
        # the floor at C = 1, and 1 - E[sqrt(W)] / (sqrt(C) D / 2) once
        # sqrt(C) D / 2 reaches the largest offset, sqrt(5) D / 2
        value, _ = sop_mod._outage_integral(d, 0.0, 1.0, math.inf)
        assert abs(value - LOWER_BOUND_PAS) <= 1e-15
        for c in (5.0, 8.0, 32.0, 2.0**30):
            value, _ = sop_mod._outage_integral(d, 0.0, c, math.inf)
            assert abs(value - (1.0 - KAPPA / math.sqrt(c))) <= 1e-13, c

    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0, 1000.0])
    @pytest.mark.parametrize("c", [1.0001, 1.5, 2.0, 2.0**1.5, 3.0, 4.0, 4.9999])
    def test_outage_integral_at_zero_height_below_c_5_is_the_rate_floor(self, d, c):
        # between the two pinned ends the floor is 1 - E[min(sqrt(W), L)] / L
        # with L = sqrt(C) D / 2; the mean on knots at every kink of the
        # integrand, sqrt(W) reaching L among them
        half = math.sqrt(c) * d / 2.0
        knots = sorted((0.0, d * d / 4.0, half * half, d * d, 1.25 * d * d))
        mean = float(sop_mod._panel_quadrature(
            lambda w: np.minimum(np.sqrt(w), half) * dist_mod._pdf_offset_sq(w, d), knots)[0])
        value, _ = sop_mod._outage_integral(d, 0.0, c, math.inf)
        assert abs(value - (1.0 - mean / half)) <= 1e-13

    def test_pas_constant_against_mc_event(self):
        p, sigma = mc_bound_event_oracle(1_000_000, seed=1001)
        assert abs(p - LOWER_BOUND_PAS) <= 3.0 * sigma

    def test_fpa_bound_by_exchangeability(self):
        # Pr(x1^2+y1^2 >= x2^2+y2^2) for iid uniforms is exactly 1/2
        rng = np.random.default_rng(1002)
        u = rng.uniform(-0.5, 0.5, size=(1_000_000, 4))
        p = np.count_nonzero(u[:, 0] ** 2 + u[:, 1] ** 2 >= u[:, 2] ** 2 + u[:, 3] ** 2) / len(u)
        sigma = math.sqrt(p * (1.0 - p) / len(u))
        assert abs(p - 0.5) <= 3.0 * sigma


class TestNestedRule:
    """The nested Clenshaw-Curtis pair behind every integral of the package."""

    @pytest.mark.parametrize("n", [128, 64])
    def test_integrates_every_polynomial_up_to_its_degree(self, n):
        # before the smoothstep map, on [-1, 1], end nodes included
        x, w = sop_mod._clenshaw_curtis(n)
        for m in range(n + 1):
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            assert math.fsum(w * x**m) == pytest.approx(exact, abs=4e-16), m

    def test_coarse_nodes_are_every_other_fine_node(self):
        fine, _ = sop_mod._clenshaw_curtis(128)
        coarse, _ = sop_mod._clenshaw_curtis(64)
        assert np.array_equal(coarse, fine[::2])
        nodes, weights = sop_mod._smoothstep_rule(64)
        assert np.array_equal(nodes, sop_mod._NODES[1::2])
        assert np.array_equal(weights, sop_mod._COARSE_WEIGHTS)
        assert sop_mod._NODES.shape == (127,)

    def test_each_weight_row_sums_to_one(self):
        # the dropped end nodes -1 and 1 map to u = 0 and 1, where the weight is 0
        x, _ = sop_mod._clenshaw_curtis(128)
        assert (x[0], x[-1]) == (-1.0, 1.0)
        # on [0, 1] the smoothstep's slope 6u(1-u) integrates to 1
        for weights in (sop_mod._WEIGHTS, sop_mod._COARSE_WEIGHTS):
            assert math.fsum(weights) == pytest.approx(1.0, abs=2e-16)
            assert (weights > 0.0).all()


class TestSopExact:
    def test_saturated_outage_is_exactly_one(self, monkeypatch):
        # rate threshold above 1 + max snr makes the outage certain, which
        # runs no quadrature and no CDF kernel
        cfg = make_config(power_dbm=-30.0, rate=12.0)
        assert cfg.rate_threshold >= 1.0 + cfg.effective_snr / cfg.height**2
        for name in ("_cdf_offset_sq", "_cdf_offset_sq_rows"):
            monkeypatch.setattr(dist_mod, name, None)
        monkeypatch.setattr(sop_mod, "_panel_quadrature", None)
        est = sop_exact(cfg)
        assert (est.value, est.order_or_trials, est.raw_value) == (1.0, 0, None)
        assert est.method is Method.EXACT
        assert sop_asymptotic(cfg).order_or_trials == 0

    def test_against_independent_mc(self, cfg30):
        est = sop_exact(cfg30)
        p, sigma = mc_sop_pas_oracle(cfg30, 1_000_000, seed=2024)
        assert abs(est.value - p) <= 3.0 * sigma

    def test_monotone_in_target_rate(self, cfg10):
        low = sop_exact(replace(cfg10, target_rate=0.1)).value
        high = sop_exact(replace(cfg10, target_rate=1.0)).value
        assert high >= low

    def test_nonincreasing_in_power_with_plateau(self):
        values = []
        for p in range(0, 65, 5):
            cfg = make_config(power_dbm=float(p))
            values.append(sop_exact(cfg).value)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert abs(values[-2] - values[-1]) <= 1e-3

    @pytest.mark.parametrize("evaluate", [sop_exact, sop_asymptotic])
    def test_unreachable_tolerance_raises_with_estimate(self, monkeypatch, evaluate):
        # both evaluators share the one bound; a positive error estimate
        # (1.1e-12 exact, 7.1e-17 asymptotic here) fails an absurdly small one
        cfg = make_config(region_side=100.0, height=0.01, power_dbm=-20.0, rate=1.0)
        reference = evaluate(cfg).value
        monkeypatch.setattr(sop_mod, "_ERROR_BOUND", 1e-300)
        with pytest.raises(AccuracyError) as err:
            evaluate(cfg)
        assert err.value.estimate == reference
        assert 0.0 < err.value.error_estimate <= 1e-8

    @pytest.mark.parametrize("evaluate", [sop_exact, sop_asymptotic])
    def test_an_error_estimate_of_zero_never_raises(self, monkeypatch, evaluate):
        # at rate 0 both rules give the same sum bit for bit, and the bound is strict
        monkeypatch.setattr(sop_mod, "_ERROR_BOUND", 0.0)
        assert evaluate(make_config(rate=0.0)).value == pytest.approx(LOWER_BOUND_PAS, abs=1e-12)

    def test_readme_states_the_accuracy_bound(self):
        # the README keeps its own copy of the bound, pinned here to the constant
        if not README.exists():
            pytest.skip(f"no README at {README}")
        figures = re.findall(r"error\s+estimate\s+passes\s+([\d.e+-]+)", README.read_text())
        assert [float(f) for f in figures] == [sop_mod._ERROR_BOUND]

    @pytest.mark.parametrize(
        "region_side,height,seed",
        [(10.0, 1e-4, 2025), (1e4, 3.0, 2026)],
    )
    def test_extreme_geometry_against_independent_mc(self, region_side, height, seed):
        # an SNR-domain integral lost the outage mass at h = 1e-4 m
        # and failed to converge at D = 1e4 m
        cfg = make_config(region_side=region_side, height=height, power_dbm=20.0)
        est = sop_exact(cfg)
        p, sigma = mc_sop_pas_oracle(cfg, 1_000_000, seed=seed)
        assert abs(est.value - p) <= 3.0 * sigma

    def test_zero_rate_is_the_pas_floor_at_any_power(self):
        # with C = 1 the outage event is offset_sq <= y1^2 whatever the SNR
        cfg = make_config(height=1e-4, power_dbm=120.0, rate=0.0)
        assert sop_exact(cfg).value == pytest.approx(LOWER_BOUND_PAS, abs=1e-9)

    @pytest.mark.parametrize(
        "region_side,height,power_dbm",
        [(10.0, 3e5, 110.0), (0.1, 7e3, -60.0), (1.0, 7e4, 30.0), (1e3, 7e7, 120.0)],
    )
    def test_zero_rate_is_the_pas_floor_far_above_the_region(self, region_side, height, power_dbm):
        # the threshold C*a/den - h^2 lost y^2 to h^2 and did not converge;
        # (C*y^2 + (C-1)*h^2*(1 + a/snr))/den is y^2 exactly at C = 1
        cfg = make_config(region_side=region_side, height=height, power_dbm=power_dbm, rate=0.0)
        assert sop_exact(cfg).value == pytest.approx(LOWER_BOUND_PAS, abs=1e-12)


def chebyshev_at_reference_geometry(cfg, order):
    """sop_chebyshev at D = 10 m, h = 3 m, where only the two-node sum dips
    below the pinching floor: that order must warn, every other stay silent."""
    if order == 2:
        with pytest.warns(RuntimeWarning, match="provable floor"):
            return sop_chebyshev(cfg, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return sop_chebyshev(cfg, order)


class TestSopChebyshev:
    def test_matches_exact_at_order_100(self, cfg10, cfg30):
        for cfg in (cfg10, cfg30):
            exact = sop_exact(cfg).value
            cheb = sop_chebyshev(cfg, 100).value
            assert abs(cheb - exact) <= 1e-3

    def test_saturated_case(self):
        cfg = make_config(power_dbm=-30.0, rate=12.0)
        assert sop_chebyshev(cfg, 100).value == pytest.approx(1.0, abs=1e-6)

    def test_doubling_ladder(self, cfg10):
        cfg = make_config(power_dbm=20.0)
        exact = sop_exact(cfg).value
        errors = {
            n: abs(chebyshev_at_reference_geometry(cfg, n).value - exact)
            for n in (1, 2, 4, 8, 16, 32, 64, 128)
        }
        print("chebyshev convergence ladder:", {n: f"{e:.2e}" for n, e in errors.items()})
        assert errors[128] <= errors[8]

    def test_order_validation(self, cfg10):
        with pytest.raises(ValueError):
            sop_chebyshev(cfg10, 0)

    def test_value_always_in_unit_interval(self, cfg10):
        for n in (1, 2, 3, 5, 100):
            est = chebyshev_at_reference_geometry(cfg10, n)
            assert 0.0 <= est.value <= 1.0
            assert est.order_or_trials == n
            if est.raw_value is not None:
                assert not 0.0 <= est.raw_value <= 1.0 or est.raw_value != est.value

    @pytest.mark.parametrize(
        "region_side,height,exact",
        [(10.0, 1e-4, 0.234), (1e4, 3.0, 0.937)],
    )
    def test_warns_below_pas_floor(self, region_side, height, exact):
        # the rule collapses at extreme D/h; the exact value is far above it
        cfg = make_config(region_side=region_side, height=height, power_dbm=20.0)
        with pytest.warns(RuntimeWarning, match="below the provable floor") as record:
            est = sop_chebyshev(cfg, 100)
            assert sop_mod.sop_chebyshev_batch([cfg, cfg]) == [est, est]
        # each warning points at the caller of the public function
        assert [w.filename for w in record] == [__file__] * 3
        assert est.value < LOWER_BOUND_PAS
        assert sop_exact(cfg).value == pytest.approx(exact, abs=1e-3)

    def test_silent_at_reference_geometry(self):
        cfg = make_config(region_side=10.0, height=3.0, power_dbm=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sop_chebyshev(cfg, 100).value >= LOWER_BOUND_PAS

    @pytest.mark.parametrize("region_side", [1.0, 10.0])
    def test_accurate_at_the_largest_admitted_height(self, region_side):
        # 5D^2/4 + h^2 still resolves 5D^2/4 to 1e-6 here; at rate 0 the SOP
        # is the floor for any geometry, once the SNRs are large enough for
        # 1 + snr to resolve them
        height = 7e4 * region_side
        cfg = make_config(region_side=region_side, height=height, power_dbm=120.0, rate=0.0)
        assert cfg.effective_snr / height**2 > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sop_chebyshev(cfg, 100).value
        assert value == pytest.approx(LOWER_BOUND_PAS, abs=1e-5)
        with pytest.raises(ValueError, match="height / region_side"):
            replace(cfg, height=1.2e5 * region_side)

    def test_silent_for_a_dip_inside_the_tolerance(self):
        # at rate 0 the N = 100 sum sits about 5e-5 below the floor
        cfg = make_config(region_side=10.0, height=3.0, power_dbm=20.0, rate=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sop_chebyshev(cfg, 100).value
        assert 0.0 < LOWER_BOUND_PAS - value <= 1e-3


def chebyshev_by_loop(cfg, order: int) -> float:
    """The raw Chebyshev sum of one configuration, with a Python loop for the sum."""
    lo, hi = dist_mod.snr_eve_support(cfg)
    halfwidth = 0.5 * (hi - lo)
    n = np.arange(1, order + 1)
    nodes = np.cos((2.0 * n - 1.0) * math.pi / (2.0 * order))
    weights = np.sqrt(np.maximum(1.0 - nodes**2, 0.0))
    t = halfwidth * nodes + 0.5 * (hi + lo)
    c = cfg.rate_threshold
    with np.errstate(over="ignore"):
        bob_snr = c * t + (c - 1.0)
    terms = weights * dist_mod.pdf_snr_eve(t, cfg) * dist_mod.cdf_snr_bob(bob_snr, cfg)
    total = 0.0
    for term in terms.tolist():
        total += term
    return (math.pi / order) * halfwidth * total


class TestChebyshevBatch:
    @pytest.mark.parametrize("order", [1, 2, 100, 1000])
    def test_every_row_equals_the_loop_sum_bit_for_bit(self, order):
        configs = box_configs(60, seed=20261019)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the floor warning
            batch = sop_mod.sop_chebyshev_batch(configs, order)
            single = [sop_chebyshev(cfg, order) for cfg in configs]
        assert batch == single
        raws = [est.value if est.raw_value is None else est.raw_value for est in batch]
        assert raws == [chebyshev_by_loop(cfg, order) for cfg in configs]

    @pytest.mark.parametrize(
        "block,count,order",
        [(None, 700, 100), (250, 60, 100), (250, 60, 1000), (None, 3, (1 << 16) + 1)],
    )
    def test_blocks_of_rows_stay_bounded_and_equal_one_call_each(
        self, monkeypatch, block, count, order
    ):
        if block is not None:
            monkeypatch.setattr(sop_mod, "_BLOCK_NODES", block)
        limit = max(sop_mod._BLOCK_NODES, order)  # a row longer than a block is one call
        sizes = []
        pdf = dist_mod._pdf_snr_eve
        monkeypatch.setattr(dist_mod, "_pdf_snr_eve", lambda t, p: sizes.append(t.size) or pdf(t, p))
        configs = box_configs(count, seed=20261019)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the floor warning
            batch = sop_mod.sop_chebyshev_batch(configs, order)
            calls = len(sizes)
            single = [sop_chebyshev(cfg, order) for cfg in configs]
        assert batch == single
        assert sum(sizes[:calls]) == count * order
        assert max(sizes[:calls]) <= limit
        assert calls == math.ceil(count * order / (limit // order * order))

    def test_empty_batch_and_bad_order(self):
        assert sop_mod.sop_chebyshev_batch([]) == []
        with pytest.raises(ValueError, match="order"):
            sop_mod.sop_chebyshev_batch([make_config()], 0)

    @pytest.mark.parametrize("order", [2.5, 100.7, 100.0, True, False])
    def test_rejects_a_non_integer_order(self, order):
        # int(2.5) would run a plausible order-2 rule; True would run order 1
        with pytest.raises(TypeError, match="order must be an integer"):
            sop_chebyshev(make_config(), order)
        with pytest.raises(TypeError, match="order must be an integer"):
            sop_mod.sop_chebyshev_batch([make_config()], order)

    def test_numpy_integer_order_gives_the_int_order(self):
        est = sop_chebyshev(make_config(), np.int64(100))
        assert type(est.order_or_trials) is int
        assert est == sop_chebyshev(make_config(), 100)


def threshold_frozen(cfg, snr: float, y: np.ndarray) -> np.ndarray:
    """The outage integrand's offset-CDF argument t at offsets ``y``, inf past its pole.

    Frozen; ``sop._outage_integral``'s integrand must give the same bits.
    """
    h2 = cfg.height**2
    c = cfg.rate_threshold
    k = (c - 1.0) * h2
    y2 = y * y
    a = y2 + h2
    den = 1.0 - (c - 1.0) * (a / snr)
    return np.divide(c * y2 + k * (1.0 + a / snr), den, out=np.full_like(a, np.inf), where=den > 0)


def outage_integral_frozen(cfg, snr: float) -> tuple[float, int]:
    """``sop._outage_integral`` on the frozen kernel, with no certain-outage exit.

    Frozen with its panel rule on the library's nested nodes (widths by
    ``np.diff``), its integrand (:func:`threshold_frozen`) and its kernel
    (:func:`cdf_offset_sq_full_correction`); the library, which evaluates
    each panel in one branch and skips certain outage, must give the
    same value and evaluation count bit for bit.
    """
    h2 = cfg.height**2
    c = cfg.rate_threshold
    half = cfg.region_side / 2.0
    k = (c - 1.0) * h2
    crossings = []
    for w in dist_mod.offset_sq_knots(cfg)[1:]:
        v = (w + h2) / snr
        y2 = (w - k * (1.0 + v)) / (c + (c - 1.0) * v)
        crossings.append(min(math.sqrt(y2), half) if y2 > 0.0 else 0.0)

    def outage(y):
        return cdf_offset_sq_full_correction(threshold_frozen(cfg, snr, y), cfg.region_side)

    edges = np.asarray(sorted({0.0, *crossings}), dtype=np.float64)
    widths = np.diff(edges)
    x = edges[..., :-1, None] + widths[..., None] * sop_mod._NODES
    parts = (outage(x) * widths[..., None]).sum(axis=-2)
    fine = (parts * sop_mod._WEIGHTS).sum(axis=-1)
    coarse = (parts[..., 1::2] * sop_mod._COARSE_WEIGHTS).sum(axis=-1)
    assert float(np.abs(fine - coarse)) / half <= sop_mod._ERROR_BOUND
    return (float(fine) + (half - crossings[-1])) / half, x.size


class TestTrimmedExactPath:
    @pytest.mark.parametrize("evaluate,at_infinity", [(sop_exact, False), (sop_asymptotic, True)])
    def test_equals_the_frozen_integral_bit_for_bit(self, evaluate, at_infinity):
        configs = box_configs(600, seed=20261020) + [
            make_config(region_side=d, power_dbm=float(p), rate=r)
            for d in (5.0, 10.0, 30.0, 100.0)
            for r in (0.0, 0.1, 1.0)
            for p in range(-60, 125, 5)
        ]
        for cfg in configs:
            value, evaluations = outage_integral_frozen(
                cfg, math.inf if at_infinity else cfg.effective_snr
            )
            est = evaluate(cfg)
            assert (est.value if est.raw_value is None else est.raw_value) == value, cfg
            assert est.order_or_trials == evaluations, cfg

    @pytest.mark.parametrize("evaluate,at_infinity", [(sop_exact, False), (sop_asymptotic, True)])
    def test_a_panel_outside_its_branch_takes_the_masked_kernel(
        self, monkeypatch, evaluate, at_infinity
    ):
        cfg = make_config(power_dbm=0.0, rate=1.0)
        masked = dist_mod._cdf_offset_sq
        calls = []

        def counting(t, d):
            calls.append(t.shape)
            return masked(t, d)

        monkeypatch.setattr(dist_mod, "_cdf_offset_sq", counting)
        evaluate(cfg)
        assert calls == []  # every panel lies inside its branch
        # D^2/4 reported 1e-6 high moves its crossing, so the last nodes of
        # the first panel pass D^2/4 and that panel alone falls back; the
        # kernel reads the knots of D, and offset_sq_knots returns them
        knots = dist_mod._offset_knots
        monkeypatch.setattr(
            dist_mod, "_offset_knots", lambda d: (0.0, knots(d)[1] * (1.0 + 1e-6), *knots(d)[2:])
        )
        value, evaluations = outage_integral_frozen(
            cfg, math.inf if at_infinity else cfg.effective_snr
        )
        est = evaluate(cfg)
        assert (est.value, est.order_or_trials) == (value, evaluations)
        assert len(calls) == 1


def recording_thresholds(monkeypatch) -> list:
    """Wrap ``distributions._cdf_offset_sq_rows`` so a copy of each t it gets is recorded."""
    thresholds = []
    rows = dist_mod._cdf_offset_sq_rows

    def recording(t, d):
        thresholds.append(t.copy())
        return rows(t, d)

    monkeypatch.setattr(dist_mod, "_cdf_offset_sq_rows", recording)
    return thresholds


class TestIntegrandAssumptions:
    @pytest.mark.parametrize("evaluate", [sop_exact, sop_asymptotic])
    def test_t_never_decreases_along_a_row(self, monkeypatch, evaluate):
        # the offset CDF reads each row's least and greatest t at its ends
        thresholds = recording_thresholds(monkeypatch)
        evaluated = [evaluate(cfg).order_or_trials > 0 for cfg in box_configs(600, seed=20261020)]
        assert len(thresholds) == sum(evaluated) > 300
        for t in thresholds:
            assert (t[:, 1:] >= t[:, :-1]).all()

    def test_the_denominator_never_rises_along_the_nodes(self, monkeypatch):
        # so the integrand reads its least at the last node of the last panel
        nodes = []
        quadrature = sop_mod._panel_quadrature

        def capturing(f, edges):
            def recording(y):
                nodes.append(y.copy())
                return f(y)

            return quadrature(recording, edges)

        monkeypatch.setattr(sop_mod, "_panel_quadrature", capturing)
        calls = 0
        for cfg in box_configs(600, seed=20261020):
            if sop_exact(cfg).order_or_trials == 0:
                continue
            [y] = nodes
            nodes.clear()
            calls += 1
            c, s = cfg.rate_threshold, cfg.effective_snr
            den = 1.0 - (c - 1.0) * ((y * y + cfg.height**2) / s)
            assert (np.diff(den.ravel()) <= 0.0).all(), cfg
        assert calls > 300

    @pytest.mark.parametrize("power_dbm,rate", [(20.0, 0.1), (0.0, 1.0)])
    def test_past_the_pole_t_is_inf_as_in_the_frozen_integrand(self, monkeypatch, power_dbm, rate):
        # the nodes stop short of the pole where the denominator reaches 0,
        # so the integrand is captured and called on offsets across it
        cfg = make_config(power_dbm=power_dbm, rate=rate)
        integrands = []
        quadrature = sop_mod._panel_quadrature

        def capturing(f, edges):
            integrands.append(f)
            return quadrature(f, edges)

        monkeypatch.setattr(sop_mod, "_panel_quadrature", capturing)
        thresholds = recording_thresholds(monkeypatch)
        sop_exact(cfg)
        [outage], [at_nodes] = integrands, thresholds
        assert np.isfinite(at_nodes).all()
        snr, c = cfg.effective_snr, cfg.rate_threshold
        pole = math.sqrt(snr / (c - 1.0) - cfg.height**2)
        across = pole * (1.0 + np.linspace(-1e-12, 1e-12, 127))
        y = np.tile(np.concatenate(([0.0], across[:-1])), (len(at_nodes), 1))
        den = 1.0 - (c - 1.0) * ((y * y + cfg.height**2) / snr)
        assert (den > 0.0).any() and (den <= 0.0).any()
        thresholds.clear()
        values = outage(y)
        [t] = thresholds
        expected = threshold_frozen(cfg, snr, y)
        assert np.array_equal(t, expected)
        assert (t[den <= 0.0] == math.inf).all()
        assert np.array_equal(values, cdf_offset_sq_full_correction(expected, cfg.region_side))


class TestSopAsymptotic:
    def test_independent_of_transmit_power(self):
        values = {
            p: sop_asymptotic(make_config(power_dbm=p)).value for p in (0.0, 50.0)
        }
        assert values[0.0] == values[50.0]

    def test_zero_rate_recovers_lower_bound(self):
        # with rate 0 the threshold argument reduces to t^2 and the
        # integral is exactly the probability behind the constant floor
        for d, h in ((10.0, 3.0), (30.0, 1.0)):
            cfg = make_config(region_side=d, height=h, rate=0.0)
            assert sop_asymptotic(cfg).value == pytest.approx(LOWER_BOUND_PAS, abs=1e-8)
        p, sigma = mc_bound_event_oracle(1_000_000, seed=55)
        assert abs(sop_asymptotic(make_config(rate=0.0)).value - p) <= 3.0 * sigma

    def test_high_power_convergence(self, cfg30):
        high = make_config(region_side=30.0, power_dbm=60.0)
        assert abs(sop_exact(high).value - sop_asymptotic(high).value) <= 1e-2

    @pytest.mark.parametrize("rate", [1011.1, 1017.0, 1020.0, 1023.0])
    def test_certain_outage_where_the_rate_threshold_nearly_overflows(self, rate):
        # C times an SNR overflows to inf from rate ~1011 on, and (C - 1)
        # times an offset from ~1017 on; divided by the infinite SNR that
        # was nan. The test suite turns an overflow warning into an error.
        cfg = make_config(rate=rate)
        assert sop_asymptotic(cfg).value == 1.0
        assert sop_exact(cfg).value == 1.0
        assert sop_chebyshev(cfg, 100).value == 1.0
        mc = McConfig(trials=1_000, seed=3)
        ((pas, fpa),) = simulate_sops((cfg,), mc, ["pas", "fpa"])
        assert (pas.estimate, fpa.estimate) == (1.0, 1.0)


def scaled(cfg, k: float):
    """``cfg`` with D and h times k and the transmit power, in watts, times k^2."""
    return replace(
        cfg,
        region_side=k * cfg.region_side,
        height=k * cfg.height,
        transmit_power=k * k * cfg.transmit_power,
    )


class TestScaleInvariance:
    """The SOP depends on D, h and the effective SNR s only through h/D and s/D^2.

    Scaling D and h by k and s by k^2 keeps every ratio of squared
    distances and every SNR. At k a power of two every float scales
    exactly, so each method returns the same estimate, bit for bit.
    """

    @pytest.mark.parametrize("k", [2.0, 0.5])
    def test_analytic_methods_give_the_same_estimates(self, cfg10, cfg30, k):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the Chebyshev floor warning
            for cfg in [cfg10, cfg30, *box_configs(300, seed=20261020)]:
                for evaluate in (sop_exact, sop_asymptotic, sop_chebyshev):
                    assert evaluate(scaled(cfg, k)) == evaluate(cfg), (evaluate, cfg)

    @pytest.mark.parametrize("k", [2.0, 0.5])
    def test_monte_carlo_gives_the_same_results(self, cfg10, cfg30, k):
        configs = [cfg10, cfg30, *box_configs(40, seed=20261020)]
        mc = McConfig(2 * mc_mod._CHUNK_TRIALS + 7, 20)
        expected = simulate_sops(configs, mc, ("pas", "fpa"))
        assert simulate_sops([scaled(cfg, k) for cfg in configs], mc, ("pas", "fpa")) == expected


class TestSopEstimateType:
    @pytest.mark.parametrize(
        "raw", [0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), -5e-324, -0.2, 1.5]
    )
    def test_clamped_is_the_min_max_rule(self, raw):
        # the in-range fast path included: -0.0 stays -0.0, as the rule keeps it
        value = min(max(raw, 0.0), 1.0)
        est = sop_mod._clamped(raw, Method.EXACT, 7)
        assert repr((est.value, est.raw_value)) == repr((value, raw if value != raw else None))
        assert (est.method, est.order_or_trials) == (Method.EXACT, 7)

    def test_clamped_nan_raises(self):
        with pytest.raises(ValueError):
            sop_mod._clamped(math.nan, Method.EXACT, 7)

    def test_value_domain_enforced(self):
        with pytest.raises(ValueError):
            SopEstimate(1.5, Method.EXACT, 0)
        with pytest.raises(ValueError):
            SopEstimate(-0.1, Method.EXACT, 0)
        with pytest.raises(ValueError):
            SopEstimate(0.5, Method.MC, -1)
        with pytest.raises(ValueError):
            SopEstimate(0.5, Method.MC, 100, stderr=-1e-3)

    def test_analytic_methods_return_python_floats(self, cfg10):
        clamped = sop_chebyshev(make_config(power_dbm=-30.0), 2)
        assert clamped.raw_value is not None
        estimates = (
            sop_exact(cfg10),
            sop_chebyshev(cfg10, 100),
            clamped,
            sop_asymptotic(cfg10),
            sop_lower_bound_pas(),
            sop_lower_bound_fpa(),
        )
        for est in estimates:
            assert type(est.value) is float, est.method
            assert est.raw_value is None or type(est.raw_value) is float, est.method

    def test_chebyshev_floor_spot_check(self, cfg10, cfg30):
        floor = sop_lower_bound_pas().value
        for cfg in (cfg10, cfg30):
            assert sop_chebyshev(cfg, 100).value >= floor - 1e-3


REFERENCE_GRID = [
    (d, float(p), r)
    for d in (10.0, 30.0)
    for p in range(0, 45, 5)
    for r in (0.1, 0.5, 1.0)
]


@pytest.fixture(scope="module")
def exact_on_grid():
    return {
        (d, p, r): sop_exact(make_config(region_side=d, power_dbm=p, rate=r)).value
        for d, p, r in REFERENCE_GRID
    }


class TestGridInvariants:
    def test_doubling_reduces_error_everywhere(self, exact_on_grid):
        for (d, p, r), exact in exact_on_grid.items():
            cfg = make_config(region_side=d, power_dbm=p, rate=r)
            err8 = abs(sop_chebyshev(cfg, 8).value - exact)
            err128 = abs(sop_chebyshev(cfg, 128).value - exact)
            assert err128 <= err8, f"(D={d}, P={p}, R={r}): {err128} > {err8}"

    def test_chebyshev_respects_floor_everywhere(self, exact_on_grid):
        floor = sop_lower_bound_pas().value
        for d, p, r in exact_on_grid:
            cfg = make_config(region_side=d, power_dbm=p, rate=r)
            assert sop_chebyshev(cfg, 100).value >= floor - 1e-3


class TestNorthStarBox:
    def test_exact_and_asymptote_hold_across_the_box(self):
        """D in [1, 1e4] m, h/D in [1e-5, 10], -60..120 dBm, rate 0..30.

        The Monte Carlo comparisons use 4 sigma as a family-wise bound
        over 20 of them; sigma keeps a 1/n floor on p(1-p) so an estimate
        of exactly 0 or 1 is not given zero width. They skip certain
        outage (no evaluations) and rate 0 (the PAS floor), which have
        tests of their own.
        """
        trials = 200_000
        oracle_checks = []

        @settings(max_examples=300, deadline=None)
        @given(
            st.floats(0.0, 4.0),
            st.floats(-5.0, 1.0),
            st.floats(-60.0, 120.0),
            st.floats(0.0, 30.0),
        )
        def check(log_side, log_ratio, power_dbm, rate):
            side = 10.0**log_side
            cfg = make_config(
                region_side=side,
                height=side * 10.0**log_ratio,
                power_dbm=power_dbm,
                rate=rate,
            )
            est = sop_exact(cfg)
            exact = est.value
            asym = sop_asymptotic(cfg).value
            assert exact >= asym - 1e-12
            louder = replace(cfg, transmit_power=1e3 * cfg.transmit_power)
            assert sop_asymptotic(louder).value == asym
            if len(oracle_checks) < 20 and est.order_or_trials > 0 and rate > 0.0:
                oracle_checks.append(cfg)
                p, _ = mc_sop_pas_oracle(cfg, trials, seed=3000 + len(oracle_checks))
                sigma = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
                assert abs(exact - p) <= 4.0 * sigma

        check()
        assert len(oracle_checks) == 20
