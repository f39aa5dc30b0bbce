import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import roots_legendre

from pinchsec import sop as sop_mod
from pinchsec import (
    LOWER_BOUND_FPA,
    LOWER_BOUND_PAS,
    AccuracyError,
    Method,
    SopEstimate,
    sop_asymptotic,
    sop_chebyshev,
    sop_exact,
    sop_lower_bound_fpa,
    sop_lower_bound_pas,
)

from conftest import make_config


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


class TestFrozenRule:
    def test_nodes_equal_the_scipy_rule(self):
        # the smoothstep-composed rules as built from roots_legendre before
        # its nodes were frozen; any change to a table literal shows here
        def rule(order):
            x, w = roots_legendre(order)
            u = 0.5 * (x + 1.0)
            return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u) * w

        nodes, weights = map(np.concatenate, zip(rule(64), rule(128)))
        assert np.array_equal(sop_mod._NODES, nodes)
        assert np.array_equal(sop_mod._WEIGHTS, weights)


class TestSopExact:
    def test_saturated_outage_is_exactly_one(self):
        # rate threshold above 1 + max snr makes the outage certain
        cfg = make_config(power_dbm=-30.0, rate=12.0)
        assert cfg.rate_threshold >= 1.0 + cfg.effective_snr / cfg.height**2
        est = sop_exact(cfg)
        assert est.value == 1.0
        assert est.method is Method.EXACT

    def test_against_independent_mc(self, cfg30):
        est = sop_exact(cfg30, tol=1e-8)
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
            values.append(sop_exact(cfg, tol=1e-8).value)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert abs(values[-2] - values[-1]) <= 1e-3

    def test_tolerance_domain(self, cfg10):
        with pytest.raises(ValueError):
            sop_exact(cfg10, tol=0.0)
        with pytest.raises(ValueError):
            sop_exact(cfg10, tol=1e-2)

    def test_unreachable_tolerance_raises_with_estimate(self, cfg10):
        # no rule meets an absurdly small tolerance
        with pytest.raises(AccuracyError) as err:
            sop_exact(cfg10, tol=1e-300)
        reference = sop_exact(cfg10, tol=1e-8).value
        assert err.value.estimate == pytest.approx(reference, abs=1e-6)

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


class TestSopChebyshev:
    def test_matches_exact_at_order_100(self, cfg10, cfg30):
        for cfg in (cfg10, cfg30):
            exact = sop_exact(cfg, tol=1e-8).value
            cheb = sop_chebyshev(cfg, 100).value
            assert abs(cheb - exact) <= 1e-3

    def test_saturated_case(self):
        cfg = make_config(power_dbm=-30.0, rate=12.0)
        assert sop_chebyshev(cfg, 100).value == pytest.approx(1.0, abs=1e-6)

    def test_doubling_ladder(self, cfg10):
        cfg = make_config(power_dbm=20.0)
        exact = sop_exact(cfg, tol=1e-8).value
        errors = {n: abs(sop_chebyshev(cfg, n).value - exact) for n in (1, 2, 4, 8, 16, 32, 64, 128)}
        print("chebyshev convergence ladder:", {n: f"{e:.2e}" for n, e in errors.items()})
        assert errors[128] <= errors[8]

    def test_order_validation(self, cfg10):
        with pytest.raises(ValueError):
            sop_chebyshev(cfg10, 0)

    def test_value_always_in_unit_interval(self, cfg10):
        for n in (1, 2, 3, 5, 100):
            est = sop_chebyshev(cfg10, n)
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
        with pytest.warns(RuntimeWarning, match="below the provable floor"):
            est = sop_chebyshev(cfg, 100)
        assert est.value < LOWER_BOUND_PAS
        assert sop_exact(cfg).value == pytest.approx(exact, abs=1e-3)

    def test_silent_at_reference_geometry(self):
        cfg = make_config(region_side=10.0, height=3.0, power_dbm=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sop_chebyshev(cfg, 100).value >= LOWER_BOUND_PAS

    def test_silent_for_a_dip_inside_the_tolerance(self):
        # at rate 0 the N = 100 sum sits about 5e-5 below the floor
        cfg = make_config(region_side=10.0, height=3.0, power_dbm=20.0, rate=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sop_chebyshev(cfg, 100).value
        assert 0.0 < LOWER_BOUND_PAS - value <= 1e-3


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

    @pytest.mark.parametrize("rate", [1017.0, 1020.0, 1023.0])
    def test_certain_outage_where_the_rate_threshold_nearly_overflows(self, rate):
        # (C - 1) times an offset overflows to inf there; divided by the
        # infinite SNR that was nan
        assert sop_asymptotic(make_config(rate=rate)).value == 1.0


class TestSopEstimateType:
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
        (d, p, r): sop_exact(make_config(d, p, r), tol=1e-8).value
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

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
