import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchsec import (
    SystemConfig,
    dbm_to_watts,
    snr_bob_pinching,
    snr_eve_pinching,
    snr_fpa,
)
from pinchsec.system import OPTIONS, operating_point, snr_at_distance_sq

from conftest import make_config


class TestUnitConversion:
    def test_dbm_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        # 10^((-80-30)/10) = 1e-11
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dbm_to_watts(math.nan)
        with pytest.raises(ValueError):
            dbm_to_watts(math.inf)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            dbm_to_watts(4000.0)
        assert dbm_to_watts(3000.0) == pytest.approx(1e297, rel=1e-12)


class TestOperatingPoint:
    def test_every_field_but_the_refractive_index_is_one_option(self):
        inputs = [f.name for f in fields(SystemConfig) if f.init and f.name != "refractive_index"]
        assert sorted(row[0] for row in OPTIONS.values()) == sorted(inputs)

    def test_defaults_in_each_unit(self):
        assert operating_point() == SystemConfig(
            region_side=10.0,
            height=3.0,
            carrier_freq=28e9,
            transmit_power=dbm_to_watts(20.0),
            noise_power=dbm_to_watts(-80.0),
            target_rate=0.1,
        )

    def test_values_are_converted_to_si(self):
        cfg = operating_point(freq_ghz=60.0, power_dbm=33.0, noise_dbm=-70.0, height=2.5)
        assert (cfg.carrier_freq, cfg.height) == (60e9, 2.5)
        assert (cfg.transmit_power, cfg.noise_power) == (dbm_to_watts(33.0), dbm_to_watts(-70.0))

    def test_si_values_keep_their_type(self):
        assert type(operating_point(region_side=7, rate=1).region_side) is int

    def test_reference_config_is_the_operating_point_at_30_dbm(self):
        assert make_config() == operating_point(power_dbm=30.0)
        assert make_config(power_dbm=20.0) == operating_point()

    @pytest.mark.parametrize("build", [operating_point, make_config])
    def test_unknown_key_is_a_type_error(self, build):
        with pytest.raises(TypeError, match="'heigth'"):
            build(heigth=3.0)
        with pytest.raises(TypeError):
            build(10.0)  # values are keywords only


class TestSystemConfig:
    def test_derived_quantities(self, cfg10):
        assert cfg10.wavelength == pytest.approx(299792458.0 / 28e9, rel=1e-15)
        # path gain is wavelength^2 / (16 pi^2) exactly by construction
        assert cfg10.path_gain == cfg10.wavelength**2 / (16.0 * math.pi**2)
        assert cfg10.effective_snr == pytest.approx(
            cfg10.path_gain * cfg10.transmit_power / cfg10.noise_power, rel=1e-15
        )
        assert cfg10.rate_threshold == 2.0**0.1

    def test_rate_threshold_floor(self):
        assert make_config(rate=0.0).rate_threshold == 1.0

    def test_replace_rederives_and_revalidates(self, cfg10):
        changed = replace(cfg10, transmit_power=2.0 * cfg10.transmit_power, target_rate=1.0)
        assert changed.effective_snr == pytest.approx(2.0 * cfg10.effective_snr, rel=1e-15)
        assert changed.rate_threshold == 2.0
        with pytest.raises(ValueError, match="region_side"):
            replace(cfg10, region_side=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("region_side", 0.0),
            ("height", -1.0),
            ("carrier_freq", 0.0),
            ("refractive_index", 0.9),
            ("transmit_power", 0.0),
            ("noise_power", -1e-11),
            ("target_rate", -0.1),
            ("region_side", math.inf),
            ("height", math.inf),
            ("carrier_freq", math.inf),
            ("refractive_index", math.inf),
            ("transmit_power", math.inf),
            ("noise_power", math.inf),
            ("target_rate", math.inf),
            ("height", -math.inf),
            ("target_rate", math.nan),
            # finite inputs whose derived values overflow or underflow
            ("carrier_freq", 1e-300),
            ("carrier_freq", 1e300),
            ("transmit_power", 1e308),
            ("noise_power", 1e-320),
            ("transmit_power", 1e-320),
            ("target_rate", 1024.0),
            ("target_rate", 1e6),
            # powers of finite inputs, or the peak SNR, that overflow or underflow
            ("height", 1e-200),
            ("height", 1e-160),
            ("height", 1e155),
            ("height", 1e-152),
            ("region_side", 1.5e154),
            ("region_side", 1.2e154),
            ("region_side", 1e-160),
            ("region_side", 1e150),
            ("region_side", 1e-110),
            # so high above the region that 5D^2/4 + h^2 loses 5D^2/4
            ("height", 3e6),
            ("height", 3e8),
            ("region_side", 1e-5),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(
            region_side=10.0,
            height=3.0,
            carrier_freq=28e9,
            refractive_index=1.4,
            transmit_power=1.0,
            noise_power=1e-11,
            target_rate=0.1,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemConfig(**kwargs)


class TestWaveguidePhase:
    def test_phase_never_reaches_snr(self, cfg10):
        # the refractive index sets only the in-waveguide phase, which
        # cancels under the modulus: no SNR depends on it
        other = replace(cfg10, refractive_index=2.5)
        for y1 in (-5.0, 0.0, 1.0, 3.3):
            assert snr_bob_pinching(y1, cfg10) == snr_bob_pinching(y1, other)


class TestSnrFormulas:
    def test_bob_extremes(self, cfg10):
        s, h2, d = cfg10.effective_snr, cfg10.height**2, cfg10.region_side
        assert snr_bob_pinching(0.0, cfg10) == pytest.approx(s / h2, rel=1e-15)
        edge = s / (h2 + d * d / 4.0)
        assert snr_bob_pinching(d / 2.0, cfg10) == pytest.approx(edge, rel=1e-15)
        assert snr_bob_pinching(-d / 2.0, cfg10) == pytest.approx(edge, rel=1e-15)
        assert snr_bob_pinching(cfg10.height, cfg10) == pytest.approx(
            s / (2.0 * h2), rel=1e-15
        )

    def test_eve_extremes(self, cfg10):
        s, h2, d = cfg10.effective_snr, cfg10.height**2, cfg10.region_side
        assert snr_eve_pinching(1.0, 1.0, 0.0, cfg10) == pytest.approx(s / h2, rel=1e-15)
        worst = s / (h2 + 1.25 * d * d)
        assert snr_eve_pinching(d / 2.0, -d / 2.0, d / 2.0, cfg10) == pytest.approx(
            worst, rel=1e-15
        )
        assert snr_eve_pinching(cfg10.height, 0.0, 0.0, cfg10) == pytest.approx(
            s / (2.0 * h2), rel=1e-15
        )

    def test_fpa_center_and_corner(self, cfg10):
        s, h2, d = cfg10.effective_snr, cfg10.height**2, cfg10.region_side
        assert snr_fpa(0.0, 0.0, cfg10) == pytest.approx(s / h2, rel=1e-15)
        assert snr_fpa(d / 2.0, d / 2.0, cfg10) == pytest.approx(
            s / (h2 + d * d / 2.0), rel=1e-15
        )

    def test_fpa_matches_eve_with_antenna_at_origin(self, cfg10):
        assert snr_fpa(2.0, 3.0, cfg10) == snr_eve_pinching(0.0, 2.0, 3.0, cfg10)

    def test_vectorized(self, cfg10):
        y = np.array([0.0, 1.0, 5.0])
        out = snr_bob_pinching(y, cfg10)
        assert out.shape == (3,)
        assert out[0] == snr_bob_pinching(0.0, cfg10)


# each formula with its coordinate arguments
SNR_CALLS = [(snr_bob_pinching, 1), (snr_eve_pinching, 3), (snr_fpa, 2)]

# each formula's denominator, the squared antenna distance, out of place
DISTANCE_SQ = {
    snr_bob_pinching: lambda y1, h2: y1**2 + h2,
    snr_eve_pinching: lambda x1, x2, y2, h2: (x1 - x2) ** 2 + y2**2 + h2,
    snr_fpa: lambda x, y, h2: x**2 + y**2 + h2,
}


class TestSnrOut:
    """``out=`` (and ``scratch=``) evaluate the same formula in place."""

    @pytest.mark.parametrize("formula,arity", SNR_CALLS)
    @pytest.mark.parametrize("overrides", [dict(), dict(power_dbm=-150.0), dict(region_side=1e3)])
    def test_out_is_returned_and_bitwise_equal(self, formula, arity, overrides):
        cfg = make_config(**overrides)
        half = cfg.region_side / 2.0
        # strided columns, like the Monte Carlo draw buffer's
        coords = np.random.default_rng(3).uniform(-half, half, (1000, 4))[:, :arity].T
        expected = formula(*coords, cfg)
        buf = np.full(1000, np.nan)
        extra = {} if formula is snr_bob_pinching else {"scratch": np.empty(1000)}
        assert formula(*coords, cfg, out=buf, **extra) is buf
        assert np.array_equal(buf, expected)
        assert expected.tobytes() == buf.tobytes()

    @pytest.mark.parametrize("formula,arity", SNR_CALLS)
    @pytest.mark.parametrize("shape", [(), (1000,)], ids=["scalar", "array"])
    @pytest.mark.parametrize("overrides", [dict(), dict(power_dbm=-150.0), dict(region_side=1e3)])
    def test_denominator_keeps_the_sum_and_the_bits(self, formula, arity, shape, overrides):
        cfg = make_config(**overrides)
        rng = np.random.default_rng(5)
        half = cfg.region_side / 2.0
        coords = [rng.uniform(-half, half, shape) for _ in range(arity)]
        if not shape:
            coords = [float(c) for c in coords]
        expected = formula(*coords, cfg)
        distance_sq = np.asarray(DISTANCE_SQ[formula](*coords, cfg.height**2))
        denominator = np.full(shape, np.nan)
        got = formula(*coords, cfg, denominator=denominator)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert denominator.tobytes() == distance_sq.tobytes()
        # with out= too, the sum stays in denominator and the quotient goes to out
        out, denominator = np.full(shape, np.nan), np.full(shape, np.nan)
        extra = {} if formula is snr_bob_pinching else {"scratch": np.empty(shape)}
        assert formula(*coords, cfg, out=out, denominator=denominator, **extra) is out
        assert out.tobytes() == np.asarray(expected).tobytes()
        assert denominator.tobytes() == distance_sq.tobytes()
        # the divide alone maps the sum to the SNR, here and at another power
        louder = make_config(**{**overrides, "power_dbm": overrides.get("power_dbm", 30.0) + 20.0})
        for at in (cfg, louder):
            again = formula(*coords, at)
            assert np.asarray(snr_at_distance_sq(denominator, at)).tobytes() == np.asarray(again).tobytes()

    @pytest.mark.parametrize("formula,arity", SNR_CALLS)
    def test_scalar_input_returns_a_float(self, formula, arity, cfg10):
        value = formula(*[1.5] * arity, cfg10)
        assert isinstance(value, float) and np.ndim(value) == 0
        assert value == formula(*[np.array([1.5])] * arity, cfg10)[0]

    @given(st.floats(-5.0, 5.0), st.floats(0.25, 4.0))
    def test_linear_in_transmit_power(self, y1, k):
        cfg = make_config()
        scaled = replace(cfg, transmit_power=cfg.transmit_power * k)
        assert snr_bob_pinching(y1, scaled) == pytest.approx(
            k * snr_bob_pinching(y1, cfg), rel=1e-12
        )

    @given(
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    )
    def test_bob_dominates_when_closer(self, y1, x1, x2, y2):
        cfg = make_config()
        if (x1 - x2) ** 2 + y2**2 >= y1**2:
            assert snr_bob_pinching(y1, cfg) >= snr_eve_pinching(x1, x2, y2, cfg)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_eve_within_declared_range(self, x1, x2, y2):
        cfg = make_config()
        s, h2, d2 = cfg.effective_snr, cfg.height**2, cfg.region_side**2
        val = snr_eve_pinching(x1, x2, y2, cfg)
        assert s / (h2 + 1.25 * d2) * (1 - 1e-12) <= val <= s / h2 * (1 + 1e-12)
