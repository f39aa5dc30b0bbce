"""Physical configuration, geometry, and instantaneous SNR formulas.

All quantities are SI (meters, hertz, watts). :data:`OPTIONS` is the one
table of the operating point in the CLI's units (GHz, dBm): the CLI
builds configurations from it by :func:`operating_point`, the check
suite by :func:`reference_config`, the same table at 30 dBm, and a
sweep converts each point of its axis by the axis's row.

The transmit antenna is a radiating point on a dielectric waveguide that
runs parallel to the x axis at height ``h``; it is activated at the point
closest to the intended receiver, so only the receiver's cross-track
offset ``y1`` enters its SNR. The fixed-position baseline keeps a single
antenna at the region center ``(0, 0, h)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# (field, lower bound, bound is strict) for every numeric SystemConfig input
_FIELD_BOUNDS = (
    ("region_side", 0.0, True),
    ("height", 0.0, True),
    ("carrier_freq", 0.0, True),
    ("refractive_index", 1.0, False),
    ("transmit_power", 0.0, True),
    ("noise_power", 0.0, True),
    ("target_rate", 0.0, False),
)

def _pow(base: float, exponent: float) -> float:
    """base**exponent, inf where it overflows (Python raises instead)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power level in dBm to watts: 10^((p - 30)/10)."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power level must be finite, got {power_dbm}")
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power level {power_dbm:g} dBm overflows in watts") from None


@dataclass(frozen=True)
class SystemConfig:
    """Full physical parameterization of the downlink.

    Parameters
    ----------
    region_side:
        Side length D of the square ground region both receivers are
        uniformly distributed in, meters.
    height:
        Waveguide/antenna height h above the region, meters.
    carrier_freq:
        Carrier frequency in Hz; the wavelength is derived as c / f.
    transmit_power:
        Transmit power in watts.
    noise_power:
        Receiver noise power in watts.
    target_rate:
        Target secrecy rate in bits/s/Hz. Zero is allowed (the outage
        threshold degenerates to the rate-free comparison of SNRs).
    refractive_index:
        Keyword-only, default 1.4: the effective refractive index of the
        waveguide (>= 1). It sets only the in-waveguide phase, which
        cancels under the modulus, so it reaches no SNR and no output;
        the CLI no longer sets it.

    Every input must be finite. Derived values (wavelength, path gain,
    effective SNR, linear rate threshold) are computed once at
    construction and frozen. They, h^2, D^2, D^3, 5D^2/4 + h^2 and the
    peak SNR effective_snr / h^2 must each be finite and normal, so
    inputs that overflow or underflow one of them are rejected. So are
    heights so far above the region that 5D^2/4 + h^2 no longer
    resolves 5D^2/4 to 1e-6 relative (h/D beyond about 7e4).
    ``dataclasses.replace`` gives a changed copy, validated and derived
    anew.
    """

    region_side: float
    height: float
    carrier_freq: float
    transmit_power: float
    noise_power: float
    target_rate: float
    refractive_index: float = field(default=1.4, kw_only=True)

    wavelength: float = field(init=False)
    path_gain: float = field(init=False)
    effective_snr: float = field(init=False)
    rate_threshold: float = field(init=False)

    def __post_init__(self) -> None:
        for name, bound, strict in _FIELD_BOUNDS:
            value = getattr(self, name)
            if not (value > bound if strict else value >= bound):
                op = ">" if strict else ">="
                raise ValueError(f"{name} must be {op} {bound:g}, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

        wavelength = SPEED_OF_LIGHT / self.carrier_freq
        object.__setattr__(self, "wavelength", wavelength)
        # free-space gain of the spherical-wave model at unit distance
        object.__setattr__(self, "path_gain", _pow(wavelength, 2) / (16.0 * math.pi**2))
        object.__setattr__(
            self, "effective_snr", self.path_gain * self.transmit_power / self.noise_power
        )
        object.__setattr__(self, "rate_threshold", _pow(2.0, self.target_rate))
        h2 = _pow(self.height, 2)
        d2 = _pow(self.region_side, 2)
        # every derived value, then every scale the closed forms compute
        # from the inputs alone, in the order they are checked; each must
        # be finite and normal, which finite inputs alone do not guarantee
        derived = (
            ("wavelength = c / carrier_freq", wavelength),
            ("path_gain = (c / carrier_freq)^2 / (16 pi^2)", self.path_gain),
            ("effective_snr = path_gain * transmit_power / noise_power", self.effective_snr),
            ("rate_threshold = 2^target_rate", self.rate_threshold),
            ("height^2", h2),
            ("region_side^2", d2),
            ("region_side^3", _pow(self.region_side, 3)),
            ("5 region_side^2 / 4 + height^2", 1.25 * d2 + h2),
            # h2 = 0 fails first
            ("peak SNR effective_snr / height^2", self.effective_snr / h2 if h2 else math.inf),
        )
        for formula, value in derived:
            if not sys.float_info.min <= value < math.inf:
                raise ValueError(f"{formula} must be finite and normal (> 0), got {value}")
        # Chebyshev recovers offsets as s/t - h^2 with t down to s/(5D^2/4 + h^2),
        # so that sum must resolve 5D^2/4; 1e-6 admits h/D up to about 7e4
        if math.ulp(1.25 * d2 + h2) > 1e-6 * 1.25 * d2:
            raise ValueError(
                f"height / region_side = {self.height / self.region_side:g} is too large: "
                "5 region_side^2 / 4 + height^2 must resolve 5 region_side^2 / 4 to 1e-6"
            )


# CLI option -> (SystemConfig field, default in the option's unit, conversion to
# SI or None where the unit is SI, help): the paper's operating point, in help order
OPTIONS = {
    "region-side": ("region_side", 10.0, None, "region side D in meters"),
    "height": ("height", 3.0, None, "antenna height h in meters"),
    "freq-ghz": ("carrier_freq", 28.0, lambda ghz: ghz * 1e9, "carrier frequency in GHz"),
    "power-dbm": ("transmit_power", 20.0, dbm_to_watts, "transmit power in dBm"),
    "noise-dbm": ("noise_power", -80.0, dbm_to_watts, "noise power in dBm"),
    "rate": ("target_rate", 0.1, None, "target secrecy rate in bits/s/Hz"),
}


def operating_point(**values: float) -> SystemConfig:
    """The configuration at option values keyed with underscores, defaults elsewhere."""
    fields = {}
    for key, (name, default, to_si, _) in OPTIONS.items():
        value = values.pop(key.replace("-", "_"), default)
        fields[name] = value if to_si is None else to_si(value)
    if values:  # a misspelt key is never silently dropped
        raise TypeError(f"unknown operating-point option {next(iter(values))!r}")
    return SystemConfig(**fields)


def reference_config(**values: float) -> SystemConfig:
    """The check suite's reference point: :func:`operating_point` at 30 dBm by default."""
    return operating_point(**{"power_dbm": 30.0, **values})


def snr_at_distance_sq(distance_sq, cfg: SystemConfig, out=None):
    """SNR at squared antenna distance ``distance_sq``: effective_snr / distance_sq.

    The last step of every SNR formula here. Given the denominator one
    of them left behind, it gives the SNR at any transmit power of the
    same geometry. ``out`` is as in :func:`snr_bob_pinching`.
    """
    return np.divide(cfg.effective_snr, distance_sq, out=out)


def snr_bob_pinching(y1, cfg: SystemConfig, out=None, *, denominator=None):
    """SNR of the legitimate receiver with the antenna activated at its x.

    gamma_B = effective_snr / (y1^2 + h^2). Independent of x1 because the
    activation point tracks the receiver along the waveguide. Accepts
    scalars or numpy arrays; like a numpy ufunc, it writes into ``out``
    (a float array of the result's shape) and returns it when given, and
    allocates the result when not. ``denominator``, a further such array,
    then receives y1^2 + h^2 and ``out`` only the quotient.
    """
    target = out if denominator is None else denominator
    distance_sq = np.square(y1, out=target)
    distance_sq = np.add(distance_sq, cfg.height**2, out=target)
    return snr_at_distance_sq(distance_sq, cfg, out)


def snr_eve_pinching(x1, x2, y2, cfg: SystemConfig, out=None, *, scratch=None, denominator=None):
    """SNR of the eavesdropper under the activation-at-x1 rule.

    gamma_E = effective_snr / ((x1 - x2)^2 + y2^2 + h^2): the
    fixed-position formula :func:`snr_fpa` at the offset (x1 - x2, y2).
    ``out``, ``scratch`` and ``denominator`` are as there.
    """
    offset = np.subtract(x1, x2, out=out if denominator is None else denominator)
    return snr_fpa(offset, y2, cfg, out, scratch=scratch, denominator=denominator)


def snr_fpa(x, y, cfg: SystemConfig, out=None, *, scratch=None, denominator=None):
    """SNR under the fixed-position baseline, antenna at (0, 0, h).

    Same formula for both receivers: effective_snr / (x^2 + y^2 + h^2).
    Accepts scalars or numpy arrays. Like a numpy ufunc, it writes into
    ``out`` and returns it when given; ``scratch``, a second array of the
    result's shape, then holds y^2, so the call makes no temporary. Each
    one left out is allocated. ``denominator`` is as in
    :func:`snr_bob_pinching`: it receives x^2 + y^2 + h^2.
    """
    target = out if denominator is None else denominator
    distance_sq = np.square(x, out=target)
    distance_sq = np.add(distance_sq, np.square(y, out=scratch), out=target)
    distance_sq = np.add(distance_sq, cfg.height**2, out=target)
    return snr_at_distance_sq(distance_sq, cfg, out)
