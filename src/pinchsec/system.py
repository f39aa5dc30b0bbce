"""Physical configuration, geometry, and instantaneous SNR formulas.

All quantities are SI internally (meters, hertz, watts). dBm and GHz are
accepted only at the CLI boundary and converted exactly once.

The transmit antenna is a radiating point on a dielectric waveguide that
runs parallel to the x axis at height ``h``; it is activated at the point
closest to the intended receiver, so only the receiver's cross-track
offset ``y1`` enters its SNR. The fixed-position baseline keeps a single
antenna at the region center ``(0, 0, h)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power level in dBm to watts: 10^((p - 30)/10)."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power level must be finite, got {power_dbm}")
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def watts_to_dbm(power_watts: float) -> float:
    """Convert watts to dBm. Inverse of :func:`dbm_to_watts`."""
    if not power_watts > 0.0:
        raise ValueError(f"power must be positive, got {power_watts}")
    return 10.0 * math.log10(power_watts) + 30.0


@dataclass(frozen=True)
class Position:
    """A 3D point in meters. Ground nodes have z = 0, antennas z = h."""

    x: float
    y: float
    z: float

    def distance_to(self, other: "Position") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


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
    refractive_index:
        Effective refractive index of the waveguide (>= 1). Sets the
        guided wavelength; affects only the in-waveguide phase, never
        an SNR.
    transmit_power:
        Transmit power in watts.
    noise_power:
        Receiver noise power in watts.
    target_rate:
        Target secrecy rate in bits/s/Hz. Zero is allowed (the outage
        threshold degenerates to the rate-free comparison of SNRs).

    Derived values (wavelength, path gain, effective SNR, linear rate
    threshold) are computed once at construction and frozen.
    ``dataclasses.replace`` gives a changed copy, validated and derived
    anew.
    """

    region_side: float
    height: float
    carrier_freq: float
    refractive_index: float
    transmit_power: float
    noise_power: float
    target_rate: float

    wavelength: float = field(init=False)
    guided_wavelength: float = field(init=False)
    path_gain: float = field(init=False)
    effective_snr: float = field(init=False)
    rate_threshold: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.region_side > 0.0:
            raise ValueError(f"region_side must be > 0, got {self.region_side}")
        if not self.height > 0.0:
            raise ValueError(f"height must be > 0, got {self.height}")
        if not self.carrier_freq > 0.0:
            raise ValueError(f"carrier_freq must be > 0, got {self.carrier_freq}")
        if not self.refractive_index >= 1.0:
            raise ValueError(
                f"refractive_index must be >= 1, got {self.refractive_index}"
            )
        if not self.transmit_power > 0.0:
            raise ValueError(f"transmit_power must be > 0, got {self.transmit_power}")
        if not self.noise_power > 0.0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        if not self.target_rate >= 0.0:
            raise ValueError(f"target_rate must be >= 0, got {self.target_rate}")

        wavelength = SPEED_OF_LIGHT / self.carrier_freq
        object.__setattr__(self, "wavelength", wavelength)
        object.__setattr__(self, "guided_wavelength", wavelength / self.refractive_index)
        # free-space gain of the spherical-wave model at unit distance
        object.__setattr__(self, "path_gain", wavelength**2 / (16.0 * math.pi**2))
        object.__setattr__(
            self, "effective_snr", self.path_gain * self.transmit_power / self.noise_power
        )
        object.__setattr__(self, "rate_threshold", 2.0**self.target_rate)

    @property
    def half_side(self) -> float:
        """D/2, the coordinate bound of the deployment region."""
        return self.region_side / 2.0

    def feed_point(self) -> Position:
        """The fixed waveguide feed at (-D/2, 0, h)."""
        return Position(-self.half_side, 0.0, self.height)


def channel_coefficient(antenna: Position, receiver: Position, cfg: SystemConfig) -> complex:
    """Spherical-wave channel between an antenna point and a receiver.

    Returns sqrt(path_gain) * exp(-j*2*pi*d/wavelength) / d where d is the
    Euclidean distance. The squared magnitude is path_gain / d^2.
    """
    d = antenna.distance_to(receiver)
    if d == 0.0:
        raise ValueError("antenna and receiver coincide; channel is singular")
    phase = -2.0 * math.pi * d / cfg.wavelength
    return math.sqrt(cfg.path_gain) * cmath.exp(1j * phase) / d


def waveguide_phase(activation: Position, cfg: SystemConfig, feed: Position | None = None) -> float:
    """Phase accumulated from the feed point to the activation point.

    Both points must lie on the waveguide line (y = 0, z = height). The
    phase cancels under the modulus, so it never affects an SNR or an
    outage probability; it is kept for model completeness.
    """
    if feed is None:
        feed = cfg.feed_point()
    for name, p in (("activation", activation), ("feed", feed)):
        if p.y != 0.0 or p.z != cfg.height:
            raise ValueError(
                f"{name} point {p} is not on the waveguide line y=0, z={cfg.height}"
            )
    return 2.0 * math.pi * activation.distance_to(feed) / cfg.guided_wavelength


def snr_bob_pinching(y1, cfg: SystemConfig):
    """SNR of the legitimate receiver with the antenna activated at its x.

    gamma_B = effective_snr / (y1^2 + h^2). Independent of x1 because the
    activation point tracks the receiver along the waveguide. Accepts
    scalars or numpy arrays.
    """
    return cfg.effective_snr / (y1**2 + cfg.height**2)


def snr_eve_pinching(x1, x2, y2, cfg: SystemConfig):
    """SNR of the eavesdropper under the activation-at-x1 rule.

    gamma_E = effective_snr / ((x1 - x2)^2 + y2^2 + h^2). Accepts scalars
    or numpy arrays.
    """
    return cfg.effective_snr / ((x1 - x2) ** 2 + y2**2 + cfg.height**2)


def snr_fpa(x, y, cfg: SystemConfig):
    """SNR under the fixed-position baseline, antenna at (0, 0, h).

    Same formula for both receivers: effective_snr / (x^2 + y^2 + h^2).
    """
    return cfg.effective_snr / (x**2 + y**2 + cfg.height**2)
