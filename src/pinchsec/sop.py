"""Secrecy outage probability evaluators.

The outage event is log2(1+snr_bob) - log2(1+snr_eve) <= target_rate,
equivalently (1 + snr_bob) <= C * (1 + snr_eve) with C = 2^target_rate.
Four analytic routes are provided: the exact integral of the
eavesdropper-SNR density against the legitimate-SNR CDF, its
Chebyshev-quadrature approximation, the high-power asymptote (a
constant in transmit power), and the two parameter-free lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from . import distributions as dist
from .system import SystemConfig

__all__ = [
    "Method",
    "SopEstimate",
    "AccuracyError",
    "sop_exact",
    "sop_chebyshev",
    "sop_asymptotic",
    "sop_lower_bound_pas",
    "sop_lower_bound_fpa",
    "LOWER_BOUND_PAS",
    "LOWER_BOUND_FPA",
]

# Exact parameter-free floors, computed from pi rather than transcribed.
LOWER_BOUND_PAS = (2.0 * math.pi - 1.0) / 24.0
LOWER_BOUND_FPA = 0.5


class Method(str, Enum):
    """Provenance tag of an SOP estimate.

    ``MC`` and ``MC_FPA`` are both Monte Carlo; the suffix names the
    system being simulated (pinching vs fixed-position antenna).
    """

    EXACT = "exact"
    CHEBYSHEV = "chebyshev"
    ASYMPTOTIC = "asymptotic"
    LOWER_PAS = "lower-pas"
    LOWER_FPA = "lower-fpa"
    MC = "mc"
    MC_FPA = "mc-fpa"


@dataclass(frozen=True)
class SopEstimate:
    """An SOP value plus provenance.

    ``order_or_trials`` is the Chebyshev order, the adaptive-quadrature
    evaluation count, or the Monte Carlo trial count (0 for constants
    and for results short-circuited without quadrature). ``stderr`` is
    present only for Monte Carlo estimates. ``raw_value`` keeps the
    unclamped quadrature sum for diagnostics when clamping to [0, 1]
    changed the value.
    """

    value: float
    method: Method
    order_or_trials: int
    stderr: float | None = None
    raw_value: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"SOP value must be in [0, 1], got {self.value}")
        if self.order_or_trials < 0:
            raise ValueError("order_or_trials must be nonnegative")
        if self.stderr is not None and self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


class AccuracyError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error estimate.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def _outage_threshold_arg(t: float, cfg: SystemConfig) -> float:
    """Argument C*t + C - 1 fed to the legitimate-SNR CDF."""
    c = cfg.rate_threshold
    return c * t + c - 1.0


def sop_exact(cfg: SystemConfig, tol: float = 1e-8) -> SopEstimate:
    """SOP by adaptive quadrature of the outage integral.

    Integrates pdf_snr_eve(t) * cdf_snr_bob(C*t + C - 1) over the
    eavesdropper-SNR support. The density's interior breakpoints and
    the points where the CDF argument crosses its branch boundaries are
    registered as panel boundaries; the result carries absolute error
    <= tol or an :class:`AccuracyError` is raised.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    lo, hi = dist.snr_eve_support(cfg)
    bob_lo, bob_hi = dist.snr_bob_support(cfg)
    c = cfg.rate_threshold

    # CDF argument saturated over the whole range: the integral is the
    # density's total mass, exactly 1.
    if _outage_threshold_arg(lo, cfg) >= bob_hi:
        return SopEstimate(1.0, Method.EXACT, 0)

    points = {b for b in dist.snr_eve_breakpoints(cfg) if lo < b < hi}
    for boundary in (bob_lo, bob_hi):
        crossing = (boundary - c + 1.0) / c
        if lo < crossing < hi:
            points.add(crossing)

    def integrand(t: float) -> float:
        density = dist.pdf_snr_eve(t, cfg)
        if density == 0.0:
            return 0.0
        return density * dist.cdf_snr_bob(_outage_threshold_arg(t, cfg), cfg)

    out = integrate.quad(
        integrand,
        lo,
        hi,
        points=sorted(points) or None,
        epsabs=tol,
        epsrel=0.0,
        limit=200,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > tol:
        raise AccuracyError(
            f"outage integral did not converge to {tol:g} (error estimate {abserr:g})",
            estimate=value,
            error_estimate=abserr,
        )
    clamped = min(max(value, 0.0), 1.0)
    return SopEstimate(
        clamped,
        Method.EXACT,
        int(out[2]["neval"]),
        raw_value=value if clamped != value else None,
    )


def sop_chebyshev(cfg: SystemConfig, order: int = 100) -> SopEstimate:
    """SOP by the N-point Gauss-Chebyshev quadrature closed form.

    Affine map of the outage integral onto [-1, 1] followed by the
    first-kind rule with nodes cos((2n-1)*pi/(2N)), n = 1..N, weighted
    by sqrt(1 - node^2). The raw sum can fall slightly outside [0, 1]
    at tiny N; the returned value is clamped, with the raw sum kept in
    ``raw_value``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = cfg.effective_snr
    h2 = cfg.height**2
    d2 = cfg.region_side**2
    halfwidth = s / (2.0 * h2) - s / (2.0 * h2 + 2.5 * d2)
    midpoint = s / (2.0 * h2) + s / (2.0 * h2 + 2.5 * d2)

    n = np.arange(1, order + 1)
    nodes = np.cos((2.0 * n - 1.0) * math.pi / (2.0 * order))
    weights = np.sqrt(np.maximum(1.0 - nodes**2, 0.0))

    total = 0.0
    for node, weight in zip(nodes, weights):
        if weight == 0.0:
            continue
        t = halfwidth * node + midpoint
        density = dist.pdf_snr_eve(t, cfg)
        if density == 0.0:
            continue
        total += weight * density * cdf_bob_at(t, cfg)
    raw = float((math.pi / order) * halfwidth * total)
    value = min(max(raw, 0.0), 1.0)
    return SopEstimate(
        value,
        Method.CHEBYSHEV,
        order,
        raw_value=raw if value != raw else None,
    )


def cdf_bob_at(t: float, cfg: SystemConfig) -> float:
    """Legitimate-SNR CDF evaluated at the outage threshold for SNR t."""
    return dist.cdf_snr_bob(_outage_threshold_arg(t, cfg), cfg)


def sop_asymptotic(cfg: SystemConfig) -> SopEstimate:
    """High-power limit of the SOP; independent of transmit power.

    (2/D) * integral over t in [0, D/2] of
    cdf_offset_sq(C*(t^2 + h^2) - h^2), by adaptive quadrature at
    absolute tolerance 1e-8. Depends only on the region side, the
    height, and the target rate.
    """
    d = cfg.region_side
    h2 = cfg.height**2
    c = cfg.rate_threshold
    half = d / 2.0

    # kinks of the offset CDF mapped back to the integration variable
    points = set()
    for b in (*dist.offset_sq_breakpoints(cfg), dist.offset_sq_support(cfg)[1]):
        t2 = (b + h2) / c - h2
        if t2 > 0.0:
            t = math.sqrt(t2)
            if 0.0 < t < half:
                points.add(t)

    def integrand(t: float) -> float:
        return float(dist.cdf_offset_sq(c * (t * t + h2) - h2, cfg))

    out = integrate.quad(
        integrand,
        0.0,
        half,
        points=sorted(points) or None,
        epsabs=1e-8,
        epsrel=0.0,
        limit=200,
        full_output=1,
    )
    value = min(max((2.0 / d) * out[0], 0.0), 1.0)
    return SopEstimate(value, Method.ASYMPTOTIC, int(out[2]["neval"]))


def sop_lower_bound_pas() -> SopEstimate:
    """Parameter-free SOP floor of the pinching-antenna system, (2*pi-1)/24."""
    return SopEstimate(LOWER_BOUND_PAS, Method.LOWER_PAS, 0)


def sop_lower_bound_fpa() -> SopEstimate:
    """Parameter-free SOP floor of the fixed-position baseline, exactly 1/2."""
    return SopEstimate(LOWER_BOUND_FPA, Method.LOWER_FPA, 0)
