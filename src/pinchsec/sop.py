"""Secrecy outage probability evaluators.

The outage event is log2(1+snr_bob) - log2(1+snr_eve) <= target_rate,
equivalently (1 + snr_bob) <= C * (1 + snr_eve) with C = 2^target_rate.
Given the legitimate receiver's cross-track offset y, uniform on
[0, D/2], the outage is the closed-form offset CDF at one threshold, so
the exact SOP is a one-dimensional integral over y on fixed
Gauss-Legendre panels. The high-power asymptote (a constant in transmit
power) is the same integral at infinite SNR. Also provided are the
paper's Chebyshev rule over the eavesdropper-SNR density and the two
parameter-free lower bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import roots_legendre

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

    ``order_or_trials`` is the Chebyshev order, the rule evaluation
    count, or the Monte Carlo trial count (0 for constants and for
    results short-circuited without quadrature). ``stderr`` is
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
    """The exact integral's error estimate exceeds the requested tolerance.

    Carries the best available estimate and its error estimate.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


# Gauss-Legendre rules of orders 64 and 128 on [0, 1], composed with the
# smoothstep u -> 3u^2 - 2u^3. Its zero slope at both ends smooths the
# (t - b)^(3/2) kinks of the offset CDF at the panel edges; the gap
# between the two orders is the error estimate.
_BASE_ORDER = 64


def _smoothstep_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(order)
    u = 0.5 * (x + 1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u) * w


_NODES, _WEIGHTS = map(
    np.concatenate, zip(*(_smoothstep_rule(n) for n in (_BASE_ORDER, 2 * _BASE_ORDER)))
)


def _outage_integral(cfg: SystemConfig, snr: float) -> tuple[float, float, int]:
    """Outage probability averaged over the receiver's cross-track offset.

    Given the offset y, with a = y^2 + h^2, the outage is the offset CDF
    at t(y) = C*a / (1 - (C-1)*a/snr) - h^2; ``snr = math.inf`` gives the
    high-power limit t = C*a - h^2. t rises with y, so past the y where
    it reaches 5*D^2/4 the integrand is exactly 1 and that tail is added
    in closed form. The rest is split where t crosses D^2/4 and D^2 and
    integrated panel by panel at both rule orders in one array call.

    Returns the mean over y in [0, D/2] by the order-128 rule, its
    distance to the order-64 value, and the number of CDF evaluations.
    """
    d2 = cfg.region_side**2
    h2 = cfg.height**2
    c = cfg.rate_threshold
    half = cfg.half_side

    # offsets where t(y) = T, from a = u / (C + u*(C-1)/snr) with u = T + h^2
    u = np.array([0.25 * d2, d2, 1.25 * d2]) + h2
    a_cross = u / (c + u * (c - 1.0) / snr)
    crossings = np.minimum(np.sqrt(np.maximum(a_cross - h2, 0.0)), half)
    edges = np.unique(np.concatenate(([0.0], crossings)))
    widths = np.diff(edges)

    y = edges[:-1, None] + widths[:, None] * _NODES
    a = y * y + h2
    den = 1.0 - (c - 1.0) * a / snr
    # den > 0 before the last crossing up to rounding; t is infinite past its pole
    t = np.divide(c * a, den, out=np.full_like(a, np.inf), where=den > 0.0) - h2
    parts = (dist.cdf_offset_sq(t, cfg) * widths[:, None] * _WEIGHTS).sum(axis=0)
    coarse = float(parts[:_BASE_ORDER].sum())
    fine = float(parts[_BASE_ORDER:].sum())
    tail = half - float(crossings[-1])
    return (fine + tail) / half, abs(fine - coarse) / half, y.size


def sop_exact(cfg: SystemConfig, tol: float = 1e-8) -> SopEstimate:
    """SOP as the outage integral over the receiver's cross-track offset.

    Fixed Gauss-Legendre panels (see :func:`_outage_integral`); the
    order-doubling error estimate must be <= tol, otherwise an
    :class:`AccuracyError` is raised. When the outage is certain already
    at y = 0 the result is exactly 1 with no evaluations.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    value, error, evaluations = _outage_integral(cfg, cfg.effective_snr)
    if error > tol:
        raise AccuracyError(
            f"outage integral did not converge to {tol:g} (error estimate {error:g})",
            estimate=value,
            error_estimate=error,
        )
    clamped = min(max(value, 0.0), 1.0)
    return SopEstimate(
        clamped,
        Method.EXACT,
        evaluations,
        raw_value=value if clamped != value else None,
    )


def sop_chebyshev(cfg: SystemConfig, order: int = 100) -> SopEstimate:
    """SOP by the N-point Gauss-Chebyshev quadrature closed form.

    Affine map of the outage integral (the eavesdropper-SNR density
    against the legitimate-SNR CDF at C*t + C - 1) onto [-1, 1] followed
    by the first-kind rule with nodes cos((2n-1)*pi/(2N)), n = 1..N,
    weighted by sqrt(1 - node^2). The raw sum can fall slightly outside
    [0, 1] at tiny N; the returned value is clamped, with the raw sum
    kept in ``raw_value``. No true SOP falls under the pinching floor
    ``LOWER_BOUND_PAS``, so a raw sum more than the 1e-3 acceptance
    tolerance below it emits a ``RuntimeWarning``: that happens at
    extreme D/h, while the slight dips near rate 0 stay silent.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = cfg.effective_snr
    c = cfg.rate_threshold
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
        total += weight * density * dist.cdf_snr_bob(c * t + c - 1.0, cfg)
    raw = float((math.pi / order) * halfwidth * total)
    if LOWER_BOUND_PAS - raw > 1e-3:
        warnings.warn(
            "sop_chebyshev fell below the provable floor (2*pi-1)/24, so its "
            "quadrature error is at least that gap; compare with sop_exact",
            RuntimeWarning,
            stacklevel=2,
        )
    value = min(max(raw, 0.0), 1.0)
    return SopEstimate(
        value,
        Method.CHEBYSHEV,
        order,
        raw_value=raw if value != raw else None,
    )


def sop_asymptotic(cfg: SystemConfig) -> SopEstimate:
    """High-power limit of the SOP; independent of transmit power.

    The outage integral of :func:`sop_exact` at infinite SNR, where the
    offset CDF is taken at C*(y^2 + h^2) - h^2. Depends only on the
    region side, the height, and the target rate.
    """
    value, _, evaluations = _outage_integral(cfg, math.inf)
    return SopEstimate(min(max(value, 0.0), 1.0), Method.ASYMPTOTIC, evaluations)


def sop_lower_bound_pas() -> SopEstimate:
    """Parameter-free SOP floor of the pinching-antenna system, (2*pi-1)/24."""
    return SopEstimate(LOWER_BOUND_PAS, Method.LOWER_PAS, 0)


def sop_lower_bound_fpa() -> SopEstimate:
    """Parameter-free SOP floor of the fixed-position baseline, exactly 1/2."""
    return SopEstimate(LOWER_BOUND_FPA, Method.LOWER_FPA, 0)
