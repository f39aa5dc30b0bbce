"""Secrecy outage probability evaluators.

The outage event is log2(1+snr_bob) - log2(1+snr_eve) <= target_rate,
equivalently (1 + snr_bob) <= C * (1 + snr_eve) with C = 2^target_rate.
Given the legitimate receiver's cross-track offset y, uniform on
[0, D/2], the outage is the closed-form offset CDF at one threshold, so
the exact SOP is a one-dimensional integral over y on fixed panels
under a nested Clenshaw-Curtis rule. The high-power asymptote (a
constant in transmit power) is the same integral at infinite SNR. Also
provided are the paper's Chebyshev rule over the eavesdropper-SNR
density and the two parameter-free lower bounds. Configs in, numbers
down: no kernel takes a ``SystemConfig``, so the integral runs at h = 0.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import distributions as dist
from .system import SystemConfig

__all__ = [
    "Method",
    "SopEstimate",
    "AccuracyError",
    "sop_exact",
    "sop_chebyshev",
    "sop_chebyshev_batch",
    "sop_asymptotic",
    "sop_lower_bound_pas",
    "sop_lower_bound_fpa",
    "LOWER_BOUND_PAS",
    "LOWER_BOUND_FPA",
    "CHEBYSHEV_ORDER",
    "ACCEPTANCE_TOLERANCE",
]

# Exact parameter-free floors, computed from pi rather than transcribed.
LOWER_BOUND_PAS = (2.0 * math.pi - 1.0) / 24.0
LOWER_BOUND_FPA = 0.5
CHEBYSHEV_ORDER = 100  # the paper's Gauss-Chebyshev order N
ACCEPTANCE_TOLERANCE = 1e-3  # of Chebyshev against exact, and of its floor warning


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
    """The outage integral's error estimate exceeds the fixed bound ``_ERROR_BOUND``.

    Raised by :func:`sop_exact` and :func:`sop_asymptotic`; carries the
    best available estimate and its error estimate.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


# Nested Clenshaw-Curtis rules of 128 and 64 intervals (Trefethen, SIAM
# Review 50(1), 2008) composed with the smoothstep u -> 3u^2 - 2u^3, whose
# zero slope at both ends smooths the (t - b)^(3/2) kinks of the offset
# CDF at the panel edges and gives the end nodes weight 0. The gap between
# the two rules is the error estimate, above which the outage integral
# raises. At 9e4 random points, D 0.1-1000 m and h/D 1e-5 to 10 (both
# log-uniform), -60 to 120 dBm and rates 0-30, it read at most 1.75e-10.
_ERROR_BOUND = 1e-8


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes -cos(j*pi/n), j = 0..n, of the n-interval rule on [-1, 1], and weights.

    The weights are the closed-form cosine sum (c_j/n)*(1 - sum_k b_k *
    cos(2*k*j*pi/n)/(4k^2 - 1)), k = 1..n/2, with c_j = 2 but 1 at the
    ends and b_k = 2 but 1 at k = n/2; the cosines are libm's.
    """
    cos = np.array([math.cos(math.pi * m / n) for m in range(2 * n)])
    j = np.arange(n + 1)[:, None]
    k = np.arange(1, n // 2 + 1)
    b = np.where(k < n // 2, 2.0, 1.0) / (4.0 * k * k - 1.0)
    w = (1.0 - (b * cos[2 * k * j % (2 * n)]).sum(axis=-1)) / n
    w[1:-1] *= 2.0
    return -cos[: n + 1], w


def _smoothstep_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_clenshaw_curtis` mapped to [0, 1] by the smoothstep, zero-weight ends dropped."""
    x, w = _clenshaw_curtis(n)
    u = 0.5 * (x[1:-1] + 1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u) * w[1:-1]


_NODES, _WEIGHTS = _smoothstep_rule(128)
_COARSE_WEIGHTS = _smoothstep_rule(64)[1]  # at _NODES[1::2]


def _panel_quadrature(f, edges):
    """Integral of ``f`` over each row of panel ``edges``, shape (..., k+1).

    The edges should include every kink of ``f``, which is called once,
    on a (..., k, 127) array of nodes, and returns a new float array of
    that shape, which is scaled in place. Returns the fine and the
    coarse integrals, and the number of evaluations.
    No sum goes through BLAS, whose order of addition depends on the CPU.
    """
    edges = np.asarray(edges, dtype=np.float64)
    widths = (edges[..., 1:] - edges[..., :-1])[..., None]
    x = edges[..., :-1, None] + widths * _NODES
    # each node's sum over the panels, then each rule's sum over its nodes
    fx = f(x)
    fx *= widths
    parts = np.add.reduce(fx, axis=-2)
    fine = np.add.reduce(parts * _WEIGHTS, axis=-1)
    coarse = np.add.reduce(parts[..., 1::2] * _COARSE_WEIGHTS, axis=-1)
    return fine, coarse, x.size


def _outage_integral(d: float, h2: float, c: float, snr: float) -> tuple[float, int]:
    """Outage probability averaged over the receiver's cross-track offset.

    Given the offset y, with a = y^2 + h^2, the outage is the offset CDF
    at t(y) = (C*y^2 + (C-1)*h^2*(1 + a/snr)) / (1 - (C-1)*a/snr), which
    is C*a / (1 - (C-1)*a/snr) - h^2 without subtracting h^2 from a
    number near it, so t = y^2 exactly at C = 1 however far h exceeds y;
    ``snr = math.inf`` gives the high-power limit t = C*y^2 + (C-1)*h^2.
    t rises with y, so past the y where it reaches 5*D^2/4 the integrand
    is exactly 1 and that tail is added in closed form (all of [0, D/2]
    at certain outage, with no evaluation). The rest is split where t
    crosses D^2/4 and D^2, so each panel lies in one branch of the offset
    CDF, and integrated by :func:`_panel_quadrature`.

    Takes floats D, h^2 >= 0 (0 too, which no configuration admits), C >= 1
    and snr. Returns the mean over y in [0, D/2] by the fine rule and the
    number of CDF evaluations, 127 per panel. Raises :class:`AccuracyError`
    when its distance to the coarse rule's value exceeds ``_ERROR_BOUND``.
    """
    half = d / 2.0
    k = (c - 1.0) * h2

    # offsets where t(y) = T, from y^2 = (T - k*(1 + v)) / (C + (C-1)*v)
    # with v = (T + h^2)/snr, in Python floats: a value that is not
    # positive, or the nan of inf/inf once (C-1)*v and k*(1 + v) overflow,
    # puts the crossing at 0
    crossings = []
    for w in dist._offset_knots(d)[1:]:
        v = (w + h2) / snr
        y2 = (w - k * (1.0 + v)) / (c + (c - 1.0) * v)
        crossings.append(min(math.sqrt(y2), half) if y2 > 0.0 else 0.0)

    edges = sorted({0.0, *crossings})
    if len(edges) == 1:  # certain outage
        return 1.0, 0

    def outage(y: np.ndarray) -> np.ndarray:
        t = y * y
        v = t + h2
        v /= snr
        den = 1.0 - (c - 1.0) * v
        t *= c
        t += k * (1.0 + v)
        # den > 0 before the last crossing up to rounding; t is infinite past
        # its pole. den never rises along the panels' nodes, so the last is least.
        if den[-1, -1] > 0.0:
            t /= den
        else:
            t = np.divide(t, den, out=np.full_like(t, np.inf), where=den > 0.0)
        return dist._cdf_offset_sq_rows(t, d)

    fine, coarse, evaluations = _panel_quadrature(outage, edges)
    fine = float(fine)
    value = (fine + (half - crossings[-1])) / half
    error = abs(fine - float(coarse)) / half
    if error > _ERROR_BOUND:
        raise AccuracyError(
            f"outage integral did not converge to {_ERROR_BOUND:g} (error estimate {error:g})",
            estimate=value,
            error_estimate=error,
        )
    return value, evaluations


def _clamped(raw: float, method: Method, order_or_trials: int) -> SopEstimate:
    """``raw`` clamped to [0, 1], kept as ``raw_value`` where that changed it."""
    if 0.0 <= raw <= 1.0:
        return SopEstimate(raw, method, order_or_trials)
    return SopEstimate(min(max(raw, 0.0), 1.0), method, order_or_trials, raw_value=raw)


def sop_exact(cfg: SystemConfig) -> SopEstimate:
    """SOP as the outage integral over the receiver's cross-track offset.

    Fixed panels under the nested 128/64-interval Clenshaw-Curtis rule,
    127 offset-CDF evaluations each (see :func:`_outage_integral`, which
    raises :class:`AccuracyError` when the error estimate exceeds
    ``_ERROR_BOUND``). When the outage is certain already at y = 0 the
    result is exactly 1 with no evaluations and no numpy call.
    """
    value, evaluations = _outage_integral(
        cfg.region_side, cfg.height**2, cfg.rate_threshold, cfg.effective_snr
    )
    return _clamped(value, Method.EXACT, evaluations)


@functools.lru_cache(maxsize=8)
def _chebyshev_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind nodes cos((2n-1)*pi/(2N)), n = 1..N, and weights sqrt(1 - node^2)."""
    n = np.arange(1, order + 1)
    nodes = np.cos((2.0 * n - 1.0) * math.pi / (2.0 * order))
    weights = np.sqrt(np.maximum(1.0 - nodes**2, 0.0))
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


_BLOCK_NODES = 1 << 16  # Chebyshev nodes per array call: 512 KiB per float array


def _checked_order(order, name: str = "order") -> int:
    """``order`` as an int >= 1; a float or a bool is a TypeError."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"{name} must be >= 1, got {order}")
    return int(order)


def _chebyshev_sums(rows, order: int) -> list[float]:
    """The rule's raw sum at each (C, *scales) row, in one array call."""
    nodes, weights = _chebyshev_rule(order)
    c, *scales = np.array(rows).T[..., None]  # (B, 1) columns
    p = dist._Scales(*scales)
    halfwidth = 0.5 * (p.eve_hi - p.eve_lo)
    t = halfwidth * nodes + 0.5 * (p.eve_hi + p.eve_lo)
    # from rate ~1011 on C*t overflows to inf, where the legitimate CDF is 1
    with np.errstate(over="ignore"):
        bob_snr = c * t + (c - 1.0)
    terms = weights * dist._pdf_snr_eve(t, p) * dist._cdf_snr_bob(bob_snr, p)
    # each row left to right in node order: np.sum adds pairwise and rounds differently
    raws = (math.pi / order) * halfwidth * np.cumsum(terms, axis=-1)[..., -1:]
    return np.ravel(raws).tolist()


def _chebyshev_batch(cfgs, order: int) -> list[SopEstimate]:
    """The rule at each of ``cfgs``; a floor warning names the public function's caller."""
    order = _checked_order(order)
    rows = [(cfg.rate_threshold, *dist._scales(cfg)) for cfg in cfgs]
    step = max(1, _BLOCK_NODES // order)
    raws = []
    for lo in range(0, len(rows), step):
        raws.extend(_chebyshev_sums(rows[lo : lo + step], order))
    estimates = []
    for raw in raws:
        if LOWER_BOUND_PAS - raw > ACCEPTANCE_TOLERANCE:
            warnings.warn(
                "sop_chebyshev fell below the provable floor (2*pi-1)/24, so its "
                "quadrature error is at least that gap; compare with sop_exact",
                RuntimeWarning,
                stacklevel=3,
            )
        estimates.append(_clamped(raw, Method.CHEBYSHEV, order))
    return estimates


def sop_chebyshev_batch(cfgs, order: int = CHEBYSHEV_ORDER) -> list[SopEstimate]:
    """:func:`sop_chebyshev` at each configuration of ``cfgs``, a block at a time.

    One array call evaluates as many configurations as fit in 2^16 nodes
    (655 at N = 100), or one where N is larger, so the arrays stay
    bounded however many configurations there are. The scalars of each
    configuration are computed in Python floats as for one, so every
    estimate equals that of :func:`sop_chebyshev` bit for bit; each
    estimate below the floor warns once.
    """
    return _chebyshev_batch(cfgs, order)


def sop_chebyshev(cfg: SystemConfig, order: int = CHEBYSHEV_ORDER) -> SopEstimate:
    """SOP by the N-point Gauss-Chebyshev quadrature closed form.

    Affine map of the outage integral (the eavesdropper-SNR density
    against the legitimate-SNR CDF at C*t + C - 1) onto [-1, 1] followed
    by the first-kind rule with nodes cos((2n-1)*pi/(2N)), n = 1..N,
    weighted by sqrt(1 - node^2). It is :func:`sop_chebyshev_batch` for
    one configuration; a sweep makes one batched call for all its
    points. The raw sum can fall slightly outside [0, 1] at tiny N; the
    returned value is clamped, with the raw sum kept in ``raw_value``.
    No true SOP falls under the pinching floor ``LOWER_BOUND_PAS``, so a
    raw sum more than ``ACCEPTANCE_TOLERANCE`` below it emits a
    ``RuntimeWarning``: that happens at extreme D/h, while the slight
    dips near rate 0 stay silent.
    """
    return _chebyshev_batch((cfg,), order)[0]


def sop_asymptotic(cfg: SystemConfig) -> SopEstimate:
    """High-power limit of the SOP; independent of transmit power.

    The outage integral of :func:`sop_exact`, under the same accuracy
    bound, at infinite SNR, where the offset CDF is taken at
    C*(y^2 + h^2) - h^2. Depends only on D, h and the target rate.
    """
    value, evaluations = _outage_integral(
        cfg.region_side, cfg.height**2, cfg.rate_threshold, math.inf
    )
    return _clamped(value, Method.ASYMPTOTIC, evaluations)


def sop_lower_bound_pas() -> SopEstimate:
    """Parameter-free SOP floor of the pinching-antenna system, (2*pi-1)/24."""
    return SopEstimate(LOWER_BOUND_PAS, Method.LOWER_PAS, 0)


def sop_lower_bound_fpa() -> SopEstimate:
    """Parameter-free SOP floor of the fixed-position baseline, exactly 1/2."""
    return SopEstimate(LOWER_BOUND_FPA, Method.LOWER_FPA, 0)
