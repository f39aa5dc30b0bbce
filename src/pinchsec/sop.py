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
    """The outage integral's error estimate exceeds the fixed bound 1e-8.

    Raised by :func:`sop_exact` and :func:`sop_asymptotic`; carries the
    best available estimate and its error estimate.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


# Gauss-Legendre rules of orders 64 and 128 on [0, 1], composed with the
# smoothstep u -> 3u^2 - 2u^3. Its zero slope at both ends smooths the
# (t - b)^(3/2) kinks of the offset CDF at the panel edges; the gap
# between the two orders is the error estimate. The outage integral
# raises above _ERROR_BOUND; over D 0.1-1000 m, h/D 1e-5 to 10, -60 to
# 120 dBm and rates 0-30 its estimate stays below 1.3e-10.
_BASE_ORDER = 64
_ERROR_BOUND = 1e-8

# The nodes are frozen from scipy.special.roots_legendre, so that no
# evaluator loads scipy; tests/test_sop.py rebuilds them from it and
# requires equal arrays. Both rules are antisymmetric bit for bit, so
# each order keeps only its order/2 negative nodes (ascending), then as
# many weights, as round-trip decimal literals.
_HALF_RULES = {
    64: """
        -0.9993050417357721 -0.9963401167719552 -0.9910133714767442 -0.983336253884626
        -0.973326827789911 -0.9610087996520538 -0.9464113748584028 -0.9295691721319396
        -0.9105221370785028 -0.889315445995114 -0.8659993981540928 -0.8406292962525803
        -0.8132653151227975 -0.7839723589433414 -0.7528199072605319 -0.7198818501716109
        -0.6852363130542332 -0.6489654712546573 -0.6111553551723933 -0.5718956462026339
        -0.5312794640198946 -0.489403145707053 -0.44636601725346414 -0.4022701579639916
        -0.3572201583376682 -0.3113228719902109 -0.2646871622087674 -0.21742364374000703
        -0.16964442042399283 -0.12146281929612057 -0.07299312178779904 -0.024350292663424374
        0.0017832807216983117 0.00414703326056217 0.006504457968979944 0.0088467598263635
        0.011168139460130634 0.013463047896718951 0.01572603047602452 0.017951715775696795
        0.020134823153530858 0.022270173808383264 0.024352702568710975 0.026377469715054197
        0.028339672614259487 0.03023465707240202 0.03205792835485138 0.03380516183714145
        0.03547221325688267 0.03705512854024002 0.038550153178615335 0.03995374113272041
        0.041262563242623396 0.04247351512365328 0.04358372452932331 0.04459055816375637
        0.04549162792741793 0.046284796581314465 0.046968182816209854 0.047540165714830315
        0.04799938859645825 0.048344762234802906 0.04857546744150339 0.04869095700913963
    """,
    128: """
        -0.9998248879471319 -0.9990774599773758 -0.9977332486255139 -0.9957927585349813
        -0.9932571129002129 -0.9901278184917344 -0.9864067427245862 -0.9820961084357185
        -0.9771984914639074 -0.9717168187471366 -0.9656543664319652 -0.9590147578536999
        -0.9518019613412644 -0.9440202878302202 -0.9356743882779164 -0.9267692508789478
        -0.9173101980809606 -0.9073028834017569 -0.8967532880491582 -0.8856677173453973
        -0.8740527969580318 -0.8619154689395485 -0.8492629875779689 -0.8361029150609068
        -0.8224431169556439 -0.8082917575079136 -0.7936572947621934 -0.7785484755064118
        -0.7629743300440948 -0.746944166797062 -0.7304675667419088 -0.7135543776835874
        -0.6962147083695144 -0.6784589224477192 -0.6602976322726459 -0.6417416925623074
        -0.6228021939105849 -0.6034904561585486 -0.5838180216287631 -0.5637966482266181
        -0.5434383024128102 -0.5227551520511755 -0.5017595591361445 -0.480464072404172
        -0.45888141983355213 -0.4370245010371041 -0.414906379552275 -0.3925402750332674
        -0.3699395553498591 -0.34711772859763546 -0.3240884350244133 -0.30086543887767725
        -0.2774626201779044 -0.2538939664226943 -0.23017356422666002 -0.20631559090207924
        -0.18233430598533712 -0.15824404271422493 -0.13405919946118777 -0.10979423112764372
        -0.08546364050451549 -0.061081969604139495 -0.0366637909687335 -0.012223698960615793
        0.0004493809603166402 0.0010458126793390444 0.0016425030186704719 0.002238288430960837
        0.0028327514714570423 0.0034255260409127176 0.004016254983737187 0.0046045842567034485
        0.005190161832676412 0.005772637542865938 0.006351663161707539 0.006926892566897848
        0.00749798192563405 0.008064589890485903 0.008626377798615605 0.009183009871660175
        0.00973415341500651 0.010279479015831604 0.010818660739502666 0.011351376324080047
        0.011877307372739803 0.01239613954395095 0.012907562739266722 0.013411271288615821
        0.013906964132951576 0.014394345004167027 0.014873122602146788 0.015343010768865191
        0.01580372865939887 0.01625500090978482 0.0166965578015886 0.01712813542311115
        0.017549475827116984 0.017960327185008552 0.018360443937331047 0.018749586940544516
        0.01912752360995046 0.01949402805870621 0.01984888123283039 0.020191871042129512
        0.020522792486959793 0.020841447780750887 0.02114764646822099 0.021441205539207985
        0.02172194953805169 0.02198971066846008 0.022244328893799254 0.02248565203274455
        0.02271353585023585 0.02292784414368636 0.02312844882438658 0.023315229994062176
        0.023488076016535388 0.023646883584447144 0.023791557781002882 0.023922012136702867
        0.02403816868102358 0.024139957989018742 0.024227319222814653 0.02430020016797128
        0.02435855726469005 0.024402355633849085 0.024431569097849506 0.02444618019626196
    """,
}


def _smoothstep_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    hx, hw = np.array([float(v) for v in _HALF_RULES[order].split()]).reshape(2, -1)
    x = np.concatenate((hx, -hx[::-1]))
    w = np.concatenate((hw, hw[::-1]))
    u = 0.5 * (x + 1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u) * w


_NODES, _WEIGHTS = map(
    np.concatenate, zip(*(_smoothstep_rule(n) for n in (_BASE_ORDER, 2 * _BASE_ORDER)))
)


def _panel_quadrature(f, edges):
    """Integral of ``f`` over each row of panel ``edges``, shape (..., k+1).

    The edges should include every kink of ``f``, which is called once on
    all order-64 and order-128 nodes. Returns the order-128 integrals,
    their distances to the order-64 ones, and the number of evaluations.
    """
    edges = np.asarray(edges, dtype=np.float64)
    widths = edges[..., 1:] - edges[..., :-1]
    x = edges[..., :-1, None] + widths[..., None] * _NODES
    parts = (f(x) * widths[..., None] * _WEIGHTS).sum(axis=-2)
    coarse = parts[..., :_BASE_ORDER].sum(axis=-1)
    fine = parts[..., _BASE_ORDER:].sum(axis=-1)
    return fine, np.abs(fine - coarse), x.size


def _outage_integral(cfg: SystemConfig, snr: float) -> tuple[float, int]:
    """Outage probability averaged over the receiver's cross-track offset.

    Given the offset y, with a = y^2 + h^2, the outage is the offset CDF
    at t(y) = (C*y^2 + (C-1)*h^2*(1 + a/snr)) / (1 - (C-1)*a/snr), which
    is C*a / (1 - (C-1)*a/snr) - h^2 without subtracting h^2 from a
    number near it, so t = y^2 exactly at C = 1 however far h exceeds y;
    ``snr = math.inf`` gives the high-power limit t = C*y^2 + (C-1)*h^2.
    t rises with y, so past the y where it reaches 5*D^2/4 the integrand
    is exactly 1 and that tail is added in closed form. The rest is split
    where t crosses D^2/4 and D^2 and integrated by
    :func:`_panel_quadrature`.

    Returns the mean over y in [0, D/2] by the order-128 rule and the
    number of CDF evaluations. Raises :class:`AccuracyError` when its
    distance to the order-64 value exceeds ``_ERROR_BOUND``.
    """
    h2 = cfg.height**2
    c = cfg.rate_threshold
    half = cfg.half_side
    k = (c - 1.0) * h2

    # offsets where t(y) = T, from y^2 = (T - k*(1 + v)) / (C + (C-1)*v)
    # with v = (T + h^2)/snr, in Python floats: a value that is not
    # positive, or the nan of inf/inf once (C-1)*v and k*(1 + v) overflow,
    # puts the crossing at 0
    crossings = []
    for w in dist.offset_sq_knots(cfg)[1:]:
        v = (w + h2) / snr
        y2 = (w - k * (1.0 + v)) / (c + (c - 1.0) * v)
        crossings.append(min(math.sqrt(y2), half) if y2 > 0.0 else 0.0)

    def outage(y: np.ndarray) -> np.ndarray:
        y2 = y * y
        v = (y2 + h2) / snr
        den = 1.0 - (c - 1.0) * v
        # den > 0 before the last crossing up to rounding; t is infinite past its pole
        t = np.divide(c * y2 + k * (1.0 + v), den, out=np.full_like(v, np.inf), where=den > 0)
        return dist._cdf_offset_sq(t, cfg.region_side)

    fine, error, evaluations = _panel_quadrature(outage, sorted({0.0, *crossings}))
    value = (float(fine) + (half - crossings[-1])) / half
    error = float(error) / half
    if error > _ERROR_BOUND:
        raise AccuracyError(
            f"outage integral did not converge to {_ERROR_BOUND:g} (error estimate {error:g})",
            estimate=value,
            error_estimate=error,
        )
    return value, evaluations


def _clamped(raw: float, method: Method, order_or_trials: int) -> SopEstimate:
    """``raw`` clamped to [0, 1], kept as ``raw_value`` where that changed it."""
    value = min(max(raw, 0.0), 1.0)
    return SopEstimate(value, method, order_or_trials, raw_value=raw if value != raw else None)


def sop_exact(cfg: SystemConfig) -> SopEstimate:
    """SOP as the outage integral over the receiver's cross-track offset.

    Fixed Gauss-Legendre panels (see :func:`_outage_integral`, which
    raises :class:`AccuracyError` when the error estimate exceeds 1e-8).
    When the outage is certain already at y = 0 the result is exactly 1
    with no evaluations.
    """
    value, evaluations = _outage_integral(cfg, cfg.effective_snr)
    return _clamped(value, Method.EXACT, evaluations)


@functools.lru_cache(maxsize=8)
def _chebyshev_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind nodes cos((2n-1)*pi/(2N)), n = 1..N, and weights sqrt(1 - node^2)."""
    n = np.arange(1, order + 1)
    nodes = np.cos((2.0 * n - 1.0) * math.pi / (2.0 * order))
    weights = np.sqrt(np.maximum(1.0 - nodes**2, 0.0))
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _checked_order(order, name: str = "order") -> int:
    """``order`` as an int >= 1; a float or a bool is a TypeError."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"{name} must be >= 1, got {order}")
    return int(order)


def _chebyshev_batch(cfgs, order: int, stacklevel: int) -> list[SopEstimate]:
    """The rule at each of ``cfgs``; a floor warning points ``stacklevel`` frames up."""
    order = _checked_order(order)
    nodes, weights = _chebyshev_rule(order)
    rows = [(cfg.rate_threshold, *dist._scales(cfg)) for cfg in cfgs]
    if not rows:
        return []
    # (B, 1) columns; one configuration keeps its floats, which broadcast alike
    c, *scales = rows[0] if len(rows) == 1 else np.array(rows).T[..., None]
    p = dist._Scales(*scales)
    halfwidth = 0.5 * (p.eve_hi - p.eve_lo)
    t = halfwidth * nodes + 0.5 * (p.eve_hi + p.eve_lo)
    # from rate ~1011 on C*t overflows to inf, where the legitimate CDF is 1
    with np.errstate(over="ignore"):
        bob_snr = c * t + (c - 1.0)
    terms = weights * dist._pdf_snr_eve(t, p) * dist._cdf_snr_bob(bob_snr, p)
    # each row left to right in node order: np.sum adds pairwise and rounds differently
    raws = (math.pi / order) * halfwidth * np.cumsum(terms, axis=-1)[..., -1:]
    estimates = []
    for raw in raws.ravel().tolist():
        if LOWER_BOUND_PAS - raw > 1e-3:
            warnings.warn(
                "sop_chebyshev fell below the provable floor (2*pi-1)/24, so its "
                "quadrature error is at least that gap; compare with sop_exact",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
        estimates.append(_clamped(raw, Method.CHEBYSHEV, order))
    return estimates


def sop_chebyshev_batch(cfgs, order: int = 100) -> list[SopEstimate]:
    """:func:`sop_chebyshev` at each configuration of ``cfgs``, in one array call.

    The scalars of each configuration are computed in Python floats as
    for one, so every estimate equals that of :func:`sop_chebyshev` bit
    for bit; each estimate below the floor warns once.
    """
    return _chebyshev_batch(cfgs, order, stacklevel=3)


def sop_chebyshev(cfg: SystemConfig, order: int = 100) -> SopEstimate:
    """SOP by the N-point Gauss-Chebyshev quadrature closed form.

    Affine map of the outage integral (the eavesdropper-SNR density
    against the legitimate-SNR CDF at C*t + C - 1) onto [-1, 1] followed
    by the first-kind rule with nodes cos((2n-1)*pi/(2N)), n = 1..N,
    weighted by sqrt(1 - node^2). It is :func:`sop_chebyshev_batch` for
    one configuration; a sweep makes one batched call for all its
    points. The raw sum can fall slightly outside [0, 1] at tiny N; the
    returned value is clamped, with the raw sum kept in ``raw_value``.
    No true SOP falls under the pinching floor ``LOWER_BOUND_PAS``, so a
    raw sum more than the 1e-3 acceptance tolerance below it emits a
    ``RuntimeWarning``: that happens at extreme D/h, while the slight
    dips near rate 0 stay silent.
    """
    return _chebyshev_batch((cfg,), order, stacklevel=3)[0]


def sop_asymptotic(cfg: SystemConfig) -> SopEstimate:
    """High-power limit of the SOP; independent of transmit power.

    The outage integral of :func:`sop_exact`, under the same accuracy
    bound, at infinite SNR, where the offset CDF is taken at
    C*(y^2 + h^2) - h^2. Depends only on D, h and the target rate.
    """
    value, evaluations = _outage_integral(cfg, math.inf)
    return _clamped(value, Method.ASYMPTOTIC, evaluations)


def sop_lower_bound_pas() -> SopEstimate:
    """Parameter-free SOP floor of the pinching-antenna system, (2*pi-1)/24."""
    return SopEstimate(LOWER_BOUND_PAS, Method.LOWER_PAS, 0)


def sop_lower_bound_fpa() -> SopEstimate:
    """Parameter-free SOP floor of the fixed-position baseline, exactly 1/2."""
    return SopEstimate(LOWER_BOUND_FPA, Method.LOWER_FPA, 0)
