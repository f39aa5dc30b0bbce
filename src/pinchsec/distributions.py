"""Closed-form distributions of the random SNRs and offsets.

With both receivers uniform on the D x D region, every distribution here
is a function of D, the height h, and the effective SNR. The central
object is the squared horizontal offset between the active antenna and
the eavesdropper,

    offset_sq = (x1 - x2)^2 + y2^2,

whose density is an arcsin-family piecewise form with interior
breakpoints at D^2/4 and D^2 and support [0, 5*D^2/4]. The
eavesdropper's SNR density follows from it by the monotone change of
variables z = effective_snr / (offset_sq + h^2); both the direct branch
form and the change-of-variables route are implemented and are expected
to agree to roundoff.

Every closed form is one masked numpy kernel: it takes a scalar, and
returns a Python float, or an array of any shape, and returns an array
of that shape. A kernel evaluates each branch only on inputs inside the
branch's domain, masked or clamped into it, so none divides by zero or
takes the root of a negative number.

Branch selection at breakpoints follows the closed forms' printed
inequalities (upper-interval branch owns its closed lower endpoint);
the branches agree at every boundary, so this is a determinism choice,
not a value choice. Densities return 0 outside their support so blind
quadrature over an enclosing interval is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .system import SystemConfig

__all__ = [
    "PiecewiseDensity",
    "cdf_snr_bob",
    "pdf_snr_eve",
    "pdf_snr_eve_via_offset",
    "pdf_offset_sq",
    "cdf_offset_sq",
    "cdf_offset_sq_quadrature",
    "snr_bob_support",
    "snr_eve_support",
    "snr_eve_breakpoints",
    "offset_sq_support",
    "offset_sq_breakpoints",
    "make_snr_bob_cdf",
    "make_snr_eve_pdf",
    "make_offset_sq_pdf",
    "make_offset_sq_cdf",
    "DISTRIBUTION_TAGS",
]


@dataclass(frozen=True)
class PiecewiseDensity:
    """An evaluable PDF or CDF with explicit support and branch boundaries.

    ``breakpoints`` lists the interior branch boundaries only; the
    support endpoints are carried separately. ``evaluate`` takes a
    scalar, returning a float, or an array, returning an array of the
    same shape; it is pure and safe to call concurrently.
    """

    support_lo: float
    support_hi: float
    breakpoints: tuple[float, ...]
    evaluate: Callable[[float | np.ndarray], float | np.ndarray]
    kind: Literal["pdf", "cdf"]


def _elementwise(kernel, x, *args):
    """Apply an array kernel to a scalar, giving a float, or to an array of any shape."""
    arr = np.asarray(x, dtype=np.float64)
    out = kernel(np.atleast_1d(arr), *args)
    return float(out[0]) if arr.ndim == 0 else out


def _positive_snr(z) -> np.ndarray:
    arr = np.asarray(z, dtype=np.float64)
    bad = arr[~(arr > 0.0)]
    if bad.size:
        raise ValueError(f"SNR argument must be > 0, got {bad[0]}")
    return arr


# ---------------------------------------------------------------------------
# SNR of the legitimate receiver


def snr_bob_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support of the legitimate receiver's SNR under the pinching rule."""
    h2 = cfg.height**2
    d = cfg.region_side
    return cfg.effective_snr / (h2 + d**2 / 4.0), cfg.effective_snr / h2


def _cdf_snr_bob(z: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    lo, hi = snr_bob_support(cfg)
    out = np.zeros_like(z)
    out[z >= hi] = 1.0
    inside = (z > lo) & (z < hi)
    radicand = np.maximum(cfg.effective_snr / z[inside] - cfg.height**2, 0.0)
    out[inside] = 1.0 - (2.0 / cfg.region_side) * np.sqrt(radicand)
    return out


def cdf_snr_bob(z, cfg: SystemConfig):
    """CDF of the legitimate receiver's SNR, three-branch closed form.

    The branch boundaries coincide with the support endpoints, so the
    CDF rises from exactly 0 to exactly 1 across the support.
    """
    return _elementwise(_cdf_snr_bob, _positive_snr(z), cfg)


# ---------------------------------------------------------------------------
# Squared offsets between the active antenna and the eavesdropper


def offset_sq_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support [0, 5*D^2/4] of the squared horizontal offset."""
    return 0.0, 1.25 * cfg.region_side**2


def offset_sq_breakpoints(cfg: SystemConfig) -> tuple[float, float]:
    """Interior branch boundaries D^2/4 and D^2 of the offset density."""
    d2 = cfg.region_side**2
    return 0.25 * d2, d2


def _pdf_offset_sq(w: np.ndarray, d: float) -> np.ndarray:
    """Density of (x1-x2)^2 + y2^2 as the convolution of the squared parts.

    The convolution window [A, B] self-clamps: A >= B exactly when w is
    past the support, and every radicand stays nonnegative by
    construction, so no epsilon guards are needed. The w -> 0 limit is
    pi/D^2 (taken by continuity, keeping quadrature over [0, eps] stable).
    """
    d2 = d * d
    out = np.zeros_like(w)
    out[w == 0.0] = math.pi / d2
    a = np.maximum(0.0, w - 0.25 * d2)
    b = np.minimum(w, d2)
    inside = (w > 0.0) & (a < b)
    w, a, b = w[inside], a[inside], b[inside]
    arc = 2.0 * (np.arcsin(np.sqrt(b / w)) - np.arcsin(np.sqrt(a / w)))
    edge = 2.0 * (np.sqrt(w - a) - np.sqrt(w - b))
    out[inside] = arc / d2 - edge / (d2 * d)
    return out


def pdf_offset_sq(w, cfg: SystemConfig):
    """Density of the squared horizontal offset (x1-x2)^2 + y2^2."""
    arr = np.asarray(w, dtype=np.float64)
    bad = arr[~(arr >= 0.0)]
    if bad.size:
        raise ValueError(f"squared offset must be >= 0, got {bad[0]}")
    return _elementwise(_pdf_offset_sq, arr, cfg.region_side)


def _cdf_offset_sq(t: np.ndarray, d: float) -> np.ndarray:
    """Vectorized closed-form CDF of the squared horizontal offset.

    Piecewise antiderivative of the convolution density; the panel
    constants telescope so the value is exactly 1 at 5*D^2/4.
    """
    d2 = d * d
    a = 0.25 * d2
    b = d2
    out = np.zeros_like(t, dtype=np.float64)

    m1 = (t > 0.0) & (t <= a)
    t1 = t[m1]
    out[m1] = math.pi * t1 / d2 - (4.0 / 3.0) * t1**1.5 / (d2 * d)

    m2 = (t > a) & (t < 1.25 * d2)
    t2 = t[m2]
    asin_arg = np.minimum(d / (2.0 * np.sqrt(t2)), 1.0)
    g2 = (2.0 / d2) * (
        t2 * np.arcsin(asin_arg) + 0.5 * d * np.sqrt(np.maximum(t2 - a, 0.0))
    ) - t2 / d2
    # third-panel correction vanishes identically for t <= D^2
    t3 = np.maximum(t2, b)
    acos_arg = np.minimum(d / np.sqrt(t3), 1.0)
    rad = np.maximum(t2 - b, 0.0)
    x3 = (
        -(2.0 / d2) * (t2 * np.arccos(acos_arg) - d * np.sqrt(rad))
        + (4.0 / (3.0 * d2 * d)) * rad**1.5
    )
    out[m2] = g2 + x3 + 1.0 / 12.0

    out[t >= 1.25 * d2] = 1.0
    return out


def cdf_offset_sq(t, cfg: SystemConfig):
    """CDF of the squared horizontal offset, closed form.

    Total on the reals: 0 for t <= 0 and 1 for t >= 5*D^2/4. Validated
    against :func:`cdf_offset_sq_quadrature` to 1e-8.
    """
    return _elementwise(_cdf_offset_sq, t, cfg.region_side)


def _cdf_offset_sq_tanhsinh(t: np.ndarray, d: float) -> np.ndarray:
    from scipy.integrate import tanhsinh

    d2 = d * d
    edges = np.array([0.0, 0.25 * d2, d2, 1.25 * d2])
    # each t takes the panels below it whole and its own panel up to t;
    # the panels above it have zero width and add exactly 0
    upper = np.clip(t[..., None], edges[:-1], edges[1:])
    panels = tanhsinh(lambda w: _pdf_offset_sq(w, d), edges[:-1], upper, atol=1e-10)
    out = np.minimum(panels.integral.sum(axis=-1), 1.0)
    out[t <= 0.0] = 0.0
    out[t >= 1.25 * d2] = 1.0
    return out


def cdf_offset_sq_quadrature(t, cfg: SystemConfig):
    """CDF of the squared horizontal offset by adaptive quadrature.

    Integrates the density panel by panel (breakpoints are panel
    boundaries) with scipy's vectorised tanh-sinh rule at absolute
    tolerance 1e-10, all t in one call. Independent route used to
    validate the closed form; scipy is imported on first call, so the
    closed forms load numpy alone.
    """
    return _elementwise(_cdf_offset_sq_tanhsinh, t, cfg.region_side)


# ---------------------------------------------------------------------------
# SNR of the eavesdropper


def _eve_boundaries(cfg: SystemConfig) -> tuple[float, float, float, float]:
    """SNR values at which the eavesdropper's density changes branch.

    Returned ascending: support low edge, two interior breakpoints,
    support high edge (offsets 5D^2/4, D^2, D^2/4, 0 respectively).
    """
    s = cfg.effective_snr
    h2 = cfg.height**2
    d2 = cfg.region_side**2
    return s / (h2 + 1.25 * d2), s / (h2 + d2), s / (h2 + 0.25 * d2), s / h2


def snr_eve_support(cfg: SystemConfig) -> tuple[float, float]:
    b = _eve_boundaries(cfg)
    return b[0], b[3]


def snr_eve_breakpoints(cfg: SystemConfig) -> tuple[float, float]:
    """Interior branch boundaries of the eavesdropper SNR density, ascending."""
    b = _eve_boundaries(cfg)
    return b[1], b[2]


def _eve_branches(z, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density's near, mid and far branches at each z of the support.

    near holds for offsets in [0, D^2/4] (highest SNR interval), mid for
    [D^2/4, D^2] and far for [D^2, 5*D^2/4] (lowest SNR interval). mid
    and far apply only below the inner breakpoint, so they are taken at
    min(z, b_inner): above it their sqrt(w) falls to 0 at the top of the
    support, where they would divide by it.
    """
    s = cfg.effective_snr
    d = cfg.region_side
    h2 = cfg.height**2
    w = np.maximum(s / z - h2, 0.0)
    near = (s / z**2) * (math.pi / (d * d) - (2.0 / d**3) * np.sqrt(w))

    zm = np.minimum(z, snr_eve_breakpoints(cfg)[1])
    w = s / zm - h2
    root = np.sqrt(w)
    arcsin = np.arcsin(np.minimum(d / (2.0 * root), 1.0))
    mid = (2.0 * s / (zm**2 * d * d)) * (arcsin - 0.5)
    bracket = d * (arcsin - np.arccos(np.minimum(d / root, 1.0))) - (
        0.5 * d - np.sqrt(np.maximum(w - d * d, 0.0))
    )
    # the bracket is >= 0 on this branch; cancellation at the support
    # edge (where the true value is 0) can leave -1e-19-scale noise
    far = (2.0 * s / (zm**2 * d**3)) * np.maximum(bracket, 0.0)
    return near, mid, far


def _pdf_snr_eve(z: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    lo, b_outer, b_inner, hi = _eve_boundaries(cfg)
    out = np.zeros_like(z)
    inside = (z >= lo) & (z <= hi)
    z = z[inside]
    near, mid, far = _eve_branches(z, cfg)
    out[inside] = np.where(z >= b_inner, near, np.where(z >= b_outer, mid, far))
    return out


def pdf_snr_eve(z, cfg: SystemConfig):
    """Density of the eavesdropper's SNR, four-branch closed form."""
    return _elementwise(_pdf_snr_eve, _positive_snr(z), cfg)


def _pdf_snr_eve_via_offset(z: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    s = cfg.effective_snr
    w = s / z - cfg.height**2
    out = np.zeros_like(z)
    inside = w >= 0.0
    out[inside] = (s / z[inside] ** 2) * _pdf_offset_sq(w[inside], cfg.region_side)
    return out


def pdf_snr_eve_via_offset(z, cfg: SystemConfig):
    """Density of the eavesdropper's SNR through the offset density.

    Change of variables z = effective_snr / (offset_sq + h^2):
    f(z) = (effective_snr / z^2) * f_offset(effective_snr / z - h^2).
    Dual route to :func:`pdf_snr_eve`; the two agree to roundoff.
    """
    return _elementwise(_pdf_snr_eve_via_offset, _positive_snr(z), cfg)


# ---------------------------------------------------------------------------
# Distribution objects for dumping and inspection


def make_snr_bob_cdf(cfg: SystemConfig) -> PiecewiseDensity:
    lo, hi = snr_bob_support(cfg)
    return PiecewiseDensity(lo, hi, (), lambda z: cdf_snr_bob(z, cfg), "cdf")


def make_snr_eve_pdf(cfg: SystemConfig) -> PiecewiseDensity:
    lo, hi = snr_eve_support(cfg)
    return PiecewiseDensity(
        lo, hi, snr_eve_breakpoints(cfg), lambda z: pdf_snr_eve(z, cfg), "pdf"
    )


def make_offset_sq_pdf(cfg: SystemConfig) -> PiecewiseDensity:
    lo, hi = offset_sq_support(cfg)
    return PiecewiseDensity(
        lo, hi, offset_sq_breakpoints(cfg), lambda w: pdf_offset_sq(w, cfg), "pdf"
    )


def make_offset_sq_cdf(cfg: SystemConfig) -> PiecewiseDensity:
    lo, hi = offset_sq_support(cfg)
    return PiecewiseDensity(
        lo, hi, offset_sq_breakpoints(cfg), lambda t: cdf_offset_sq(t, cfg), "cdf"
    )


# CLI tags for the `dist` subcommand
DISTRIBUTION_TAGS: dict[str, Callable[[SystemConfig], PiecewiseDensity]] = {
    "gamma-b-cdf": make_snr_bob_cdf,
    "gamma-e-pdf": make_snr_eve_pdf,
    "chi-cdf": make_offset_sq_cdf,
    "w-pdf": make_offset_sq_pdf,
}
