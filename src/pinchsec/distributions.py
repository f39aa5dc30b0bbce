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

Branch selection at breakpoints follows the closed forms' printed
inequalities (upper-interval branch owns its closed lower endpoint);
the branches agree at every boundary, so this is a determinism choice,
not a value choice. Densities return 0 outside their support so blind
quadrature over an enclosing interval is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    support endpoints are carried separately. ``evaluate`` is pure and
    safe to call concurrently.
    """

    support_lo: float
    support_hi: float
    breakpoints: tuple[float, ...]
    evaluate: Callable[[float], float]
    kind: Literal["pdf", "cdf"]


# ---------------------------------------------------------------------------
# SNR of the legitimate receiver


def snr_bob_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support of the legitimate receiver's SNR under the pinching rule."""
    h2 = cfg.height**2
    d = cfg.region_side
    return cfg.effective_snr / (h2 + d**2 / 4.0), cfg.effective_snr / h2


def cdf_snr_bob(z: float, cfg: SystemConfig) -> float:
    """CDF of the legitimate receiver's SNR, three-branch closed form.

    The branch boundaries coincide with the support endpoints, so the
    CDF rises from exactly 0 to exactly 1 across the support.
    """
    if not z > 0.0:
        raise ValueError(f"SNR argument must be > 0, got {z}")
    lo, hi = snr_bob_support(cfg)
    if z >= hi:
        return 1.0
    if z <= lo:
        return 0.0
    radicand = max(cfg.effective_snr / z - cfg.height**2, 0.0)
    return 1.0 - (2.0 / cfg.region_side) * math.sqrt(radicand)


# ---------------------------------------------------------------------------
# Squared offsets between the active antenna and the eavesdropper


def offset_sq_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support [0, 5*D^2/4] of the squared horizontal offset."""
    return 0.0, 1.25 * cfg.region_side**2


def offset_sq_breakpoints(cfg: SystemConfig) -> tuple[float, float]:
    """Interior branch boundaries D^2/4 and D^2 of the offset density."""
    d2 = cfg.region_side**2
    return 0.25 * d2, d2


def _pdf_offset_sq(w: float, d: float) -> float:
    """Density of (x1-x2)^2 + y2^2 as the convolution of the squared parts.

    The convolution window [A, B] self-clamps: A >= B exactly when w is
    past the support, and every radicand stays nonnegative by
    construction, so no epsilon guards are needed. The w -> 0 limit is
    pi/D^2 (taken by continuity, keeping quadrature over [0, eps] stable).
    """
    if w < 0.0:
        raise ValueError(f"squared offset must be >= 0, got {w}")
    d2 = d * d
    if w == 0.0:
        return math.pi / d2
    a = max(0.0, w - 0.25 * d2)
    b = min(w, d2)
    if a >= b:
        return 0.0
    arc = 2.0 * (math.asin(math.sqrt(b / w)) - math.asin(math.sqrt(a / w)))
    edge = 2.0 * (math.sqrt(w - a) - math.sqrt(w - b))
    return arc / d2 - edge / (d2 * d)


def pdf_offset_sq(w: float, cfg: SystemConfig) -> float:
    """Density of the squared horizontal offset (x1-x2)^2 + y2^2."""
    return _pdf_offset_sq(w, cfg.region_side)


def _cdf_offset_sq_array(t: np.ndarray, d: float) -> np.ndarray:
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

    Total on the reals: 0 for t <= 0 and 1 for t >= 5*D^2/4. Accepts
    scalars or numpy arrays. Validated against
    :func:`cdf_offset_sq_quadrature` to 1e-8.
    """
    arr = np.asarray(t, dtype=np.float64)
    out = _cdf_offset_sq_array(np.atleast_1d(arr), cfg.region_side)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


@lru_cache(maxsize=64)
def _offset_sq_panel_masses(d: float) -> tuple[float, float, float]:
    """Cumulative integrals of the offset density up to each breakpoint."""
    from scipy import integrate

    d2 = d * d
    edges = (0.0, 0.25 * d2, d2, 1.25 * d2)
    masses = []
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(
            _pdf_offset_sq, lo, hi, args=(d,), epsabs=1e-12, epsrel=1e-12, limit=200
        )
        acc += val
        masses.append(acc)
    return tuple(masses)


def cdf_offset_sq_quadrature(t: float, cfg: SystemConfig) -> float:
    """CDF of the squared horizontal offset by adaptive quadrature.

    Integrates the density panel by panel (breakpoints are panel
    boundaries; prefixes are cached per region size) at absolute
    tolerance 1e-10. Independent route used to validate the closed form;
    scipy is imported on first call, so the closed forms load numpy alone.
    """
    from scipy import integrate

    d = cfg.region_side
    d2 = d * d
    if t <= 0.0:
        return 0.0
    if t >= 1.25 * d2:
        return 1.0
    edges = (0.0, 0.25 * d2, d2)
    masses = _offset_sq_panel_masses(d)
    idx = 0
    for i, e in enumerate(edges):
        if t > e:
            idx = i
    base = masses[idx - 1] if idx > 0 else 0.0
    tail, _ = integrate.quad(
        _pdf_offset_sq, edges[idx], t, args=(d,), epsabs=1e-10, epsrel=1e-12, limit=200
    )
    return min(base + tail, 1.0)


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


def _eve_branch_near(z: float, cfg: SystemConfig) -> float:
    """Branch for offsets in [0, D^2/4] (highest SNR interval)."""
    s = cfg.effective_snr
    d = cfg.region_side
    w = max(s / z - cfg.height**2, 0.0)
    return (s / z**2) * (math.pi / (d * d) - (2.0 / d**3) * math.sqrt(w))


def _eve_branch_mid(z: float, cfg: SystemConfig) -> float:
    """Branch for offsets in [D^2/4, D^2]."""
    s = cfg.effective_snr
    d = cfg.region_side
    w = s / z - cfg.height**2
    asin_arg = min(d / (2.0 * math.sqrt(w)), 1.0)
    return (2.0 * s / (z**2 * d * d)) * (math.asin(asin_arg) - 0.5)


def _eve_branch_far(z: float, cfg: SystemConfig) -> float:
    """Branch for offsets in [D^2, 5*D^2/4] (lowest SNR interval)."""
    s = cfg.effective_snr
    d = cfg.region_side
    w = s / z - cfg.height**2
    root = math.sqrt(w)
    asin_arg = min(d / (2.0 * root), 1.0)
    acos_arg = min(d / root, 1.0)
    bracket = d * (math.asin(asin_arg) - math.acos(acos_arg)) - (
        0.5 * d - math.sqrt(max(w - d * d, 0.0))
    )
    # the bracket is >= 0 on this branch; cancellation at the support
    # edge (where the true value is 0) can leave -1e-19-scale noise
    return (2.0 * s / (z**2 * d**3)) * max(bracket, 0.0)


def pdf_snr_eve(z: float, cfg: SystemConfig) -> float:
    """Density of the eavesdropper's SNR, four-branch closed form."""
    if not z > 0.0:
        raise ValueError(f"SNR argument must be > 0, got {z}")
    lo, b_outer, b_inner, hi = _eve_boundaries(cfg)
    if b_inner <= z <= hi:
        return _eve_branch_near(z, cfg)
    if b_outer <= z < b_inner:
        return _eve_branch_mid(z, cfg)
    if lo <= z < b_outer:
        return _eve_branch_far(z, cfg)
    return 0.0


def pdf_snr_eve_via_offset(z: float, cfg: SystemConfig) -> float:
    """Density of the eavesdropper's SNR through the offset density.

    Change of variables z = effective_snr / (offset_sq + h^2):
    f(z) = (effective_snr / z^2) * f_offset(effective_snr / z - h^2).
    Dual route to :func:`pdf_snr_eve`; the two agree to roundoff.
    """
    if not z > 0.0:
        raise ValueError(f"SNR argument must be > 0, got {z}")
    s = cfg.effective_snr
    w = s / z - cfg.height**2
    if w < 0.0:
        return 0.0
    return (s / z**2) * _pdf_offset_sq(w, cfg.region_side)


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
        lo, hi, offset_sq_breakpoints(cfg), lambda t: float(cdf_offset_sq(t, cfg)), "cdf"
    )


# CLI tags for the `dist` subcommand
DISTRIBUTION_TAGS: dict[str, Callable[[SystemConfig], PiecewiseDensity]] = {
    "gamma-b-cdf": make_snr_bob_cdf,
    "gamma-e-pdf": make_snr_eve_pdf,
    "chi-cdf": make_offset_sq_cdf,
    "w-pdf": make_offset_sq_pdf,
}
