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
takes the root of a negative number, and a branch that owns none of the
inputs is not evaluated at all. Configs in, numbers down: no kernel
takes a ``SystemConfig``. The offset kernels take D, and the SNR kernels
``_Scales``: Python floats of one configuration, or (B, 1) columns of B
configurations that broadcast against a (B, N) grid, row by row.

Branch selection at breakpoints follows the closed forms' printed
inequalities: an SNR law's upper-interval branch owns its closed lower
endpoint, and the offset CDF's branch below a knot owns it (its one
table, ``_branches``, holds (lo, hi] intervals). The branches agree at
every boundary, so this is a determinism choice, not a value choice.
Densities return 0 outside their support so blind quadrature over an
enclosing interval is safe.
"""

from __future__ import annotations

import collections
import math
from typing import Callable

import numpy as np

from .system import SystemConfig

__all__ = [
    "cdf_snr_bob",
    "pdf_snr_eve",
    "pdf_snr_eve_via_offset",
    "pdf_offset_sq",
    "cdf_offset_sq",
    "cdf_offset_sq_quadrature",
    "snr_bob_support",
    "snr_eve_support",
    "offset_sq_support",
    "offset_sq_knots",
    "DISTRIBUTION_TAGS",
]


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


def _snr_knots(cfg: SystemConfig) -> tuple[float, float, float, float]:
    """The SNR knots, s / (w + h^2) at the offset knots w = 5D^2/4, D^2, D^2/4 and 0.

    The eavesdropper's support ends and breakpoints; the top two bound the receiver's.
    """
    s = cfg.effective_snr
    h2 = cfg.height**2
    return tuple(s / (w + h2) for w in reversed(offset_sq_knots(cfg)))


# The scalars the SNR kernels read, each computed in Python floats from one
# configuration (d3 as d**3: numpy's pow may round it differently): floats
# for one configuration, or (B, 1) columns for B, which evaluate a (B, N)
# grid row by row in one call. Both SNR laws read the four knots.
_Scales = collections.namedtuple("_Scales", "s d d3 h2 eve_lo eve_outer eve_inner eve_hi")


def _scales(cfg: SystemConfig) -> _Scales:
    d = cfg.region_side
    return _Scales(cfg.effective_snr, d, d**3, cfg.height**2, *_snr_knots(cfg))


# ---------------------------------------------------------------------------
# SNR of the legitimate receiver


def snr_bob_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support of the legitimate receiver's SNR under the pinching rule: the top two SNR knots."""
    return _snr_knots(cfg)[2:]


def _cdf_snr_bob(z: np.ndarray, p: _Scales) -> np.ndarray:
    # z is clamped up to the support's low end, where the CDF is 0, so s/z stays finite
    radicand = np.maximum(p.s / np.maximum(z, p.eve_inner) - p.h2, 0.0)
    inside = 1.0 - (2.0 / p.d) * np.sqrt(radicand)
    return np.where(z >= p.eve_hi, 1.0, np.where(z > p.eve_inner, inside, 0.0))


def cdf_snr_bob(z, cfg: SystemConfig):
    """CDF of the legitimate receiver's SNR, three-branch closed form.

    The branch boundaries coincide with the support endpoints, so the
    CDF rises from exactly 0 to exactly 1 across the support.
    """
    return _elementwise(_cdf_snr_bob, _positive_snr(z), _scales(cfg))


# ---------------------------------------------------------------------------
# Squared offsets between the active antenna and the eavesdropper


def offset_sq_support(cfg: SystemConfig) -> tuple[float, float]:
    """Support [0, 5*D^2/4] of the squared horizontal offset: the ends of its knots."""
    return offset_sq_knots(cfg)[::3]


def offset_sq_knots(cfg: SystemConfig) -> tuple[float, float, float, float]:
    """Support ends and branch boundaries (0, D^2/4, D^2, 5*D^2/4) of the offset law.

    Every knot of the SNR laws is one of these, mapped through the SNR
    of its offset.
    """
    return _offset_knots(cfg.region_side)


def _offset_knots(d: float) -> tuple[float, float, float, float]:
    return 0.0, 0.25 * d**2, d**2, 1.25 * d**2


def _pdf_offset_sq(w: np.ndarray, d: float) -> np.ndarray:
    """Density of (x1-x2)^2 + y2^2 as the convolution of the squared parts.

    The convolution window [A, B] is empty past the support, and every
    radicand stays nonnegative by construction. At the upper edge
    w = 5D^2/4, w - D^2/4 can round one ulp below D^2, leaving the window
    open where the density is 0; arc - edge then cancels to a negative
    remainder, so the value is clamped at 0. The w -> 0 limit is pi/D^2
    (taken by continuity, keeping quadrature over [0, eps] stable).
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
    out[inside] = np.maximum(arc / d2 - edge / (d2 * d), 0.0)
    return out


def pdf_offset_sq(w, cfg: SystemConfig):
    """Density of the squared horizontal offset (x1-x2)^2 + y2^2."""
    arr = np.asarray(w, dtype=np.float64)
    bad = arr[~(arr >= 0.0)]
    if bad.size:
        raise ValueError(f"squared offset must be >= 0, got {bad[0]}")
    return _elementwise(_pdf_offset_sq, arr, cfg.region_side)


# The offset CDF in closed form on each of its branches: near(t) on
# (0, D^2/4], mid(t) on (D^2/4, D^2] and far(t) on (D^2, 5*D^2/4); each
# takes only its own t, and writes into ``out`` when given one.


def _near(t: np.ndarray, d: float, out=None) -> np.ndarray:
    return np.subtract(math.pi * t / (d * d), (4.0 / 3.0) * t**1.5 / (d * d * d), out=out)


def _mid_part(t: np.ndarray, d: float) -> np.ndarray:
    d2 = d * d
    # arcsin(D/(2*sqrt(t))) and arccos(D/sqrt(t)) by arctan2, exact near their knots
    root = np.sqrt(t - 0.25 * d2)
    return (2.0 / d2) * (t * np.arctan2(0.5 * d, root) + 0.5 * d * root) - t / d2


def _mid(t: np.ndarray, d: float, out=None) -> np.ndarray:
    return np.add(_mid_part(t, d), 1.0 / 12.0, out=out)


def _far(t: np.ndarray, d: float, out=None) -> np.ndarray:
    d2 = d * d
    rad = t - d2
    root = np.sqrt(rad)
    g = _mid_part(t, d)
    g += -(2.0 / d2) * (t * np.arctan2(root, d) - d * root) + (4.0 / (3.0 * d2 * d)) * rad**1.5
    return np.add(g, 1.0 / 12.0, out=out)


def _branches(d: float) -> tuple:
    """Each branch's (lo, hi, form): near, mid and far, the far one open at 5*D^2/4."""
    d2 = d * d
    return (
        (0.0, 0.25 * d2, _near),
        (0.25 * d2, d2, _mid),
        (d2, math.nextafter(1.25 * d2, 0.0), _far),
    )


def _cdf_offset_sq(t: np.ndarray, d: float) -> np.ndarray:
    """Vectorized closed-form CDF of the squared horizontal offset.

    Piecewise antiderivative of the convolution density; the panel
    constants telescope so the value is exactly 1 at 5*D^2/4. Each
    branch of :func:`_branches` runs only on the t in its (lo, hi], and
    not at all when it owns none, which is common in the exact SOP's
    integrand.
    """
    out = np.zeros(t.shape)
    branches = _branches(d)
    for lo, hi, form in branches:
        mask = (t > lo) & (t <= hi)
        if mask.any():
            out[mask] = form(t[mask], d)
    out[t > branches[-1][1]] = 1.0  # from 5*D^2/4 on
    return out


def _cdf_offset_sq_rows(t: np.ndarray, d: float) -> np.ndarray:
    """:func:`_cdf_offset_sq`, bit for bit, of (k, n) t with nondecreasing rows.

    A row's first and last t are its least and greatest, so a row whose
    ends lie in one branch of :func:`_branches` takes that form on its
    contiguous slice, with no mask, gather or scatter; any other row the
    masked kernel.
    """
    out = np.empty(t.shape)
    branches = _branches(d)
    for row, row_out, least, greatest in zip(t, out, t[:, 0].tolist(), t[:, -1].tolist()):
        for lo, hi, form in branches:
            if lo < least <= greatest <= hi:
                form(row, d, out=row_out)
                break
        else:
            row_out[...] = _cdf_offset_sq(row, d)
    return out


def _not_nan(t) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("squared offset threshold must not be nan")
    return arr


def cdf_offset_sq(t, cfg: SystemConfig):
    """CDF of the squared horizontal offset, closed form.

    Total on the reals: 0 for t <= 0 and 1 for t >= 5*D^2/4; nan is a
    ValueError. Validated against :func:`cdf_offset_sq_quadrature` to 1e-8.
    """
    return _elementwise(_cdf_offset_sq, _not_nan(t), cfg.region_side)


def _cdf_offset_sq_panels(t: np.ndarray, d: float) -> np.ndarray:
    from .sop import _panel_quadrature  # imported here: sop imports this module

    # each t takes the panels below it whole and its own panel up to t;
    # the panels above it have zero width and add exactly 0
    knots = np.array(_offset_knots(d))
    edges = np.clip(t[..., None], 0.0, knots)
    mass, _, _ = _panel_quadrature(lambda w: _pdf_offset_sq(w, d), edges)
    return np.where(t >= knots[-1], 1.0, np.minimum(mass, 1.0))


def cdf_offset_sq_quadrature(t, cfg: SystemConfig):
    """CDF of the squared horizontal offset by quadrature of its density.

    Integrates the density panel by panel, with the breakpoints as panel
    edges, by the exact SOP's nested Clenshaw-Curtis rule
    (:func:`pinchsec.sop._panel_quadrature`), all t in one call; no
    panel is too narrow for it, down to one ulp. Independent route used
    to validate the closed form. nan is a ValueError.
    """
    return _elementwise(_cdf_offset_sq_panels, _not_nan(t), cfg.region_side)


# ---------------------------------------------------------------------------
# SNR of the eavesdropper


def snr_eve_support(cfg: SystemConfig) -> tuple[float, float]:
    return _snr_knots(cfg)[::3]


def _eve_branches(z, p: _Scales) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density's near, mid and far branches at each z of the support.

    near holds for offsets in [0, D^2/4] (highest SNR interval), mid for
    [D^2/4, D^2] and far for [D^2, 5*D^2/4] (lowest SNR interval). mid
    and far apply only below the inner breakpoint, so they are taken at
    min(z, b_inner): above it their sqrt(w) falls to 0 at the top of the
    support, where they would divide by it.
    """
    s, d, d3, h2 = p.s, p.d, p.d3, p.h2
    w = np.maximum(s / z - h2, 0.0)
    near = (s / z**2) * (math.pi / (d * d) - (2.0 / d3) * np.sqrt(w))

    zm = np.minimum(z, p.eve_inner)
    w = s / zm - h2
    root = np.sqrt(w)
    arcsin = np.arcsin(np.minimum(d / (2.0 * root), 1.0))
    mid = (2.0 * s / (zm**2 * d * d)) * (arcsin - 0.5)
    bracket = d * (arcsin - np.arccos(np.minimum(d / root, 1.0))) - (
        0.5 * d - np.sqrt(np.maximum(w - d * d, 0.0))
    )
    # the bracket is >= 0 on this branch; cancellation at the support
    # edge (where the true value is 0) can leave -1e-19-scale noise
    far = (2.0 * s / (zm**2 * d3)) * np.maximum(bracket, 0.0)
    return near, mid, far


def _pdf_snr_eve(z: np.ndarray, p: _Scales) -> np.ndarray:
    # the branches are taken at z clamped into the support, where they are finite
    zc = np.minimum(np.maximum(z, p.eve_lo), p.eve_hi)
    near, mid, far = _eve_branches(zc, p)
    inside = np.where(zc >= p.eve_inner, near, np.where(zc >= p.eve_outer, mid, far))
    return np.where((z >= p.eve_lo) & (z <= p.eve_hi), inside, 0.0)


def pdf_snr_eve(z, cfg: SystemConfig):
    """Density of the eavesdropper's SNR, four-branch closed form."""
    return _elementwise(_pdf_snr_eve, _positive_snr(z), _scales(cfg))


def _pdf_snr_eve_via_offset(z: np.ndarray, p: _Scales) -> np.ndarray:
    w = p.s / z - p.h2
    out = np.zeros_like(z)
    inside = w >= 0.0
    out[inside] = (p.s / z[inside] ** 2) * _pdf_offset_sq(w[inside], p.d)
    return out


def pdf_snr_eve_via_offset(z, cfg: SystemConfig):
    """Density of the eavesdropper's SNR through the offset density.

    Change of variables z = effective_snr / (offset_sq + h^2):
    f(z) = (effective_snr / z^2) * f_offset(effective_snr / z - h^2).
    Dual route to :func:`pdf_snr_eve`; the two agree to roundoff.
    """
    return _elementwise(_pdf_snr_eve_via_offset, _positive_snr(z), _scales(cfg))


# ---------------------------------------------------------------------------
# Tags of the `dist` subcommand


# tag -> (closed form, its knots): the knots of a configuration are
# (support low edge, *interior branch boundaries, support high edge), ascending
DISTRIBUTION_TAGS: dict[str, tuple[Callable, Callable[[SystemConfig], tuple[float, ...]]]] = {
    "gamma-b-cdf": (cdf_snr_bob, snr_bob_support),
    "gamma-e-pdf": (pdf_snr_eve, _snr_knots),
    "chi-cdf": (cdf_offset_sq, offset_sq_knots),
    "w-pdf": (pdf_offset_sq, offset_sq_knots),
}
