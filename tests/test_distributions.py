import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from pinchsec import distributions as dist
from pinchsec.distributions import (
    DISTRIBUTION_TAGS,
    cdf_offset_sq,
    cdf_offset_sq_quadrature,
    cdf_snr_bob,
    pdf_offset_sq,
    pdf_snr_eve,
    pdf_snr_eve_via_offset,
)
from pinchsec.sweep import dump_distribution

from conftest import box_configs, cdf_offset_sq_full_correction, make_config

# region sides D in meters, log-spaced over the valid range
SIDES = np.logspace(-1.0, 3.0, 41)


def sample_offset_sq_oracle(d: float, n: int, seed: int) -> np.ndarray:
    """Independent sampler of (x1-x2)^2 + y2^2 with plain numpy uniforms."""
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(n - done, 2_000_000)
        u = rng.uniform(-d / 2.0, d / 2.0, size=(m, 3))
        out[done : done + m] = (u[:, 0] - u[:, 1]) ** 2 + u[:, 2] ** 2
        done += m
    return out


class TestSnrBobCdf:
    def test_support_endpoints_exact(self, cfg10):
        lo, hi = dist.snr_bob_support(cfg10)
        assert cdf_snr_bob(hi, cfg10) == 1.0
        assert cdf_snr_bob(lo, cfg10) == 0.0

    def test_interior_half_point(self, cfg10):
        # sqrt(s/z - h^2) = D/4 there, so the middle branch gives 1/2
        s, h2, d = cfg10.effective_snr, cfg10.height**2, cfg10.region_side
        z = s / (h2 + d * d / 16.0)
        assert cdf_snr_bob(z, cfg10) == pytest.approx(0.5, rel=1e-12)

    def test_nonpositive_rejected(self, cfg10):
        with pytest.raises(ValueError):
            cdf_snr_bob(0.0, cfg10)
        with pytest.raises(ValueError):
            cdf_snr_bob(-1.0, cfg10)

    def test_nondecreasing_on_fine_grid(self, cfg10):
        lo, hi = dist.snr_bob_support(cfg10)
        zs = np.linspace(0.5 * lo, 1.5 * hi, 10_000)
        vals = cdf_snr_bob(zs, cfg10)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_derivative_matches_implied_density(self, cfg10):
        # oracle: change of variables on snr = s/(y1^2+h^2), |y1| ~ U[0, D/2]
        s, h2, d = cfg10.effective_snr, cfg10.height**2, cfg10.region_side
        lo, hi = dist.snr_bob_support(cfg10)
        for frac in (0.2, 0.5, 0.8):
            z = lo + frac * (hi - lo)
            step = 1e-6 * z
            numeric = (cdf_snr_bob(z + step, cfg10) - cdf_snr_bob(z - step, cfg10)) / (
                2.0 * step
            )
            implied = s / (d * z * z * math.sqrt(s / z - h2))
            assert numeric == pytest.approx(implied, rel=1e-5)

    @given(st.floats(0.25, 4.0), st.floats(0.05, 0.95))
    def test_scaling_with_effective_snr(self, k, frac):
        cfg = make_config()
        scaled = replace(cfg, transmit_power=cfg.transmit_power * k)
        lo, hi = dist.snr_bob_support(cfg)
        z = lo + frac * (hi - lo)
        ratio = scaled.effective_snr / cfg.effective_snr
        assert cdf_snr_bob(ratio * z, scaled) == pytest.approx(
            cdf_snr_bob(z, cfg), rel=1e-12, abs=1e-12
        )

    def test_support_is_the_eavesdroppers_top_two_knots_over_the_box(self):
        # the receiver's offset spans the eavesdropper's top branch, [0, D^2/4]
        for cfg in box_configs(2000, seed=20261021):
            _, _, inner, top = dist._snr_knots(cfg)
            assert dist.snr_bob_support(cfg) == (inner, top)
            assert cdf_snr_bob(np.array([inner, top]), cfg).tolist() == [0.0, 1.0]


class TestOffsetSqPdf:
    def test_outside_and_endpoint(self, cfg10):
        d2 = cfg10.region_side**2
        assert pdf_offset_sq(1.3 * d2, cfg10) == 0.0
        # arcsin terms cancel exactly at the support edge
        assert pdf_offset_sq(1.25 * d2, cfg10) == 0.0
        with pytest.raises(ValueError):
            pdf_offset_sq(-1e-9, cfg10)

    @pytest.mark.parametrize("d", [0.10139113857366794, 0.5470159628939716, 653.1747574302946])
    def test_upper_edge_is_zero_where_the_window_rounds_open(self, d):
        # at these D, 5D^2/4 - D^2/4 rounds one ulp below D^2, so the
        # convolution window stays open at the edge, where arc - edge cancels
        cfg = make_config(region_side=d)
        assert pdf_offset_sq(dist.offset_sq_knots(cfg)[-1], cfg) == 0.0
        assert pdf_snr_eve_via_offset(dist.snr_eve_support(cfg)[0], cfg) >= 0.0
        assert min(v for _, v, _ in dump_distribution("w-pdf", 5, cfg)) >= 0.0

    def test_origin_limit(self, cfg10):
        d2 = cfg10.region_side**2
        assert pdf_offset_sq(0.0, cfg10) == pytest.approx(math.pi / d2, rel=1e-15)
        # continuity: the limit is approached from the right
        assert pdf_offset_sq(1e-12, cfg10) == pytest.approx(math.pi / d2, rel=1e-5)

    def test_normalizes(self, cfg10):
        d2 = cfg10.region_side**2
        mass, _ = integrate.quad(
            lambda w: pdf_offset_sq(w, cfg10),
            0.0,
            1.25 * d2,
            points=[0.25 * d2, d2],
            epsabs=1e-10,
            limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_continuous_at_breakpoints(self, cfg10):
        # the density has square-root cusps at the breakpoints, so check
        # continuity as a shrinking-step limit rather than at +-1 ulp
        d2 = cfg10.region_side**2
        for b in (0.25 * d2, d2):
            at = pdf_offset_sq(b, cfg10)
            for sign in (-1.0, 1.0):
                gaps = [
                    abs(pdf_offset_sq(b + sign * rel_step * d2, cfg10) - at)
                    for rel_step in (1e-6, 1e-9, 1e-12)
                ]
                assert gaps[0] > gaps[1] > gaps[2]
                assert gaps[2] <= 1e-3 * at

    def test_density_vanishes_near_support_edge(self, cfg10):
        # 10^7-sample histogram oracle for the upper support edge
        d2 = cfg10.region_side**2
        n = 10_000_000
        samples = sample_offset_sq_oracle(cfg10.region_side, n, seed=20250810)
        assert samples.max() < 1.25 * d2
        width = 0.0125 * d2
        tail = 1.25 * d2 - width
        empirical = np.count_nonzero(samples >= tail) / n
        expected = 1.0 - float(cdf_offset_sq(tail, cfg10))
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(empirical - expected) <= 4.0 * sigma
        # the last 1% of the support holds well under 0.1% of the mass
        assert expected < 1e-3


class TestOffsetSqCdf:
    def test_total_function(self, cfg10):
        d2 = cfg10.region_side**2
        assert cdf_offset_sq(-5.0, cfg10) == 0.0
        assert cdf_offset_sq(0.0, cfg10) == 0.0
        assert cdf_offset_sq(1.25 * d2, cfg10) == 1.0
        assert cdf_offset_sq(10.0 * d2, cfg10) == 1.0
        assert cdf_offset_sq_quadrature(-5.0, cfg10) == 0.0
        assert cdf_offset_sq_quadrature(1.25 * d2, cfg10) == 1.0

    def test_closed_form_matches_quadrature(self, cfg10):
        d2 = cfg10.region_side**2
        rng = np.random.default_rng(3)
        ts = np.concatenate(
            [np.linspace(0.0, 1.25 * d2, 41), rng.uniform(0.0, 1.25 * d2, 60)]
        )
        assert np.abs(cdf_offset_sq(ts, cfg10) - cdf_offset_sq_quadrature(ts, cfg10)).max() <= 1e-8

    def test_continuous_one_ulp_past_the_breakpoints(self):
        # arcsin(D/(2*sqrt(t))) and arccos(D/sqrt(t)) would lose up to 3e-8
        # here, where their arguments round to just below 1
        for d in SIDES:
            cfg = make_config(region_side=float(d))
            for knot in dist.offset_sq_knots(cfg)[1:3]:
                at = cdf_offset_sq(knot, cfg)
                for side in (-math.inf, math.inf):
                    assert abs(cdf_offset_sq(math.nextafter(knot, side), cfg) - at) <= 1e-13

    @pytest.mark.parametrize("d", [0.1, 1.0, 7.123456, 10.0, 33.3, 1000.0])
    def test_kernel_matches_the_full_correction_form(self, d):
        d2 = d * d
        rng = np.random.default_rng(19)
        inner = np.array([0.25 * d2, d2])
        ts = np.concatenate(
            [
                rng.uniform(-0.1 * d2, 1.4 * d2, 200_000),
                [0.0, 0.25 * d2, d2, 1.25 * d2, math.inf],
                np.nextafter(inner, -np.inf),
                np.nextafter(inner, np.inf),
            ]
        )
        ours = dist._cdf_offset_sq(ts, d)
        assert np.array_equal(ours, cdf_offset_sq_full_correction(ts, d))
        # inputs that leave one or more branches empty, which the kernel skips
        for part in (
            np.linspace(-0.1 * d2, 0.25 * d2, 1001),  # all t <= D^2/4
            np.linspace(0.25 * d2, d2, 1001)[1:],  # all t in (D^2/4, D^2]
            np.linspace(d2, 1.4 * d2, 1001)[1:],  # all t > D^2
            np.array([math.inf]),
            np.linspace(0.0, 1.4 * d2, 384).reshape(2, 192),
            np.empty((0, 192)),
        ):
            ours = dist._cdf_offset_sq(part, d)
            assert ours.shape == part.shape
            assert np.array_equal(ours, cdf_offset_sq_full_correction(part, d))

    @pytest.mark.parametrize("d", [0.3, 7.123456, 10.0, 1000.0])
    def test_rows_take_the_branch_the_masked_kernel_chooses(self, d):
        # one call over every row: a row takes the closed form of the branch
        # that holds both its ends; a row with one t outside its interior's
        # branch at either end, where a nondecreasing row has it (a knot, a
        # neighbour of one, 0, 5D^2/4 or the inf of a pole), takes the
        # masked kernel; both equal it bit for bit. At
        # D = 0.3 and 10 the far form reads 1 -/+ 1 ulp at 5D^2/4, where
        # the CDF is exactly 1
        d2 = d * d
        knots = np.array([0.0, 0.25 * d2, d2, 1.25 * d2])
        stray = np.concatenate(
            [knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), [math.inf]]
        )
        interiors = [np.linspace(lo, hi, 129)[1:-1] for lo, hi in zip(knots[:-1], knots[1:])]
        rows = np.array(
            interiors
            + [np.concatenate(([t], row[1:])) for row in interiors for t in stray]
            + [np.concatenate((row[:-1], [t])) for row in interiors for t in stray]
        )
        assert np.array_equal(dist._cdf_offset_sq_rows(rows, d), dist._cdf_offset_sq(rows, d))

    @pytest.mark.parametrize("branch", [0, 1, 2])
    @pytest.mark.parametrize("d", [0.3, 7.123456, 10.0, 1000.0])
    def test_a_row_inside_one_branch_never_takes_the_masked_kernel(self, monkeypatch, d, branch):
        # rows inside the branch's (lo, hi], up to its closed top knot (one
        # ulp below 5D^2/4 for the far one) and from one ulp above its bottom
        d2 = d * d
        lo, hi = (0.0, 0.25 * d2, d2, math.nextafter(1.25 * d2, 0.0))[branch : branch + 2]
        interior = np.linspace(lo, hi, 129)[1:-1]
        rows = np.array(
            [
                interior,
                np.concatenate((interior[:-1], [hi])),
                np.concatenate(([math.nextafter(lo, math.inf)], interior[1:])),
            ]
        )
        expected = dist._cdf_offset_sq(rows, d)
        monkeypatch.setattr(dist, "_cdf_offset_sq", None)  # a masked call would raise
        assert np.array_equal(dist._cdf_offset_sq_rows(rows, d), expected)

    def test_quadrature_one_ulp_beside_every_knot(self):
        # t one ulp past a knot leaves a one-ulp panel, on which an adaptive
        # rule can fail; the fixed rule must not
        for d in SIDES:
            cfg = make_config(region_side=float(d))
            knots = np.array(dist.offset_sq_knots(cfg))
            ts = np.concatenate([np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
            quad = cdf_offset_sq_quadrature(ts, cfg)
            assert np.isfinite(quad).all()
            assert np.abs(quad - cdf_offset_sq(ts, cfg)).max() <= 1e-12

    def test_quadrature_matches_scipy_tanhsinh(self):
        # scipy's adaptive rule, panel by panel, at t at least 1e-6*D^2
        # from every knot, where it converges on every panel
        rng = np.random.default_rng(5)
        for d in SIDES[::4]:
            cfg = make_config(region_side=float(d))
            knots = np.array(dist.offset_sq_knots(cfg))
            ts = rng.uniform(-0.1, 1.35, 200) * d * d
            ts = ts[np.abs(ts[:, None] - knots).min(axis=1) >= 1e-6 * d * d]
            upper = np.clip(ts[:, None], knots[:-1], knots[1:])
            panels = integrate.tanhsinh(lambda w: pdf_offset_sq(w, cfg), knots[:-1], upper)
            expected = np.minimum(panels.integral.sum(axis=1), 1.0)
            assert np.abs(cdf_offset_sq_quadrature(ts, cfg) - expected).max() <= 1e-13

    def test_vectorized_matches_scalar(self, cfg10):
        ts = np.array([-1.0, 0.0, 10.0, 60.0, 110.0, 130.0])
        vec = cdf_offset_sq(ts, cfg10)
        assert vec.shape == ts.shape
        for t, v in zip(ts, vec):
            assert v == cdf_offset_sq(float(t), cfg10)
        # every array-first closed form, at its support ends, points past
        # them, its branch boundaries and a grid
        for func, tag in (
            (cdf_snr_bob, "gamma-b-cdf"),
            (pdf_snr_eve, "gamma-e-pdf"),
            (pdf_snr_eve_via_offset, "gamma-e-pdf"),
            (pdf_offset_sq, "w-pdf"),
            (cdf_offset_sq, "chi-cdf"),
            (cdf_offset_sq_quadrature, "chi-cdf"),
        ):
            lo, *breakpoints, hi = DISTRIBUTION_TAGS[tag][1](cfg10)
            zs = np.concatenate(
                ([0.5 * lo, lo, hi, 1.5 * hi], breakpoints, np.linspace(lo, hi, 20))
            )
            scalars = [func(float(z), cfg10) for z in zs]
            assert all(type(v) is float for v in scalars), func.__name__
            assert func(zs, cfg10).tolist() == scalars, func.__name__
            grid = zs.reshape(2, -1)
            assert func(grid, cfg10).tolist() == np.reshape(scalars, grid.shape).tolist()
            if func in (cdf_snr_bob, pdf_snr_eve, pdf_snr_eve_via_offset):
                for bad in (0.0, -1.0, math.nan):
                    with pytest.raises(ValueError, match="SNR argument"):
                        func(np.array([lo, bad, hi]), cfg10)
            if func is pdf_offset_sq:
                with pytest.raises(ValueError, match="squared offset"):
                    func(np.array([1.0, -1e-9]), cfg10)
            if func in (cdf_offset_sq, cdf_offset_sq_quadrature):
                for bad in (math.nan, np.array([lo, math.nan, hi])):
                    with pytest.raises(ValueError, match="must not be nan"):
                        func(bad, cfg10)

    def test_quarter_point_against_mc_oracle(self, cfg10):
        # empirical CDF at D^2/4 from 10^7 independent samples
        d2 = cfg10.region_side**2
        n = 10_000_000
        samples = sample_offset_sq_oracle(cfg10.region_side, n, seed=424242)
        p_hat = np.count_nonzero(samples <= 0.25 * d2) / n
        p = float(cdf_offset_sq(0.25 * d2, cfg10))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 3.0 * sigma

    def test_ks_against_independent_samples(self, cfg10):
        samples = sample_offset_sq_oracle(cfg10.region_side, 1_000_000, seed=7)
        res = stats.kstest(samples, lambda t: cdf_offset_sq(t, cfg10))
        assert res.pvalue > 0.01, f"KS D={res.statistic:.3e} p={res.pvalue:.4f}"


class TestSnrEvePdf:
    def test_support_endpoint_vanishes(self, cfg10):
        lo, hi = dist.snr_eve_support(cfg10)
        # arcsin(1/sqrt(5)) == arccos(2/sqrt(5)) makes the bracket cancel
        assert pdf_snr_eve(lo, cfg10) == pytest.approx(0.0, abs=1e-12)

    def test_branch_agreement_at_inner_breakpoint(self, cfg10):
        # both adjacent branches reduce to (s/z^2) * (pi - 1) / D^2 there
        s, d = cfg10.effective_snr, cfg10.region_side
        b_inner = dist._snr_knots(cfg10)[2]
        expected = (s / b_inner**2) * (math.pi - 1.0) / d**2
        near, mid, _ = dist._eve_branches(b_inner, dist._scales(cfg10))
        assert near == pytest.approx(expected, rel=1e-12)
        assert mid == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_both_breakpoints(self, cfg10):
        _, b_outer, b_inner, _ = dist._snr_knots(cfg10)
        near, mid, far = dist._eve_branches(np.array([b_inner, b_outer]), dist._scales(cfg10))
        for a, b in ((mid[0], near[0]), (far[1], mid[1])):
            assert abs(a - b) / max(abs(a), abs(b)) <= 1e-9

    def test_normalizes(self, cfg10):
        lo, hi = dist.snr_eve_support(cfg10)
        mass, _ = integrate.quad(
            lambda z: pdf_snr_eve(z, cfg10),
            lo,
            hi,
            points=list(dist._snr_knots(cfg10)[1:3]),
            epsabs=1e-10,
            limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_dual_route_equivalence(self, cfg10):
        # relative tolerance anchored to the density scale: the density
        # vanishes at the lower support edge, where pure relative
        # agreement between two algebraically different forms is
        # unattainable (the absolute gap there is ~1e-18)
        lo, hi = dist.snr_eve_support(cfg10)
        rng = np.random.default_rng(11)
        zs = rng.uniform(lo, hi, size=10_000)
        a = pdf_snr_eve(zs, cfg10)
        b = pdf_snr_eve_via_offset(zs, cfg10)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0 / (hi - lo))
        assert (np.abs(a - b) / scale).max() <= 1e-9

    def test_domain_handling(self, cfg10):
        lo, hi = dist.snr_eve_support(cfg10)
        assert pdf_snr_eve(0.5 * lo, cfg10) == 0.0
        assert pdf_snr_eve(2.0 * hi, cfg10) == 0.0
        assert pdf_snr_eve_via_offset(2.0 * hi, cfg10) == 0.0
        with pytest.raises(ValueError):
            pdf_snr_eve(0.0, cfg10)
        with pytest.raises(ValueError):
            pdf_snr_eve_via_offset(-1.0, cfg10)

    @given(st.floats(0.25, 4.0), st.floats(0.02, 0.98))
    def test_scaling_with_effective_snr(self, k, frac):
        # density transforms with Jacobian 1/k under snr scaling
        cfg = make_config()
        scaled = replace(cfg, transmit_power=cfg.transmit_power * k)
        ratio = scaled.effective_snr / cfg.effective_snr
        lo, hi = dist.snr_eve_support(cfg)
        z = lo + frac * (hi - lo)
        assert pdf_snr_eve(ratio * z, scaled) * ratio == pytest.approx(
            pdf_snr_eve(z, cfg), rel=1e-9, abs=1e-300
        )


class TestDistributionObjects:
    def test_metadata(self, cfg10):
        d2 = cfg10.region_side**2
        knots = {tag: k(cfg10) for tag, (_, k) in DISTRIBUTION_TAGS.items()}
        assert sorted(knots) == ["chi-cdf", "gamma-b-cdf", "gamma-e-pdf", "w-pdf"]
        for tag, ks in knots.items():
            assert all(a < b for a, b in zip(ks, ks[1:])), tag

        assert knots["gamma-b-cdf"] == dist.snr_bob_support(cfg10)
        lo, _, _, hi = knots["gamma-e-pdf"]
        assert (lo, hi) == dist.snr_eve_support(cfg10)
        assert knots["w-pdf"] == knots["chi-cdf"] == (0.0, 0.25 * d2, d2, 1.25 * d2)
        # each SNR knot is the SNR at an offset knot, s / (w + h^2)
        s, h2 = cfg10.effective_snr, cfg10.height**2
        offsets = dist.offset_sq_knots(cfg10)
        assert knots["gamma-e-pdf"] == tuple(s / (w + h2) for w in reversed(offsets))
        assert knots["gamma-b-cdf"] == tuple(s / (w + h2) for w in reversed(offsets[:2]))

        # the dump flags exactly the interior knots, and a CDF runs from
        # exactly 0 to exactly 1 across the support
        for tag, ks in knots.items():
            rows = dump_distribution(tag, 50, cfg10)
            assert (rows[0][0], rows[-1][0]) == (ks[0], ks[-1]), tag
            assert [z for z, _, flag in rows if flag] == list(ks[1:-1]), tag
            if tag.endswith("-cdf"):
                assert (rows[0][1], rows[-1][1]) == (0.0, 1.0), tag

    def test_pdf_objects_nonnegative(self, cfg10):
        for tag in ("gamma-e-pdf", "w-pdf"):
            values = [v for _, v, _ in dump_distribution(tag, 2_000, cfg10)]
            assert min(values) >= 0.0, tag

    def test_cdf_objects_monotone(self, cfg10):
        for tag in ("gamma-b-cdf", "chi-cdf"):
            values = [v for _, v, _ in dump_distribution(tag, 2_000, cfg10)]
            assert np.all(np.diff(values) >= -1e-15), tag
