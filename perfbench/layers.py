"""Per-layer timings at fixed inputs, independent of the workload seed.

Each figure is the median of several repetitions, so one slow
repetition on a shared machine does not move it. Times are per call,
per element or per trial as the metric name says.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import pinchsec.distributions as dist_mod
import pinchsec.montecarlo as mc_mod
import pinchsec.sop as sop_mod
import pinchsec.system as system_mod
from pinchsec.montecarlo import McConfig
from workloads import config

# The reference point of the roadmap: D = 10 m, h = 3 m, 20 dBm.
REFERENCE = dict(region_side=10.0, height=3.0, power_dbm=20.0)
SCALAR_CALLS = 1000
ARRAY_ELEMENTS = 1_000_000
MC_TRIALS = 1_000_000
MC_SEED = 20250919


def median_time(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn`` after one warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds(module: str, src: str, reps: int = 3) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code, src], check=True, capture_output=True, text=True
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def sop_metrics() -> dict[str, tuple[float, str]]:
    cfg = config(**REFERENCE)
    return {
        "sop.exact_ms": (1e3 * median_time(lambda: sop_mod.sop_exact(cfg), 15), "ms"),
        "sop.exact_evals": (float(sop_mod.sop_exact(cfg).order_or_trials), "count"),
        "sop.chebyshev_ms": (1e3 * median_time(lambda: sop_mod.sop_chebyshev(cfg, 100), 31), "ms"),
        "sop.chebyshev_n1e4_ms": (
            1e3 * median_time(lambda: sop_mod.sop_chebyshev(cfg, 10_000), 5),
            "ms",
        ),
        "sop.asymptotic_ms": (1e3 * median_time(lambda: sop_mod.sop_asymptotic(cfg), 15), "ms"),
        "sop.asymptotic_evals": (float(sop_mod.sop_asymptotic(cfg).order_or_trials), "count"),
    }


def distributions_metrics() -> dict[str, tuple[float, str]]:
    cfg = config(**REFERENCE)
    eve = np.linspace(*dist_mod.snr_eve_support(cfg), SCALAR_CALLS + 2)[1:-1].tolist()
    bob = np.linspace(*dist_mod.snr_bob_support(cfg), SCALAR_CALLS + 2)[1:-1].tolist()
    offset = np.linspace(*dist_mod.offset_sq_support(cfg), SCALAR_CALLS + 2)[1:-1].tolist()
    offset_array = np.linspace(*dist_mod.offset_sq_support(cfg), ARRAY_ELEMENTS)

    def per_call_us(fn, points) -> float:
        return 1e6 * median_time(lambda: [fn(z, cfg) for z in points], 7) / len(points)

    return {
        "distributions.pdf_snr_eve_us": (per_call_us(dist_mod.pdf_snr_eve, eve), "us"),
        "distributions.cdf_snr_bob_us": (per_call_us(dist_mod.cdf_snr_bob, bob), "us"),
        "distributions.cdf_offset_sq_scalar_us": (
            per_call_us(dist_mod.cdf_offset_sq, offset),
            "us",
        ),
        "distributions.pdf_snr_eve_via_offset_us": (
            per_call_us(dist_mod.pdf_snr_eve_via_offset, eve),
            "us",
        ),
        "distributions.cdf_offset_sq_ns_per_elem": (
            1e9 * median_time(lambda: dist_mod.cdf_offset_sq(offset_array, cfg), 5) / ARRAY_ELEMENTS,
            "ns",
        ),
    }


def _philox_reference(trials: int) -> None:
    """Draw the uniforms of ``trials`` Monte Carlo trials with numpy alone,
    in the chunks (trials per Philox stream) montecarlo draws them in."""
    for lo in range(0, trials, mc_mod._CHUNK_TRIALS):
        bits = np.random.Philox(key=MC_SEED)
        bits.advance(lo)
        np.random.Generator(bits).random((min(mc_mod._CHUNK_TRIALS, trials - lo), 4))


def montecarlo_metrics(workers: int) -> dict[str, tuple[float, str]]:
    cfg = config(**REFERENCE)
    one = McConfig(MC_TRIALS, MC_SEED, workers=1)
    many = McConfig(MC_TRIALS, MC_SEED, workers=workers)

    def ns_per_trial(fn, mc) -> float:
        return 1e9 * median_time(lambda: fn(cfg, mc), 7) / MC_TRIALS

    pas_w1 = ns_per_trial(mc_mod.simulate_sop_pas, one)
    pas_wn = ns_per_trial(mc_mod.simulate_sop_pas, many)
    bound = ns_per_trial(mc_mod.simulate_lower_bound_event, one)
    x1, x2, y2 = np.random.default_rng(MC_SEED).uniform(-5.0, 5.0, (3, ARRAY_ELEMENTS))
    return {
        "montecarlo.pas_ns_per_trial_w1": (pas_w1, "ns"),
        "montecarlo.pas_ns_per_trial_wN": (pas_wn, "ns"),
        "montecarlo.parallel_speedup": (pas_w1 / pas_wn, "x"),
        "montecarlo.fpa_ns_per_trial": (ns_per_trial(mc_mod.simulate_sop_fpa, one), "ns"),
        "montecarlo.bound_event_ns_per_trial": (bound, "ns"),
        "montecarlo.philox_ns_per_trial": (
            1e9 * median_time(lambda: _philox_reference(MC_TRIALS), 7) / MC_TRIALS,
            "ns",
        ),
        "montecarlo.event_ns_per_trial": (pas_w1 - bound, "ns"),
        "montecarlo.sample_snr_eve_ns_per_sample": (
            ns_per_trial(mc_mod.sample_snr_eve, one),
            "ns",
        ),
        "system.snr_eve_ns_per_elem": (
            1e9 * median_time(lambda: system_mod.snr_eve_pinching(x1, x2, y2, cfg), 7) / ARRAY_ELEMENTS,
            "ns",
        ),
    }
