"""Secrecy outage probability of pinching-antenna downlinks.

Closed-form distributions, exact and Chebyshev-quadrature outage
evaluators, high-power asymptotics, constant lower bounds, and a
seeded, partition-invariant Monte Carlo simulator, plus a sweep CLI
that emits CSV.
"""

from .distributions import (
    cdf_offset_sq,
    cdf_offset_sq_quadrature,
    cdf_snr_bob,
    pdf_offset_sq,
    pdf_snr_eve,
    pdf_snr_eve_via_offset,
)
from .montecarlo import (
    McConfig,
    McResult,
    sample_offset_sq,
    sample_snr_eve,
    simulate_lower_bound_event,
    simulate_sop_fpa,
    simulate_sop_pas,
    simulate_sops,
)
from .sop import (
    LOWER_BOUND_FPA,
    LOWER_BOUND_PAS,
    AccuracyError,
    Method,
    SopEstimate,
    sop_asymptotic,
    sop_chebyshev,
    sop_chebyshev_batch,
    sop_exact,
    sop_lower_bound_fpa,
    sop_lower_bound_pas,
)
from .sweep import Axis, SweepResult, SweepSpec, dump_distribution, run_sweep
from .system import (
    SystemConfig,
    dbm_to_watts,
    snr_bob_pinching,
    snr_eve_pinching,
    snr_fpa,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "Axis",
    "LOWER_BOUND_FPA",
    "LOWER_BOUND_PAS",
    "McConfig",
    "McResult",
    "Method",
    "SopEstimate",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "cdf_offset_sq",
    "cdf_offset_sq_quadrature",
    "cdf_snr_bob",
    "dbm_to_watts",
    "dump_distribution",
    "pdf_offset_sq",
    "pdf_snr_eve",
    "pdf_snr_eve_via_offset",
    "run_sweep",
    "sample_offset_sq",
    "sample_snr_eve",
    "simulate_lower_bound_event",
    "simulate_sop_fpa",
    "simulate_sop_pas",
    "simulate_sops",
    "snr_bob_pinching",
    "snr_eve_pinching",
    "snr_fpa",
    "sop_asymptotic",
    "sop_chebyshev",
    "sop_chebyshev_batch",
    "sop_exact",
    "sop_lower_bound_fpa",
    "sop_lower_bound_pas",
    "__version__",
]
