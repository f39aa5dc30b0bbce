"""Acceptance gate: every criterion as named checks of the `validate` suite.

`pinchsec.validation.run_checks` holds every grid, seed, quadrature and
tolerance; the session fixture ``full_checks`` of conftest.py runs it
once at the CLI's default seed, and this module maps its
named checks onto the numbered criteria. Each criterion prints one
PASS/FAIL line with the margins from the details of its checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pinchsec.sop import ACCEPTANCE_TOLERANCE
from pinchsec.validation import STATISTICAL_CHECKS

BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

CRITERIA = {
    1: ("lower-bound-pas-constant", "lower-bound-pas-integral", "lower-bound-fpa-constant"),
    2: ("chebyshev-vs-exact",),
    3: ("mc-vs-chebyshev",),
    4: ("pas-floor-on-grid", "lower-bound-event-mc"),
    5: ("asymptotic-plateau", "asymptotic-power-invariance"),
    6: ("offset-pdf-normalization", "eve-pdf-normalization", "eve-pdf-dual-route",
        "eve-pdf-continuity", "offset-cdf-closed-vs-quadrature", "offset-sampler-ks",
        "eve-sampler-chi2"),
    7: ("pas-beats-fpa-ordering",),
    8: ("mc-determinism", "sweep-csv-pointwise"),
    9: ("saturated-outage",),
}


def report(criterion: int, results) -> None:
    by_name = {r.name: r for r in results}
    checks = [by_name[name] for name in CRITERIA[criterion]]
    ok = all(r.passed for r in checks)
    detail = "; ".join(f"{r.name} {'ok' if r.passed else 'FAILED'}: {r.detail}" for r in checks)
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_every_check_belongs_to_exactly_one_criterion(full_checks):
    mapped = [name for names in CRITERIA.values() for name in names]
    assert sorted(r.name for r in full_checks) == sorted(mapped)


def test_statistical_checks_are_checks_with_rates(full_checks):
    assert set(STATISTICAL_CHECKS) <= {r.name for r in full_checks}
    for rate in STATISTICAL_CHECKS.values():
        assert 0.0 < rate < 1.0


@pytest.fixture
def benchmark_workloads(monkeypatch):
    """The benchmark's workloads module, loaded from its file, which is left as it is."""
    if not BENCHMARK_WORKLOADS.exists():
        pytest.skip(f"no benchmark workloads at {BENCHMARK_WORKLOADS}")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARK_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_tolerates_exactly_the_statistical_checks(benchmark_workloads):
    # the benchmark counts a failed check outside its own list as a hard failure
    assert set(benchmark_workloads.STATISTICAL_CHECKS) == set(STATISTICAL_CHECKS)


def test_benchmark_flags_chebyshev_at_the_acceptance_tolerance(benchmark_workloads):
    # the benchmark keeps its own copy, which counts a point farther from exact as a failure
    assert benchmark_workloads.CHEBYSHEV_TOL == ACCEPTANCE_TOLERANCE


def criterion(n: int):
    """The test of criterion n: every check mapped to it passes."""

    def test(full_checks):
        report(n, full_checks)

    return test


test_criterion_1_lower_bound_constants = criterion(1)
test_criterion_2_chebyshev_vs_exact = criterion(2)
test_criterion_3_mc_agreement = criterion(3)
test_criterion_4_lower_bound_floor = criterion(4)
test_criterion_5_asymptotic_plateau = criterion(5)
test_criterion_6_distribution_validity = criterion(6)
test_criterion_7_fig3_ordering = criterion(7)
test_criterion_8_deterministic_csv = criterion(8)
test_criterion_9_saturated_outage = criterion(9)
