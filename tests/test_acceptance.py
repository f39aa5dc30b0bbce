"""Acceptance gate: every criterion as named checks of the `validate` suite.

`pinchsec.validation.run_checks` holds every grid, seed, quadrature and
tolerance; the session fixture ``full_checks`` of conftest.py runs it
once at full level and the CLI's default seed, and this module maps its
named checks onto the numbered criteria. Each criterion prints one
PASS/FAIL line with the margins from the details of its checks.
"""

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
