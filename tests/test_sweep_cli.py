import argparse
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from pinchsec import McConfig, Method, dbm_to_watts
from pinchsec import cli
from pinchsec import distributions as dist_mod
from pinchsec import montecarlo as mc_mod
from pinchsec import sop as sop_mod
from pinchsec import sweep as sweep_mod
from pinchsec import validation
from pinchsec.sweep import (
    Axis,
    SweepRow,
    SweepResult,
    SweepSpec,
    config_at,
    dump_distribution,
    format_float,
    run_sweep,
)
from pinchsec.system import OPTIONS, operating_point
from pinchsec.validation import CheckResult

from conftest import make_config


def small_spec(**overrides):
    defaults = dict(
        x_axis=Axis.POWER_DBM,
        x_values=(0.0, 20.0, 40.0),
        base=make_config(),
        methods=(Method.MC, Method.CHEBYSHEV, Method.LOWER_PAS),
        mc=McConfig(trials=2_000, seed=5),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="x_values"):
            small_spec(x_values=())

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            small_spec(x_values=(0.0, 0.0, 5.0))

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="methods"):
            small_spec(methods=())

    def test_rejects_repeated_methods(self):
        with pytest.raises(ValueError, match="methods must not repeat"):
            small_spec(methods=(Method.MC, Method.EXACT, Method.MC))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="chebyshev_order"):
            small_spec(chebyshev_order=0)

    @pytest.mark.parametrize("order", [2.5, 100.7, 64.0, True, "64"])
    def test_rejects_a_non_integer_order(self, order):
        with pytest.raises(TypeError, match="chebyshev_order must be an integer"):
            small_spec(chebyshev_order=order)

    def test_stores_a_numpy_integer_order_as_int(self):
        assert type(small_spec(chebyshev_order=np.int64(64)).chebyshev_order) is int


class TestRunSweep:
    def test_row_structure(self):
        spec = small_spec()
        result = run_sweep(spec)
        assert len(result.rows) == len(spec.x_values) * len(spec.methods)
        keys = [(r.x, r.method.value) for r in result.rows]
        assert keys == sorted(keys)
        for row in result.rows:
            assert 0.0 <= row.sop <= 1.0
            if row.method is Method.MC:
                assert row.stderr is not None
                assert row.order_or_trials == 2_000
            else:
                assert row.stderr is None

    def test_every_order_of_methods_gives_the_same_rows(self):
        # rows are emitted in (x, method name) order as they are computed,
        # with no sort after, and the two Monte Carlo systems share draws
        methods = (
            Method.EXACT,
            Method.CHEBYSHEV,
            Method.ASYMPTOTIC,
            Method.LOWER_PAS,
            Method.MC,
            Method.MC_FPA,
        )
        spec = small_spec(methods=methods, mc=McConfig(trials=200, seed=5))
        reference = run_sweep(spec)
        keys = [(r.x, r.method.value) for r in reference.rows]
        assert keys == [(x, m) for x in spec.x_values for m in sorted(m.value for m in methods)]
        for order in itertools.permutations(methods):
            result = run_sweep(replace(spec, methods=order))
            assert result.to_csv() == reference.to_csv(), order
            assert [(r.x, r.method.value) for r in result.rows] == keys, order

    def test_lower_bound_column_is_constant(self):
        result = run_sweep(small_spec(methods=(Method.LOWER_PAS,)))
        values = {row.sop for row in result.rows}
        assert values == {(2.0 * math.pi - 1.0) / 24.0}

    def test_rate_axis_applies_rate(self):
        spec = small_spec(
            x_axis=Axis.RATE, x_values=(0.1, 1.0), methods=(Method.CHEBYSHEV,)
        )
        rows = run_sweep(spec).rows
        assert rows[0].sop < rows[1].sop  # outage grows with the rate

    def test_region_axis_applies_side(self):
        spec = small_spec(
            x_axis=Axis.REGION_SIDE, x_values=(10.0, 30.0), methods=(Method.CHEBYSHEV,)
        )
        rows = run_sweep(spec).rows
        assert rows[0].sop != rows[1].sop

    def test_csv_round_trips(self):
        csv = run_sweep(small_spec()).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "x,method,sop,stderr,order_or_trials"
        for line in lines[1:]:
            x, method, sop, stderr, count = line.split(",")
            assert float(x) in (0.0, 20.0, 40.0)
            assert 0.0 <= float(sop) <= 1.0
            assert stderr == "" or float(stderr) >= 0.0
            int(count)

    def test_format_float_is_lossless(self):
        for v in (0.1, 1 / 3, 0.22013272113248275, 1e-11, 7.26e4):
            assert float(format_float(v)) == v


def count_asymptote_calls(monkeypatch) -> list:
    """Wrap sop.sop_asymptotic so every call is recorded."""
    calls = []
    original = sop_mod.sop_asymptotic

    def counted(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(sop_mod, "sop_asymptotic", counted)
    return calls


class TestAsymptoteOncePerSweep:
    POWERS = (0.0, 10.0, 20.0, 30.0, 40.0)

    def test_power_sweep_evaluates_asymptote_once(self, monkeypatch):
        calls = count_asymptote_calls(monkeypatch)
        spec = small_spec(x_values=self.POWERS, methods=(Method.ASYMPTOTIC,))
        rows = run_sweep(spec).rows
        assert len(calls) == 1
        assert len(rows) == len(self.POWERS)

    def test_power_sweep_csv_matches_per_point_evaluation(self):
        spec = small_spec(x_values=self.POWERS, methods=(Method.ASYMPTOTIC,))
        expected = []
        for x in self.POWERS:
            est = sop_mod.sop_asymptotic(config_at(spec.base, spec.x_axis, x))
            expected.append(
                SweepRow(x, Method.ASYMPTOTIC, est.value, est.stderr, est.order_or_trials)
            )
        assert run_sweep(spec).to_csv() == SweepResult(tuple(expected)).to_csv()

    @pytest.mark.parametrize(
        "axis, values",
        [(Axis.RATE, (0.1, 0.5, 1.0)), (Axis.REGION_SIDE, (10.0, 20.0, 30.0))],
    )
    def test_other_axes_evaluate_asymptote_per_point(self, monkeypatch, axis, values):
        calls = count_asymptote_calls(monkeypatch)
        spec = small_spec(x_axis=axis, x_values=values, methods=(Method.ASYMPTOTIC,))
        rows = run_sweep(spec).rows
        assert len(calls) == len(values)
        assert len({row.sop for row in rows}) == len(values)


class TestSpecConfigs:
    @pytest.mark.parametrize(
        "axis,x,expected",
        [
            (Axis.POWER_DBM, 33.0, lambda cfg: replace(cfg, transmit_power=dbm_to_watts(33.0))),
            (Axis.RATE, 0.7, lambda cfg: replace(cfg, target_rate=0.7)),
            (Axis.REGION_SIDE, 30.0, lambda cfg: replace(cfg, region_side=30.0)),
        ],
    )
    def test_config_at_sets_the_axis_field_in_si(self, axis, x, expected):
        base = make_config()
        assert config_at(base, axis, x) == expected(base)

    def test_holds_the_config_at_each_x(self):
        spec = small_spec()
        assert spec.configs == tuple(config_at(spec.base, spec.x_axis, x) for x in spec.x_values)

    def test_equality_replace_and_repr_ignore_it(self):
        spec = small_spec()
        assert spec == small_spec() and hash(spec) == hash(small_spec())
        assert "configs" not in repr(spec)
        moved = replace(spec, x_values=(5.0, 10.0))
        assert moved.configs == tuple(config_at(spec.base, spec.x_axis, x) for x in (5.0, 10.0))
        assert replace(moved, x_values=spec.x_values) == spec


class TestChebyshevOncePerSweep:
    AXES = [
        (Axis.POWER_DBM, tuple(range(-60, 121, 20))),
        (Axis.RATE, (0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 30.0)),
        (Axis.REGION_SIDE, (0.1, 1.0, 10.0, 100.0, 1000.0)),
    ]

    def test_one_batched_call_and_no_per_point_call(self, monkeypatch):
        calls = []
        batch = sop_mod.sop_chebyshev_batch
        monkeypatch.setattr(
            sop_mod, "sop_chebyshev_batch", lambda cfgs, order: calls.append(cfgs) or batch(cfgs, order)
        )
        monkeypatch.setattr(sop_mod, "sop_chebyshev", None)  # a per-point call would raise
        spec = small_spec(methods=(Method.CHEBYSHEV, Method.EXACT))
        run_sweep(spec)
        assert calls == [spec.configs]

    @pytest.mark.parametrize("axis, values", AXES)
    def test_csv_matches_per_point_evaluation(self, axis, values):
        spec = small_spec(x_axis=axis, x_values=values, methods=(Method.CHEBYSHEV,))
        expected = []
        for x in values:
            est = sop_mod.sop_chebyshev(config_at(spec.base, axis, x))
            expected.append(SweepRow(x, Method.CHEBYSHEV, est.value, est.stderr, est.order_or_trials))
        assert run_sweep(spec).to_csv() == SweepResult(tuple(expected)).to_csv()

    def test_warns_once_per_point_below_the_floor(self):
        # at D/h = 200 the raw sum falls below the floor from 10 dBm on
        spec = small_spec(
            x_values=tuple(range(-60, 121, 10)),
            base=make_config(region_side=100.0, height=0.5),
            methods=(Method.CHEBYSHEV,),
        )
        with warnings.catch_warnings(record=True) as per_point:
            warnings.simplefilter("always")
            for cfg in spec.configs:
                sop_mod.sop_chebyshev(cfg)
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            run_sweep(spec)
        floor = [w for w in per_point if "provable floor" in str(w.message)]
        assert 0 < len(floor) < len(spec.x_values)
        assert [(w.category, str(w.message)) for w in swept] == [
            (w.category, str(w.message)) for w in floor
        ]

    def test_silent_above_the_floor(self):
        spec = small_spec(x_values=tuple(range(-60, 121, 10)), methods=(Method.CHEBYSHEV,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(spec)


def count_draw_passes(monkeypatch) -> list:
    """Wrap montecarlo._generator so the seed of every stream opened is recorded."""
    calls = []
    original = mc_mod._generator

    def counted(seed):
        calls.append(seed)
        return original(seed)

    monkeypatch.setattr(mc_mod, "_generator", counted)
    return calls


def count_simulate_sops_calls(monkeypatch):
    """Wrap montecarlo.simulate_sops so every call's configurations are recorded."""
    calls = []
    original = mc_mod.simulate_sops

    def counted(cfgs, mc, systems):
        calls.append((tuple(cfgs), mc, tuple(systems)))
        return original(cfgs, mc, systems)

    monkeypatch.setattr(mc_mod, "simulate_sops", counted)
    return calls


class TestMonteCarloSharesDraws:
    RATES = (0.1, 0.5, 1.0, 2.0)

    def spec(self):
        return small_spec(
            x_axis=Axis.RATE,
            x_values=self.RATES,
            methods=(Method.MC_FPA, Method.MC),
            mc=McConfig(trials=5_000, seed=8),
        )

    def test_one_draw_pass_per_sweep(self, monkeypatch):
        draws = count_draw_passes(monkeypatch)
        calls = count_simulate_sops_calls(monkeypatch)
        spec = self.spec()
        rows = run_sweep(spec).rows
        # one pass is one stream, opened at the sweep's seed
        assert draws == [spec.mc.seed]
        assert calls == [(spec.configs, spec.mc, ("pas", "fpa"))]
        assert len(rows) == 2 * len(self.RATES)

    def test_no_simulate_sops_call_without_monte_carlo_methods(self, monkeypatch):
        calls = count_simulate_sops_calls(monkeypatch)
        run_sweep(replace(self.spec(), methods=(Method.CHEBYSHEV, Method.LOWER_FPA)))
        assert calls == []

    def test_a_failing_analytic_call_stops_the_sweep_before_any_draw(self, monkeypatch):
        # the analytic columns come first, so no point's trials are drawn
        draws = count_draw_passes(monkeypatch)
        calls = count_simulate_sops_calls(monkeypatch)
        monkeypatch.setattr(sop_mod, "_ERROR_BOUND", 1e-300)
        spec = replace(self.spec(), methods=(Method.EXACT, Method.MC))
        with pytest.raises(sop_mod.AccuracyError):
            run_sweep(spec)
        assert draws == calls == []

    def test_csv_matches_per_point_simulation(self):
        # every point is simulated with the sweep's own McConfig
        spec = self.spec()
        expected = []
        for x in self.RATES:
            cfg = config_at(spec.base, spec.x_axis, x)
            for method, simulate in (
                (Method.MC, mc_mod.simulate_sop_pas),
                (Method.MC_FPA, mc_mod.simulate_sop_fpa),
            ):
                res = simulate(cfg, spec.mc)
                expected.append(SweepRow(x, method, res.estimate, res.stderr, res.trials))
        assert run_sweep(spec).to_csv() == SweepResult(tuple(expected)).to_csv()

    def test_rate_sweep_columns_never_decrease(self):
        # at a fixed power the SNRs of a trial do not depend on the rate, and
        # gb - C*ge <= C - 1 only gains trials as C grows, so over shared
        # trials each column is nondecreasing; 21 rates 0.005 apart at 2000
        # trials, where an estimate's standard error is about 0.01
        rates = tuple(0.5 + 0.005 * i for i in range(21))
        spec = replace(self.spec(), x_values=rates, mc=McConfig(trials=2_000, seed=8))
        for method in (Method.MC, Method.MC_FPA):
            column = [row.sop for row in run_sweep(spec).rows if row.method is method]
            assert len(column) == len(rates)
            assert all(a <= b for a, b in zip(column, column[1:])), method


GOLDEN_CSV = Path(__file__).parent / "data" / "sweep_rate_golden.csv"


class TestGoldenSweepBytes:
    """A fixed-seed rate sweep, pinned byte for byte.

    Its ``mc`` and ``mc-fpa`` rows come from numpy's PCG64DXSM
    ``Generator.random`` stream, trial t taking draws 4t..4t+3 of it,
    one draw of the sweep's seed shared by every x value; any change to
    a draw, an operation or its order shows here.
    numpy may change that stream between releases (NEP 19). The file was
    regenerated once when the x values stopped drawing from per-point
    seeds: only its ``mc`` and ``mc-fpa`` rows moved.
    """

    ARGS = [
        "sweep", "--x", "rate", "--x-values", "0,0.5,1,1.5,2",
        "--methods", "mc,mc-fpa,chebyshev,lower-pas,lower-fpa",
        "--trials", "200000", "--seed", "2025",
        "--region-side", "10", "--height", "3", "--power-dbm", "20",
        "--freq-ghz", "28", "--noise-dbm", "-80",
    ]

    def test_bytes_match_golden_file(self, capsys):
        assert cli.main(self.ARGS) == 0
        assert capsys.readouterr().out == GOLDEN_CSV.read_text()


EXACT_GOLDEN_CSV = Path(__file__).parent / "data" / "sweep_exact_golden.csv"


class TestGoldenExactBytes:
    """Exact and asymptotic rows at D = 10 m, h = 3 m, pinned byte for byte.

    The file holds a power sweep over -10..60 dBm and then a rate sweep
    over 0..2, written while ``sop`` still took its Gauss-Legendre nodes
    from scipy, regenerated when the offset CDF took its angles by arctan2
    (three exact rows moved, by at most 1.1e-16), and again for the nested
    Clenshaw-Curtis rule (every row moved, by at most 1.9e-14, and 192
    evaluations per panel became 127); a change to a node, a weight or
    the outage integral's arithmetic shows in the 17-digit values.
    """

    POWER = ["--x", "power-dbm", "--x-min", "-10", "--x-max", "60", "--x-step", "5"]
    RATE = ["--x", "rate", "--x-min", "0", "--x-max", "2", "--x-step", "0.25"]
    SYSTEM = [
        "--methods", "exact,asymptotic",
        "--power-dbm", "20", "--rate", "0.1", "--region-side", "10", "--height", "3",
        "--freq-ghz", "28", "--noise-dbm", "-80",
    ]

    def test_bytes_match_golden_file(self, capsys):
        for axis in (self.POWER, self.RATE):
            assert cli.main(["sweep", *axis, *self.SYSTEM]) == 0
        assert capsys.readouterr().out == EXACT_GOLDEN_CSV.read_text()


CHEBYSHEV_GOLDEN_CSV = Path(__file__).parent / "data" / "sweep_chebyshev_golden.csv"


class TestGoldenChebyshevBytes:
    """Chebyshev rows over every axis, pinned byte for byte.

    At D = 10 m, h = 3 m: a power sweep over -60..120 dBm, a rate sweep
    over 0..30 and a region sweep over 0.1..1000 m; then a power sweep at
    D = 100 m, h = 0.5 m, whose raw sums fall below the floor from 10 dBm
    on and warn. Written while each point still took its own
    ``sop_chebyshev`` call, so the batched rule must round every node,
    term and sum as that call did.
    """

    SYSTEM = ["--methods", "chebyshev", "--freq-ghz", "28", "--noise-dbm", "-80"]
    SWEEPS = [
        ["--x", "power-dbm", "--x-min", "-60", "--x-max", "120", "--x-step", "10",
         "--region-side", "10", "--height", "3", "--rate", "0.1"],
        ["--x", "rate", "--x-values", "0,0.05,0.1,0.25,0.5,0.75,1,1.5,2,2.5,3,4,6,10,20,30",
         "--region-side", "10", "--height", "3", "--power-dbm", "20"],
        ["--x", "region", "--x-values", "0.1,0.2,0.5,1,2,5,10,20,50,100,200,500,1000",
         "--height", "3", "--power-dbm", "20", "--rate", "0.1"],
        ["--x", "power-dbm", "--x-min", "-60", "--x-max", "120", "--x-step", "10",
         "--region-side", "100", "--height", "0.5", "--rate", "0.1"],
    ]

    def test_bytes_match_golden_file(self, capsys):
        with pytest.warns(RuntimeWarning, match="provable floor"):
            for sweep in self.SWEEPS:
                assert cli.main(["sweep", *sweep, *self.SYSTEM]) == 0
        assert capsys.readouterr().out == CHEBYSHEV_GOLDEN_CSV.read_text()


# run in a fresh interpreter that cannot import scipy: prints [exit code,
# stdout] of cli.main for each argv of the JSON list in argv[2]
BLOCKED_SCIPY_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.modules["scipy"] = None  # importing scipy or a submodule now raises
from pinchsec import cli
results = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""

# prints the scipy modules loaded after importing the CLI, then after a
# default sweep of the three analytic methods
SCIPY_MODULES_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import pinchsec.cli
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
with contextlib.redirect_stdout(io.StringIO()):
    assert pinchsec.cli.main(["sweep", "--methods", "exact,asymptotic,chebyshev"]) == 0
loaded.append(sorted(m for m in sys.modules if m.startswith("scipy")))
print(json.dumps(loaded))
"""


# prints the scipy modules loaded after importing the check suite and
# running it at the fast level
CHECKS_MODULES_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pinchsec.validation import run_checks
run_checks("fast", 1)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""


def run_fresh(code: str, *args: str):
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, src, *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestScipyFreeStart:
    """``sweep``, ``dist`` and ``validate`` run on numpy alone."""

    METHODS = ",".join(m.value for m in Method)
    COMMANDS = [
        ["sweep", "--x-values", "0,20", "--methods", METHODS, "--trials", "2000", "--seed", "7"],
        *(["dist", "--which", tag, "--grid", "40"] for tag in sorted(dist_mod.DISTRIBUTION_TAGS)),
        ["validate", "--level", "fast", "--seed", "7"],
    ]

    def test_commands_match_without_scipy(self, capsys):
        blocked = run_fresh(BLOCKED_SCIPY_RUN, json.dumps(self.COMMANDS))
        assert len(blocked) == len(self.COMMANDS)
        for argv, (code, out) in zip(self.COMMANDS, blocked):
            assert (code, out) == (cli.main(argv), capsys.readouterr().out)
            # validate exits 1 on a failed check, a verdict rather than an
            # error: the fast level's statistical checks fail at some seeds
            assert code in ((0, 1) if argv[0] == "validate" else (0,))

    def test_cli_import_and_analytic_sweep_load_no_scipy(self):
        assert run_fresh(SCIPY_MODULES_RUN) == [[], []]


class TestChecksWithoutScipy:
    """The check suite runs on numpy alone.

    Its KS p-value and chi-square critical value come from its own
    ports of ``scipy.special.kolmogorov`` and ``chdtri``, pinned here
    against scipy, and its integrals take the exact SOP's fixed rule,
    not scipy.integrate.
    """

    SEEDS = (12345, 7, 8, 101)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ks_matches_scipy_kstest(self, seed, cfg10):
        samples = mc_mod.sample_offset_sq(cfg10, McConfig(10_000, seed + 11))

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg10)

        d, p = validation._ks_test(samples.copy(), cdf)
        assert d == stats.kstest(samples, cdf).statistic
        assert p == stats.kstest(samples, cdf, method="asymp").pvalue

    def test_kolmogorov_sf_is_scipy_kolmogorov(self):
        one, cut = validation._KOLMOGOROV_ONE, validation._KOLMOGOROV_CUTOVER
        edges = [np.nextafter(x, d) for x in (one, cut) for d in (-np.inf, np.inf)]
        xs = np.concatenate([
            np.linspace(0.0, 6.0, 200_001),
            [0.0, -0.0, -1e-300, -0.5, -6.0, -np.inf, one, cut, *edges],
        ])
        ours = np.array([validation._kolmogorov_sf(float(x)) for x in xs])
        assert np.array_equal(ours, special.kolmogorov(xs))

    @pytest.mark.parametrize("x", [20.0, 30.0, 1e3, 1e200, np.inf])
    def test_kolmogorov_sf_underflows_to_zero_as_scipy(self, x):
        assert validation._kolmogorov_sf(x) == special.kolmogorov(x) == 0.0

    def test_chi2_isf_matches_chi2_ppf(self):
        dof = np.arange(1, 401)
        ours = np.array([validation._chi2_isf(int(k), 0.01) for k in dof])
        theirs = stats.chi2.ppf(0.99, dof)
        assert np.all(np.abs(ours - theirs) <= 1e-12 * theirs)

    @pytest.mark.parametrize(
        "dof,p", [(0, 0.01), (0.5, 0.01), (-1, 0.01), (math.nan, 0.01), (math.inf, 0.01),
                  (5, 0.0), (5, 1.0), (5, -0.1), (5, 1.5), (5, math.nan)]
    )
    def test_chi2_isf_rejects_bad_arguments(self, dof, p):
        with pytest.raises(ValueError):
            validation._chi2_isf(dof, p)

    def test_chi2_critical_text_is_scipy_stats(self, full_checks):
        fast = [validation._check_sampler_fit(fast=True, seed=seed) for seed in self.SEEDS]
        for results in (*fast, full_checks):
            (detail,) = [r.detail for r in results if r.name == "eve-sampler-chi2"]
            dof, critical = re.search(r"dof=(\d+)\)=(\S+) ", detail).groups()
            assert critical == f"{stats.chi2.ppf(0.99, int(dof)):.1f}"

    def test_fast_checks_load_no_scipy(self):
        assert run_fresh(CHECKS_MODULES_RUN) == []


CHUNK = validation._KS_CHUNK


class TestChunkedKs:
    """The KS step walks the sorted sample chunk by chunk.

    It gives the same floats as ``kstest`` on the whole sample, and makes
    no temporary as long as the sample.
    """

    @pytest.mark.parametrize(
        "n", [1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 1_000_000]
    )
    def test_matches_scipy_kstest_across_chunk_boundaries(self, n, cfg10):
        samples = mc_mod.sample_offset_sq(cfg10, McConfig(n, 12356))

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg10)

        d, p = validation._ks_test(samples.copy(), cdf)
        res = stats.kstest(samples, cdf, method="asymp")
        assert d == res.statistic
        assert p == res.pvalue

    @pytest.mark.parametrize("k", [0, CHUNK - 1, CHUNK, 3 * CHUNK + 4])
    @pytest.mark.parametrize("shift", [-0.3, 0.3])
    def test_finds_a_deviation_planted_at_a_chunk_edge(self, k, shift):
        # every other point sits 0.5/n from its ranks; the planted one 0.8/n
        n = 3 * CHUNK + 5
        samples = (np.arange(n) + 0.5) / n
        samples[k] += shift / n
        d, p = validation._ks_test(samples.copy(), lambda t: t)
        res = stats.kstest(samples, lambda t: t, method="asymp")
        assert (d, p) == (res.statistic, res.pvalue)
        assert d == pytest.approx(0.8 / n, rel=1e-9)

    def test_peak_memory_is_below_one_more_sample(self, cfg10):
        # numpy reports its buffers to tracemalloc; the whole-sample form
        # peaked at about four times the sample's own 8 MB
        samples = mc_mod.sample_offset_sq(cfg10, McConfig(1_000_000, 12356))
        tracemalloc.start()
        try:
            validation._ks_test(samples, lambda t: dist_mod.cdf_offset_sq(t, cfg10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < samples.nbytes


class TestDumpDistribution:
    def test_eve_pdf_rows(self, cfg10):
        rows = dump_distribution("gamma-e-pdf", 1000, cfg10)
        assert len(rows) == 1002  # grid plus two flagged breakpoints
        flagged = [r for r in rows if r[2] == 1]
        assert len(flagged) == 2
        zs = [r[0] for r in rows]
        assert zs == sorted(zs)
        # trapezoid over the emitted rows recovers unit mass coarsely
        vals = [r[1] for r in rows]
        assert np.trapezoid(vals, zs) == pytest.approx(1.0, abs=1e-3)

    def test_bob_cdf_endpoints(self, cfg10):
        rows = dump_distribution("gamma-b-cdf", 100, cfg10)
        assert rows[0][1] == 0.0
        assert rows[-1][1] == 1.0
        assert all(flag == 0 for _, _, flag in rows)

    def test_offset_tags(self, cfg10):
        for tag in ("w-pdf", "chi-cdf"):
            rows = dump_distribution(tag, 50, cfg10)
            assert sum(flag for _, _, flag in rows) == 2
        cdf_rows = dump_distribution("chi-cdf", 50, cfg10)
        assert cdf_rows[0][1] == 0.0 and cdf_rows[-1][1] == 1.0

    def test_log_grid(self, cfg10):
        rows = dump_distribution("gamma-e-pdf", 100, cfg10, log_grid=True)
        assert len(rows) == 102
        with pytest.raises(ValueError, match="positive support"):
            dump_distribution("w-pdf", 100, cfg10, log_grid=True)

    def test_bad_inputs(self, cfg10):
        with pytest.raises(ValueError, match="unknown distribution"):
            dump_distribution("nope", 100, cfg10)
        with pytest.raises(ValueError, match="grid"):
            dump_distribution("w-pdf", 1, cfg10)


class TestCliSweep:
    BASE = [
        "sweep",
        "--x-values",
        "0,20",
        "--methods",
        "mc,lower-pas",
        "--trials",
        "2000",
        "--seed",
        "99",
    ]

    def test_csv_on_stdout(self, capsys):
        assert cli.main(self.BASE) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "x,method,sop,stderr,order_or_trials"
        assert len(lines) == 5

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        assert cli.main(self.BASE + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("x,method,sop")

    def test_out_file_is_checked_before_any_point(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mc_mod, "simulate_sops", None)  # computing a point would raise
        (tmp_path / "file").touch()
        for target in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv", tmp_path):
            assert cli.main(self.BASE + ["--out", str(target)]) == 2
            assert capsys.readouterr().err.startswith("error: --out:")

    def test_silent_where_the_rate_threshold_nearly_overflows(self):
        argv = ["sweep", "--methods", "exact,chebyshev,asymptotic,mc,mc-fpa"]
        argv += ["--rate", "1020", "--x-values", "20", "--trials", "1000"]
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pinchsec.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert [line.split(",")[2] for line in done.stdout.split()[1:]] == ["1"] * 5

    def test_rate_zero_gives_the_floors_far_above_the_region(self, capsys):
        # at rate 0 the outage is snr_bob <= snr_eve, whose probability is
        # the floor at any power and geometry, even where 1 + snr rounds to 1
        argv = ["sweep", "--methods", "exact,chebyshev,asymptotic,mc,mc-fpa,lower-pas"]
        argv += ["--trials", "20000", "--region-side", "10", "--height", "7e5"]
        argv += ["--x", "rate", "--x-values", "0", "--power-dbm", "30"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        rows = {row[1]: row for row in csv.reader(capsys.readouterr().out.split()[1:])}
        assert abs(float(rows["exact"][2]) - sop_mod.LOWER_BOUND_PAS) <= 1e-12
        assert abs(float(rows["chebyshev"][2]) - sop_mod.LOWER_BOUND_PAS) <= 1e-3
        for method, floor in (("mc", sop_mod.LOWER_BOUND_PAS), ("mc-fpa", 0.5)):
            _, _, value, stderr, _ = rows[method]
            assert abs(float(value) - floor) <= 3.0 * float(stderr), method

    def test_unknown_method_is_usage_error(self, capsys):
        code = cli.main(["sweep", "--methods", "bogus"])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_empty_x_values_is_usage_error_naming_it(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SweepSpec", None)  # building the default grid would raise
        assert cli.main(["sweep", "--methods", "lower-pas", "--x-values", ""]) == 2
        assert capsys.readouterr().err.startswith("error: --x-values: ")

    def test_empty_grid_is_usage_error(self, capsys):
        code = cli.main(["sweep", "--x-min", "10", "--x-max", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "x-min" in err and "x-max" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--x-min", "--x-max", "--x-step"])
    def test_non_finite_grid_option_is_usage_error_naming_it(self, capsys, flag, value):
        # checked before the grid's point count, which int() cannot take from inf or nan
        assert cli.main(["sweep", "--methods", "lower-pas", f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)}\n"

    def test_grid_over_the_cap_is_usage_error_before_it_is_built(self, capsys, monkeypatch):
        cap = cli.MAX_GRID_POINTS
        built = []

        def stop(**kwargs):
            built.append(len(kwargs["x_values"]))
            raise ValueError("stop")

        monkeypatch.setattr(cli, "SweepSpec", stop)
        for args in (
            f"--x-min 0 --x-max {cap} --x-step 1",  # cap + 1 points
            "--x-step 1e-300",
            "--x-min=-1e308 --x-max 1e308 --x-step 1",  # the span overflows to inf
        ):
            assert cli.main(["sweep", *args.split()]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --x-step ") and f"more than {cap} grid points" in err
        assert built == []
        assert cli.main(["sweep", "--x-min", "0", "--x-max", str(cap - 1), "--x-step", "1"]) == 2
        assert capsys.readouterr().err == "error: stop\n"
        assert built == [cap]

    def test_chebyshev_order_over_the_cap_is_usage_error_before_any_point(
        self, tmp_path, capsys, monkeypatch
    ):
        cap = cli.MAX_GRID_POINTS
        monkeypatch.setattr(sop_mod, "sop_chebyshev_batch", None)  # computing would raise
        conf = tmp_path / "params.cfg"
        conf.write_text(f"chebyshev-order={cap + 1}\n")
        argv = ["sweep", "--methods", "chebyshev", "--x-values", "0"]
        for source in (["--chebyshev-order", str(cap + 1)], ["--config", str(conf)]):
            assert cli.main(argv + source) == 2
            err = capsys.readouterr().err
            assert err == f"error: --chebyshev-order must be <= {cap}, got {cap + 1}\n"
        argv = ["sweep", "--methods", "lower-pas", "--x-values", "0"]
        assert cli.main(argv + ["--chebyshev-order", str(cap)]) == 0

    def test_chebyshev_nodes_over_the_cap_is_usage_error_before_any_point(
        self, capsys, monkeypatch
    ):
        cap = cli.MAX_CHEBYSHEV_NODES
        built = []

        def stop(**kwargs):
            built.append(len(kwargs["x_values"]) * kwargs["chebyshev_order"])
            raise ValueError("stop")

        monkeypatch.setattr(cli, "SweepSpec", stop)
        thousand = "--x-min 0 --x-max 999 --x-step 1"
        for args in (
            f"{thousand} --chebyshev-order {cap // 1000 + 1}",
            f"--x-min 0 --x-max {cli.MAX_GRID_POINTS - 1} --x-step 1 --chebyshev-order 101",
            f"--x-min 0 --x-max {cli.MAX_GRID_POINTS - 1} --x-step 1 "
            f"--chebyshev-order {cli.MAX_GRID_POINTS}",  # 10^12 nodes
        ):
            assert cli.main(["sweep", "--methods", "chebyshev", *args.split()]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --chebyshev-order ")
            assert err.endswith(f"gives more than {cap} Chebyshev nodes\n")
        assert built == []
        assert cli.main(["sweep", *thousand.split(), "--chebyshev-order", str(cap // 1000)]) == 2
        assert capsys.readouterr().err == "error: stop\n"
        assert built == [cap]

    def test_invalid_physics_is_usage_error(self, capsys):
        code = cli.main(self.BASE + ["--height", "-3"])
        assert code == 2
        assert "height" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            "--x-values nan",
            "--x region --x-values=-5,10",
            "--x rate --x-values 0,nan",
            "--x region --x-values inf",
            "--x rate --x-values 0,inf",
            "--height inf",
            "--power-dbm 4000",
            "--x-values 4000",
            "--rate 1e6",
            "--freq-ghz 1e-300",
            "--power-dbm 3000 --noise-dbm -3000 --x-values 3000",
            "--power-dbm -3000 --noise-dbm 3000 --x-values -3000",
            "--height 1e-200",
            "--height 1e-160",
            "--height 1e155",
            "--height 1e-152 --x-values 60",
            "--region-side 1.5e154",
            "--region-side 1e150",
            "--x region --x-values 1,1.2e154",
            "--region-side 1 --height 3e7",
            "--region-side 1 --height 1e9",
            "--region-side 1e-100 --height 1e100",
            "--x region --x-values 10,1e-5",
            "--methods mc,mc",
        ],
    )
    def test_out_of_domain_x_is_usage_error_before_any_point(self, capsys, monkeypatch, args):
        monkeypatch.setattr(mc_mod, "simulate_sops", None)  # computing a point would raise
        assert cli.main(["sweep", "--methods", "mc,chebyshev", *args.split()]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_default_grid_matches_builtin_defaults(self, capsys):
        assert cli.main(["sweep", "--methods", "lower-pas"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 9  # 0:5:40 dBm

    def test_config_file_merges_beneath_flags(self, tmp_path, capsys):
        conf = tmp_path / "params.cfg"
        conf.write_text("trials=1000\nseed=7\n# comment\nregion-side=30\n")
        args = ["sweep", "--x-values", "20", "--methods", "mc", "--config", str(conf)]
        assert cli.main(args) == 0
        from_file = capsys.readouterr().out
        assert ",1000\n" in from_file or from_file.endswith(",1000\n")
        assert cli.main(args + ["--trials", "500"]) == 0
        overridden = capsys.readouterr().out
        assert ",500\n" in overridden or overridden.endswith(",500\n")
        assert from_file != overridden

    def test_config_file_seed_is_honored(self, tmp_path, capsys):
        conf = tmp_path / "params.cfg"
        conf.write_text("seed=7\n")
        base = ["sweep", "--x-values", "20", "--methods", "mc", "--trials", "2000"]
        assert cli.main(base + ["--config", str(conf)]) == 0
        via_file = capsys.readouterr().out
        assert cli.main(base + ["--seed", "7"]) == 0
        assert capsys.readouterr().out == via_file
        # the flag still wins over the file
        assert cli.main(base + ["--config", str(conf), "--seed", "8"]) == 0
        assert capsys.readouterr().out != via_file

    def test_config_file_unknown_key(self, tmp_path, capsys):
        conf = tmp_path / "params.cfg"
        conf.write_text("nonsense=1\n")
        assert cli.main(["sweep", "--config", str(conf)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_seed_env_var(self, capsys, monkeypatch):
        args = ["sweep", "--x-values", "20", "--methods", "mc", "--trials", "2000"]
        monkeypatch.setenv("PINCH_SEED", "424242")
        assert cli.main(args) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv("PINCH_SEED")
        assert cli.main(args + ["--seed", "424242"]) == 0
        via_flag = capsys.readouterr().out
        assert via_env == via_flag
        # flag wins over the environment
        monkeypatch.setenv("PINCH_SEED", "1")
        assert cli.main(args + ["--seed", "424242"]) == 0
        assert capsys.readouterr().out == via_flag


# Every config-file key, a value for it, and where that value must land:
# in the SweepSpec of `sweep` or in the arguments of the `dist` dump.
CONFIG_FILE_KEYS = [
    ("region-side", "30", "sweep", lambda spec: spec.base.region_side, 30.0),
    ("height", "2.5", "sweep", lambda spec: spec.base.height, 2.5),
    ("freq-ghz", "60", "sweep", lambda spec: spec.base.carrier_freq, 60e9),
    ("power-dbm", "33", "sweep", lambda spec: spec.base.transmit_power, dbm_to_watts(33.0)),
    ("noise-dbm", "-70", "sweep", lambda spec: spec.base.noise_power, dbm_to_watts(-70.0)),
    ("rate", "0.7", "sweep", lambda spec: spec.base.target_rate, 0.7),
    ("trials", "1234", "sweep", lambda spec: spec.mc.trials, 1234),
    ("seed", "77", "sweep", lambda spec: spec.mc.seed, 77),
    ("chebyshev-order", "64", "sweep", lambda spec: spec.chebyshev_order, 64),
    ("grid", "17", "dist", lambda call: call[1], 17),
]


class TestSystemOptions:
    @pytest.mark.parametrize("command", ["sweep", "dist"])
    def test_group_lists_the_table_in_help_order(self, command):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        (group,) = [
            g for g in sub.choices[command]._action_groups if g.title == "system parameters"
        ]
        listed = [(a.option_strings, a.help, a.type) for a in group._group_actions]
        assert listed == [
            (["--region-side"], "region side D in meters", float),
            (["--height"], "antenna height h in meters", float),
            (["--freq-ghz"], "carrier frequency in GHz", float),
            (["--power-dbm"], "transmit power in dBm", float),
            (["--noise-dbm"], "noise power in dBm", float),
            (["--rate"], "target secrecy rate in bits/s/Hz", float),
        ]
        assert [a.dest for a in group._group_actions] == [k.replace("-", "_") for k in OPTIONS]


class TestRetiredSettings:
    """--workers and --n-eff changed no output, and --exact-tol could only
    turn a result into an error: none is an option any more."""

    @pytest.mark.parametrize("command", ["sweep", "dist"])
    @pytest.mark.parametrize("flag", ["--workers 3", "--n-eff 1.4", "--exact-tol 1e-6"])
    def test_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *flag.split()])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "dist"])
    @pytest.mark.parametrize("key", ["workers", "n-eff", "exact-tol"])
    def test_config_key_is_unknown(self, tmp_path, capsys, command, key):
        conf = tmp_path / "params.cfg"
        conf.write_text(f"{key}=3\n")
        assert cli.main([command, "--config", str(conf)]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestConfigFileKeys:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The argument of run_sweep and the arguments of dump_distribution."""
        seen = {}

        def fake_sweep(spec):
            seen["sweep"] = spec
            return SweepResult(rows=())

        def fake_dump(*args, **kwargs):
            seen["dist"] = args
            return []

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        monkeypatch.setattr(cli, "dump_distribution", fake_dump)
        return seen

    @pytest.mark.parametrize(
        "key,text,command,read,expected",
        CONFIG_FILE_KEYS,
        ids=[row[0] for row in CONFIG_FILE_KEYS],
    )
    def test_key_reaches_its_parameter(self, tmp_path, calls, key, text, command, read, expected):
        conf = tmp_path / "params.cfg"
        conf.write_text(f"{key} = {text}\n")
        assert cli.main([command, "--config", str(conf)]) == 0
        assert read(calls[command]) == expected
        assert cli.main([command]) == 0
        assert read(calls[command]) != expected  # not the built-in default

    def test_default_configuration_is_the_operating_point(self, calls):
        assert cli.main(["sweep"]) == 0
        assert cli.main(["dist"]) == 0
        assert calls["sweep"].base == calls["dist"][2] == operating_point()

    @pytest.mark.parametrize(
        "key",
        ["x", "x-min", "x-max", "x-step", "x-values", "methods", "which", "log-grid", "config", "out"],
    )
    def test_flag_only_options_are_not_keys(self, tmp_path, capsys, key):
        conf = tmp_path / "params.cfg"
        conf.write_text(f"{key}=1\n")
        assert cli.main(["sweep", "--config", str(conf)]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestCliDist:
    def test_rows_and_header(self, capsys):
        assert cli.main(["dist", "--which", "gamma-e-pdf", "--grid", "50"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "z,value,breakpoint"
        assert len(lines) == 1 + 52
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 2

    def test_grid_too_small(self, capsys):
        assert cli.main(["dist", "--which", "w-pdf", "--grid", "1"]) == 2

    def test_grid_over_the_cap_is_usage_error_before_it_is_built(self, capsys, monkeypatch):
        cap = cli.MAX_GRID_POINTS
        grids = []
        monkeypatch.setattr(
            cli, "dump_distribution", lambda which, grid, cfg, log_grid: grids.append(grid) or []
        )
        assert cli.main(["dist", "--grid", str(cap + 1)]) == 2
        assert capsys.readouterr().err == f"error: --grid must be <= {cap}, got {cap + 1}\n"
        assert grids == []
        assert cli.main(["dist", "--grid", str(cap)]) == 0
        assert grids == [cap]

    @pytest.mark.parametrize("args", ["--height 1e-200", "--height 1e155", "--region-side 1.5e154"])
    def test_overflowing_square_is_usage_error(self, capsys, args):
        assert cli.main(["dist", *args.split()]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_file_is_checked_before_any_point(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dump_distribution", None)  # computing would raise
        (tmp_path / "file").touch()
        for target in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv", tmp_path):
            assert cli.main(["dist", "--out", str(target)]) == 2
            assert capsys.readouterr().err.startswith("error: --out:")

    def test_failed_write_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def full(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
        assert cli.main(["dist", "--grid", "5", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: --out:")


# Corruptions of the library, each with the checks of the suite it must fail.
CORRUPTIONS = {
    "pas-floor-constant": (
        sop_mod, "sop_lower_bound_pas", lambda f: lambda: replace(f(), value=0.25),
        "_check_bound_constants", ["lower-bound-pas-constant", "lower-bound-pas-integral"]),
    "chebyshev-shifted": (
        sop_mod, "sop_chebyshev_batch",
        lambda f: lambda *a: [replace(est, value=est.value + 2e-3) for est in f(*a)],
        "_check_sop_agreement", ["chebyshev-vs-exact"]),
    "eve-pdf-scaled": (
        dist_mod, "pdf_snr_eve", lambda f: lambda z, c: 1.01 * f(z, c),
        "_check_distributions", ["eve-pdf-normalization", "eve-pdf-dual-route"]),
    # a pass over several configurations draws another seed than one alone
    "mc-shared-pass-differs": (
        mc_mod, "simulate_sops",
        lambda f: lambda cfgs, m, systems: f(cfgs, replace(m, seed=m.seed + (len(cfgs) > 1)), systems),
        "_check_determinism", ["mc-determinism", "sweep-csv-pointwise"]),
    # the Monte Carlo column simulates x value i alone, at the seed plus i
    "sweep-point-seeds": (
        sweep_mod, "_mc_columns",
        lambda f: lambda methods, spec: {
            m: [f(methods, replace(spec, x_values=(x,), mc=replace(spec.mc, seed=spec.mc.seed + i)))[m][0]
                for i, x in enumerate(spec.x_values)]
            for m in methods},
        "_check_determinism", ["sweep-csv-pointwise"]),
    "mc-pas-shifted": (
        mc_mod, "simulate_sops",
        lambda f: lambda cfgs, m, systems: tuple(
            tuple(replace(r, estimate=r.estimate + 0.05) if s == "pas" else r
                  for s, r in zip(systems, point))
            for point in f(cfgs, m, systems)),
        "_check_sop_agreement", ["mc-vs-chebyshev"]),
}


class TestCliValidate:
    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "run_checks", lambda level, seed: [CheckResult("x", True, "ok")]
        )
        assert cli.main(["validate", "--level", "fast"]) == 0
        assert "PASS x" in capsys.readouterr().out

    def test_exit_one_on_any_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "run_checks", lambda level, seed: [CheckResult("bad", False, "broken")]
        )
        assert cli.main(["validate"]) == 1
        assert "FAIL bad" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,env", [(["--seed", "-1"], None), ([], "-3"), (["--seed", str(2**64 - 950)], None)]
    )
    def test_out_of_range_seed_is_usage_error(self, capsys, monkeypatch, argv, env):
        monkeypatch.setattr(validation, "_check_bound_constants", None)  # no check may run
        if env is not None:
            monkeypatch.setenv("PINCH_SEED", env)
        assert cli.main(["validate", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be in")
        validation.check_seed(2**64 - 951)  # the largest seed whose derived seeds fit

    def test_fast_and_full_run_the_same_checks_in_order(self, full_checks):
        fast = validation.run_checks("fast", cli.DEFAULT_SEED)
        assert [r.name for r in fast] == [r.name for r in full_checks]

    def test_ordering_evaluates_each_point_once(self, monkeypatch, full_checks):
        calls = count_simulate_sops_calls(monkeypatch)
        (fast,) = validation._check_ordering(fast=True, seed=1)
        # the whole grid in one call, both systems on one draw at seed + 300
        ((cfgs, mc, systems),) = calls
        points = [(cfg.transmit_power, cfg.target_rate) for cfg in cfgs]
        assert len(points) == len(set(points)) == 7
        assert (mc.seed, systems) == (301, ("pas", "fpa"))
        assert "over 7 points" in fast.detail
        (full,) = [r for r in full_checks if r.name == "pas-beats-fpa-ordering"]
        assert "over 28 points" in full.detail

    def test_sop_agreement_draws_its_grid_once(self, monkeypatch, full_checks):
        calls = count_simulate_sops_calls(monkeypatch)
        results = validation._check_sop_agreement(fast=True, seed=1)
        ((cfgs, mc, systems),) = calls
        assert (len(cfgs), mc.seed, systems) == (12, 101, ("pas",))
        assert cfgs == tuple(validation._grid_configs(fast=True))
        assert [r.name for r in results if "12 points" in r.detail] == [r.name for r in results]
        full = [r for r in full_checks if r.name in ("mc-vs-chebyshev", "pas-floor-on-grid")]
        assert len(full) == 2 and all("54 points" in r.detail for r in full)

    def test_every_verdict_is_a_json_bool(self, full_checks):
        for results in (validation.run_checks("fast", 1), full_checks):
            assert [type(r.passed) for r in results] == [bool] * len(results)
            json.dumps([r.passed for r in results])

    @pytest.mark.parametrize(
        "module,attr,corrupt,check,failing", CORRUPTIONS.values(), ids=list(CORRUPTIONS)
    )
    def test_corrupted_implementation_detected(
        self, monkeypatch, module, attr, corrupt, check, failing
    ):
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        passed = {r.name: r.passed for r in getattr(validation, check)(fast=True, seed=1)}
        assert not any(passed[name] for name in failing)
