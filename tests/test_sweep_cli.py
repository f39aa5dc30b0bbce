import argparse
import csv
import functools
import inspect
import itertools
import json
import math
import os
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
from pinchsec.system import OPTIONS, operating_point, reference_config
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


VALIDATE_GOLDENS = {
    seed: Path(__file__).parent / "data" / name
    for seed, name in [
        (12345, "validate_golden.txt"),
        (7, "validate_golden_7.txt"),
        (8, "validate_golden_8.txt"),
        (101, "validate_golden_101.txt"),
    ]
}


class TestGoldenValidateBytes:
    """``validate --seed S``, pinned byte for byte at four seeds.

    Every check line, its verdict and its figures, and the summary line.
    The Monte Carlo checks draw from numpy's PCG64DXSM ``Generator.random``
    stream, which numpy may change between releases (NEP 19), as for the
    rate sweep's golden file.
    """

    @pytest.mark.parametrize("seed", VALIDATE_GOLDENS)
    def test_bytes_match_golden_file(self, seed, capsys):
        assert cli.main(["validate", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == VALIDATE_GOLDENS[seed].read_text()


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
# running it
CHECKS_MODULES_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pinchsec.validation import run_checks
run_checks(seed=1)
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
        ["validate", "--seed", "7"],
    ]

    def test_commands_match_without_scipy(self, capsys):
        blocked = run_fresh(BLOCKED_SCIPY_RUN, json.dumps(self.COMMANDS))
        assert len(blocked) == len(self.COMMANDS)
        for argv, (code, out) in zip(self.COMMANDS, blocked):
            assert (code, out) == (cli.main(argv), capsys.readouterr().out)
            # validate exits 1 on a failed check, a verdict rather than an
            # error: the statistical checks fail at some seeds
            assert code in ((0, 1) if argv[0] == "validate" else (0,))

    def test_cli_import_and_analytic_sweep_load_no_scipy(self):
        assert run_fresh(SCIPY_MODULES_RUN) == [[], []]


class TestChecksWithoutScipy:
    """The check suite runs on numpy alone.

    Each sampler check compares its statistic with its law's critical
    value at its designed rate, a constant pinned here against scipy, so
    its verdict is scipy's p-value rule; its integrals take the exact
    SOP's fixed rule, not scipy.integrate.
    """

    SEEDS = (12345, 7, 8, 101)
    # seeds in 1-200 where correct code fails the KS check (36) and the
    # chi-square check (57)
    FAILING_SEEDS = (36, 57)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ks_matches_scipy_kstest(self, seed, cfg10):
        samples = mc_mod.sample_offset_sq(cfg10, McConfig(10_000, seed + 11))

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg10)

        assert validation._ks_test(samples.copy(), cdf) == stats.kstest(samples, cdf).statistic

    # each sampler check's critical value, and scipy's at its designed rate
    CRITICAL = {
        "offset-sampler-ks": ("_KS_CRITICAL", special.kolmogi),
        "eve-sampler-chi2": ("_CHI2_CRITICAL", lambda rate: stats.chi2.isf(rate, 199)),
    }
    # scipy's p-value of each check's statistic: the asymptotic Kolmogorov
    # law of sqrt(n) * D, which kstest(method="asymp") reads, and chi2(199)
    PVALUE = {
        "offset-sampler-ks": special.kolmogorov,
        "eve-sampler-chi2": lambda x: stats.chi2.sf(x, 199),
    }

    @pytest.mark.parametrize("name", list(CRITICAL))
    def test_critical_values_are_scipy_at_the_designed_rates(self, name):
        attr, isf = self.CRITICAL[name]
        expected = isf(validation.STATISTICAL_CHECKS[name])
        assert getattr(validation, attr) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @staticmethod
    @functools.cache
    def scipy_statistics(seed: int) -> tuple:
        """scipy's routes on the check's sample: kstest on the offsets, and
        chisquare on np.histogram counts of a second draw through
        sample_snr_eve, against the bins' masses scaled to the counts' sum."""
        cfg = reference_config()
        mc = McConfig(1_000_000, seed + 11)

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg)

        res = stats.kstest(mc_mod.sample_offset_sq(cfg, mc), cdf, method="asymp")
        edges = np.linspace(*dist_mod.snr_eve_support(cfg), 201)
        observed, _ = np.histogram(mc_mod.sample_snr_eve(cfg, mc), edges)
        masses = -np.diff(cdf(cfg.effective_snr / edges - cfg.height**2))
        statistic = stats.chisquare(observed, masses * (observed.sum() / masses.sum())).statistic
        return res, statistic, validation._check_sampler_fit(seed=seed)

    @pytest.mark.parametrize("seed", SEEDS + FAILING_SEEDS)
    def test_ks_verdict_and_text_are_scipy_kstest(self, seed):
        res, _, (_, ks, _) = self.scipy_statistics(seed)
        assert ks.passed == (res.pvalue > 0.01)
        if seed == 36:
            assert not ks.passed
        d, n = res.statistic, 1_000_000
        assert ks.detail == f"D={d:.4e} sqrt(n)D={math.sqrt(n) * d:.4f} critical=1.6276 n={n}"

    @pytest.mark.parametrize("seed", SEEDS + FAILING_SEEDS)
    def test_chi2_verdict_and_text_are_scipy_chisquare(self, seed):
        _, statistic, (_, _, chi2) = self.scipy_statistics(seed)
        assert chi2.passed == (stats.chi2.sf(statistic, 199) > 0.01)
        if seed == 57:
            assert not chi2.passed
        assert chi2.detail == f"chi2={statistic:.1f} dof=199 critical=248.3 n=1000000"

    @staticmethod
    def d_with_scaled(x: float, n: int = 1_000_000) -> float:
        """The D whose sqrt(n) * D is the float ``x``."""
        if not math.isfinite(x):
            return x
        d = x / math.sqrt(n)
        while math.sqrt(n) * d < x:
            d = math.nextafter(d, math.inf)
        while math.sqrt(n) * d > x:
            d = math.nextafter(d, -math.inf)
        assert math.sqrt(n) * d == x
        return d

    @pytest.mark.parametrize(
        "statistic, passes",
        [
            (lambda c: c, False),
            (lambda c: math.nextafter(c, 0.0), True),
            (lambda c: math.nextafter(c, math.inf), False),
            (lambda c: 0.0, True),
            (lambda c: 1e-300, True),
            (lambda c: math.inf, False),
            (lambda c: math.nan, False),
        ],
        ids=["at", "one-float-below", "one-float-above", "zero", "tiny", "inf", "nan"],
    )
    @pytest.mark.parametrize("name", list(CRITICAL))
    def test_a_statistic_at_the_critical_value_fails(self, monkeypatch, name, statistic, passes):
        x = statistic(getattr(validation, self.CRITICAL[name][0]))
        if name == "offset-sampler-ks":
            d = self.d_with_scaled(x)
            monkeypatch.setattr(validation, "_ks_test", lambda samples, cdf: samples.sort() or d)
        else:
            # the chi-square statistic is the check's one float() call
            monkeypatch.setattr(validation, "float", lambda _: x, raising=False)
        result = {r.name: r for r in validation._check_sampler_fit(seed=1)}[name]
        assert result.passed is passes
        # away from the critical value, the verdict is scipy's p-value rule;
        # a nan statistic fails as its nan p-value does
        if not math.isclose(x, getattr(validation, self.CRITICAL[name][0])):
            assert passes == (self.PVALUE[name](x) > validation.STATISTICAL_CHECKS[name])

    def test_checks_load_no_scipy(self):
        assert run_fresh(CHECKS_MODULES_RUN) == []


CHUNK = mc_mod._CHUNK_TRIALS
BLOCK = validation._KS_BLOCK


def chunked_ks(samples: np.ndarray, cdf) -> float:
    """The brute-force KS step: ``cdf`` at every sorted sample, chunk by chunk."""
    samples.sort()
    n = samples.size
    d = 0.0
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        f = cdf(samples[lo:hi])
        ranks = np.arange(lo, hi + 1) / n
        d = max(d, float((ranks[1:] - f).max()), float((f - ranks[:-1]).max()))
    return d


class TestChunkedKs:
    """The KS step evaluates the CDF only in blocks that can hold the statistic.

    It bounds each block of sorted samples by the CDF at the block ends,
    and evaluates in full only the blocks whose bound reaches the exact
    terms at those ends. D is the same float as the brute-force
    walk over every sample (:func:`chunked_ks`) and as ``kstest``, and
    the step makes no temporary as long as the sample.
    """

    @staticmethod
    def both(samples, cdf):
        return validation._ks_test(samples.copy(), cdf), chunked_ks(samples.copy(), cdf)

    @pytest.mark.parametrize("seed", TestChecksWithoutScipy.SEEDS)
    def test_matches_the_brute_force_walk_at_the_full_level(self, seed):
        cfg = reference_config()
        # the sample the offset-sampler-ks check draws
        samples = mc_mod.sample_offset_sq(cfg, McConfig(1_000_000, seed + 11))
        evaluated = []

        def cdf(t):
            evaluated.append(t.size)
            return dist_mod.cdf_offset_sq(t, cfg)

        assert validation._ks_test(samples.copy(), cdf) == chunked_ks(samples, cdf)
        # the block ends and the candidate blocks, then the reference's every sample
        assert sum(evaluated) - samples.size <= 0.05 * samples.size

    @pytest.mark.parametrize(
        "n",
        [1, 5, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 1_000_000],
    )
    def test_matches_scipy_kstest_across_chunk_boundaries(self, n, cfg10):
        samples = mc_mod.sample_offset_sq(cfg10, McConfig(n, 12356))

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg10)

        ours, reference = self.both(samples, cdf)
        assert ours == reference == stats.kstest(samples, cdf).statistic

    def test_matches_on_a_sample_with_ties(self, cfg10):
        # offsets rounded to whole m^2: runs of equal samples across block ends
        samples = np.round(mc_mod.sample_offset_sq(cfg10, McConfig(3 * CHUNK + 5, 12357)))
        assert np.unique(samples).size < samples.size // BLOCK

        def cdf(t):
            return dist_mod.cdf_offset_sq(t, cfg10)

        ours, reference = self.both(samples, cdf)
        assert ours == reference == stats.kstest(samples, cdf).statistic

    @pytest.mark.parametrize(
        "k", [0, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, 3 * CHUNK + 4]
    )
    @pytest.mark.parametrize("shift", [-0.3, 0.3])
    def test_finds_a_deviation_planted_at_a_chunk_edge(self, k, shift):
        # every other point sits 0.5/n from its ranks; the planted one 0.8/n
        n = 3 * CHUNK + 5
        samples = (np.arange(n) + 0.5) / n
        samples[k] += shift / n
        ours, reference = self.both(samples, lambda t: t)
        assert ours == reference == stats.kstest(samples, lambda t: t).statistic
        assert ours == pytest.approx(0.8 / n, rel=1e-9)

    def test_finds_a_term_at_a_block_start_that_only_its_first_rank_bounds(self):
        # in units of 1/n, F is i + 0.5 at sample i, but 39 above its rank at
        # the last sample of block 2, flat at 40 above block 3's first rank
        # a over block 3, and 39.5 above its rank from the last sample of
        # block 5 on. The statistic is block 3's first term, 40; the block
        # ends reach 39.5, and block 3's other bound, BLOCK - 39, is below
        # that, so only its first rank a keeps it a candidate
        n = 8 * BLOCK
        i = np.arange(n, dtype=float)
        f = i + 0.5
        a = 3 * BLOCK
        f[a - 1] = a - 1 + 39.0
        f[a : a + BLOCK] = a + 40.0
        f[6 * BLOCK - 1 :] = np.maximum(f[6 * BLOCK - 1 :], 6 * BLOCK - 1 + 39.5)
        assert BLOCK - 39.0 < 39.5 and np.all(np.diff(f) >= 0.0)

        def cdf(t):
            return np.interp(t, i, f / n)

        ours, reference = self.both(i, cdf)
        assert ours == reference
        assert ours == pytest.approx(40.0 / n, rel=1e-12)

    def test_a_cdf_that_falls_between_block_ends_is_evaluated_everywhere(self):
        # the CDF rises by 0.3 inside block 5 and falls back at its end, which
        # no block-end value shows; a spike at the end of block 1 makes the
        # lower bound 0.2, so block 5's bound would leave it out, and the
        # fall after that spike is what makes every block a candidate
        n = 3 * CHUNK + 5
        samples = (np.arange(n) + 0.5) / n
        lifted = (samples >= samples[5 * BLOCK]) & (samples < samples[6 * BLOCK - 1])
        spike = samples[2 * BLOCK - 1]
        evaluated = []

        def cdf(t):
            evaluated.append(t.size)
            return t + 0.2 * (t == spike) + 0.3 * np.interp(t, samples, lifted)

        ours, reference = self.both(samples, cdf)
        assert ours == reference
        assert ours == pytest.approx(0.3, abs=1e-4)
        blocks = -(-n // BLOCK)
        assert sum(evaluated) == (blocks + 1) + n + n  # ends, every block, the reference

    @pytest.mark.parametrize("d", [0.3, 10.0, 1000.0])
    def test_offset_cdf_never_falls_by_the_slack_along_a_sorted_sample(self, d):
        # the precondition that makes the block bounds exact; on these draws
        # the CDF never fell, and on the dense grid by at most 5.6e-16
        cfg = make_config(region_side=d)
        samples = np.sort(mc_mod.sample_offset_sq(cfg, McConfig(1_000_000, 5)))
        grid = np.linspace(0.0, dist_mod.offset_sq_support(cfg)[1], 1_000_001)
        for t in (samples, grid):
            assert np.diff(dist_mod.cdf_offset_sq(t, cfg)).min() >= -validation._KS_SLACK

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


class TestSharedSamplerDraw:
    """The floor check and both sampler checks read one offset draw.

    The chi-square's SNRs are the offsets the KS step sorted, mapped in
    place, and its bins are counted by bisection of the reversed view.
    The reference is the former route: a second draw through
    ``sample_snr_eve``, sorted, and ``np.histogram``.
    """

    def test_one_draw_at_seed_plus_11(self, monkeypatch):
        draws = []
        sample = mc_mod.sample_offset_sq

        def recorded(cfg, mc):
            draws.append((cfg, mc))
            return sample(cfg, mc)

        monkeypatch.setattr(mc_mod, "sample_offset_sq", recorded)
        monkeypatch.setattr(mc_mod, "sample_snr_eve", None)  # no second draw
        results = validation._check_sampler_fit(seed=3)
        names = ["lower-bound-event-mc", "offset-sampler-ks", "eve-sampler-chi2"]
        assert [r.name for r in results] == names
        assert draws == [(reference_config(), McConfig(1_000_000, 3 + 11))]

    @pytest.mark.parametrize("seed", TestChecksWithoutScipy.SEEDS)
    def test_mapped_sorted_sample_and_counts_are_the_former_route(self, seed):
        cfg = reference_config()
        mc = McConfig(1_000_000, seed + 11)
        offsets = mc_mod.sample_offset_sq(cfg, mc)
        offsets.sort()
        snr = mc_mod._snr_eve_of_offset(offsets, cfg)[::-1]
        former = np.sort(mc_mod.sample_snr_eve(cfg, mc))
        assert snr.tobytes() == former.tobytes()
        lo, hi = dist_mod.snr_eve_support(cfg)
        edges = np.linspace(lo, hi, 201)
        counts = np.histogram(former, bins=edges)[0]
        assert np.array_equal(validation._bin_counts(snr, edges), counts)
        # bins between a subset of the edges hold sums of the former bins
        starts = [0, 3, 10, 150]
        merged = validation._bin_counts(snr, edges[starts + [200]])
        assert np.array_equal(merged, np.add.reduceat(counts, starts))

    def test_bin_counts_at_edges_and_outside_them(self):
        # samples on every edge, one float either side of it, and beyond both ends
        edges = np.linspace(1.0, 3.0, 9)
        near = [np.nextafter(edges, d) for d in (-np.inf, np.inf)]
        sample = np.sort(np.concatenate([edges, *near, [-5.0, 0.0, 4.0, 1e300]]))
        expected = np.histogram(sample, bins=edges)[0]
        assert np.array_equal(validation._bin_counts(sample, edges), expected)
        # three below the first edge and three above the last are in no bin
        assert expected.sum() == sample.size - 6


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

    @pytest.mark.parametrize("values", ["-10,0,10", "-.5,0", "-10"])
    def test_x_values_may_start_negative(self, capsys, values):
        # argparse would take -10,0,10 for an option, not the value of --x-values
        argv = ["sweep", "--methods", "chebyshev"]
        assert cli.main([*argv, f"--x-values={values}"]) == 0
        joined = capsys.readouterr().out
        assert cli.main([*argv, "--x-values", values]) == 0
        assert capsys.readouterr().out == joined
        first = joined.split()[1].split(",")[0]
        assert float(first) == float(values.split(",")[0])

    @pytest.mark.parametrize("flag,values", [("--x-val", "-10,0,10"), ("--x-v", "-10,0")])
    def test_abbreviated_x_values_may_start_negative(self, capsys, flag, values):
        # argparse reads --x-v and longer as --x-values; --x- is ambiguous
        argv = ["sweep", "--methods", "lower-pas"]
        assert cli.main([*argv, f"--x-values={values}"]) == 0
        joined = capsys.readouterr().out
        assert cli.main([*argv, flag, values]) == 0
        assert capsys.readouterr().out == joined

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
    """--workers and --n-eff changed no output, --exact-tol could only turn
    a result into an error, and validate's --level chose a level the
    suite no longer has: none is an option any more."""

    @pytest.mark.parametrize("command", ["sweep", "dist"])
    @pytest.mark.parametrize("flag", ["--workers 3", "--n-eff 1.4", "--exact-tol 1e-6"])
    def test_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *flag.split()])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_validate_level_exits_2(self, capsys, monkeypatch, level):
        monkeypatch.setattr(validation, "run_checks", None)  # no check may run
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--level", level])
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


def _at_first(cfgs, shared, field):
    """Each configuration with ``field`` of the first one that agrees with it on ``shared``."""
    keys = [tuple(getattr(c, name) for name in shared) for c in cfgs]
    first = {}
    for key, c in zip(keys, cfgs):
        first.setdefault(key, getattr(c, field))
    return [replace(c, **{field: first[key]}) for key, c in zip(keys, cfgs)]


# Corruptions of the library, each with the checks of the suite it must fail.
CORRUPTIONS = {
    "pas-floor-constant": (
        sop_mod, "sop_lower_bound_pas", lambda f: lambda: replace(f(), value=0.25),
        "_check_bound_constants", ["lower-bound-pas-constant", "lower-bound-pas-integral"]),
    "chebyshev-shifted": (
        sop_mod, "sop_chebyshev_batch",
        lambda f: lambda *a: [replace(est, value=est.value + 2e-3) for est in f(*a)],
        "_check_sop_agreement", ["chebyshev-vs-exact"]),
    "exact-shifted": (
        sop_mod, "sop_exact", lambda f: lambda c: replace(f(c), value=f(c).value + 2e-3),
        "_check_sop_agreement", ["chebyshev-vs-exact"]),
    "eve-pdf-scaled": (
        dist_mod, "pdf_snr_eve", lambda f: lambda z, c: 1.01 * f(z, c),
        "_check_distributions", ["eve-pdf-normalization", "eve-pdf-dual-route"]),
    # a pass over several configurations draws another seed than one alone
    "mc-shared-pass-differs": (
        mc_mod, "simulate_sops",
        lambda f: lambda cfgs, m, systems: f(cfgs, replace(m, seed=m.seed + (len(cfgs) > 1)), systems),
        "_check_determinism", ["mc-determinism", "sweep-csv-pointwise"]),
    # a shared pass counts each configuration at the rate of the first one
    # that shares its SNRs
    "mc-group-first-rate": (
        mc_mod, "simulate_sops",
        lambda f: lambda cfgs, m, systems: f(
            _at_first(tuple(cfgs), ("region_side", "height", "effective_snr"), "target_rate"), m, systems),
        "_check_determinism", ["mc-determinism"]),
    # a shared pass divides at the power of the first configuration that
    # shares its denominators
    "mc-geometry-first-power": (
        mc_mod, "simulate_sops",
        lambda f: lambda cfgs, m, systems: f(
            _at_first(tuple(cfgs), ("region_side", "height"), "transmit_power"), m, systems),
        "_check_determinism", ["mc-determinism"]),
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
    # both checks test the one offset draw, the chi-square after the SNR map
    "offset-sampler-scaled": (
        mc_mod, "sample_offset_sq", lambda f: lambda c, m: 1.1 * f(c, m),
        "_check_sampler_fit", ["offset-sampler-ks", "eve-sampler-chi2"]),
    # offsets 10% too large make the floor event rarer; the floor check
    # reads the sampler checks' draw, so it sees them
    "floor-offsets-scaled": (
        mc_mod, "_offset_sq",
        lambda f: lambda u, side, out, scratch: np.multiply(f(u, side, out, scratch), 1.1, out=out),
        "_check_sampler_fit", ["lower-bound-event-mc"]),
    # 3.36 sigma at seed 1, where the former two 4e5-trial estimates read
    # 1.55 and 1.62 sigma
    "floor-estimate-shifted": (
        mc_mod, "_lower_bound_event_of_offset",
        lambda f: lambda *a: (lambda r: replace(r, estimate=r.estimate + 1e-3))(f(*a)),
        "_check_sampler_fit", ["lower-bound-event-mc"]),
    # scaled by 1.002, the SNR samples still pass (chi2 = 193.0 against 248.3
    # at seed 1)
    "eve-sampler-scaled": (
        mc_mod, "_snr_eve_of_offset", lambda f: lambda w, c: 1.1 * f(w, c),
        "_check_sampler_fit", ["eve-sampler-chi2"]),
    # the floor check integrates the library's own offset CDF at the floor's
    # limit, where only its near branch is read: a 1e-6 error shows as 2.2e-7
    "near-branch-scaled": (
        dist_mod, "_near", lambda f: lambda t, d, out=None: np.multiply(f(t, d), 1.0 + 1e-6, out=out),
        "_check_bound_constants", ["lower-bound-pas-integral"]),
    # no sample in any bin: fails without a 0/0 (an error under the test filters)
    "eve-sampler-above-support": (
        mc_mod, "_snr_eve_of_offset", lambda f: lambda w, c: f(w, c) + dist_mod.snr_eve_support(c)[1],
        "_check_sampler_fit", ["eve-sampler-chi2"]),
}


class TestCliValidate:
    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "run_checks", lambda seed: [CheckResult("x", True, "ok")]
        )
        assert cli.main(["validate"]) == 0
        assert "PASS x" in capsys.readouterr().out

    def test_exit_one_on_any_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "run_checks", lambda seed: [CheckResult("bad", False, "broken")]
        )
        assert cli.main(["validate"]) == 1
        assert "FAIL bad" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,env",
        [(["--seed", "-1"], None), ([], "-3"), (["--seed", str(2**64 - validation.MAX_SEED_OFFSET)], None)],
    )
    def test_out_of_range_seed_is_usage_error(self, capsys, monkeypatch, argv, env):
        monkeypatch.setattr(validation, "_check_bound_constants", None)  # no check may run
        if env is not None:
            monkeypatch.setenv("PINCH_SEED", env)
        assert cli.main(["validate", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be in")
        # the largest seed whose derived seeds fit
        validation.check_seed(2**64 - validation.MAX_SEED_OFFSET - 1)

    @pytest.mark.parametrize("level", ["fast", "Full", ""])
    def test_any_level_but_full_raises(self, monkeypatch, level):
        monkeypatch.setattr(validation, "_check_bound_constants", None)  # no check may run
        with pytest.raises(ValueError, match="'full', the one level"):
            validation.run_checks(level, 1)

    def test_ordering_evaluates_each_point_once(self, monkeypatch):
        calls = count_simulate_sops_calls(monkeypatch)
        (result,) = validation._check_ordering(seed=1)
        # the whole grid in one call, both systems on one draw at seed + 300
        ((cfgs, mc, systems),) = calls
        points = [(cfg.transmit_power, cfg.target_rate) for cfg in cfgs]
        assert len(points) == len(set(points)) == 28
        assert (mc.seed, systems) == (301, ("pas", "fpa"))
        assert "over 28 points" in result.detail

    def test_sop_agreement_draws_its_grid_once(self, monkeypatch):
        calls = count_simulate_sops_calls(monkeypatch)
        results = validation._check_sop_agreement(seed=1)
        ((cfgs, mc, systems),) = calls
        assert (len(cfgs), mc.seed, systems) == (54, 101, ("pas",))
        assert cfgs == tuple(validation._grid_configs())
        assert [r.name for r in results if "54 points" in r.detail] == [r.name for r in results]

    def test_determinism_draws_cross_chunk_boundaries(self, monkeypatch):
        calls = count_simulate_sops_calls(monkeypatch)
        assert all(r.passed for r in validation._check_determinism(seed=1))
        # the shared pass, the sweep and its three one-point sweeps, each over
        # two full chunks and a ragged one
        chunk = mc_mod._CHUNK_TRIALS
        assert len(calls) == 5
        assert all(mc.trials > 2 * chunk and mc.trials % chunk for _, mc, _ in calls)
        # the shared pass holds a group of two configurations differing only in rate
        geometry = [(c.region_side, c.height, c.effective_snr) for c in calls[0][0]]
        assert len(set(geometry)) < len(geometry)

    def test_every_verdict_is_a_json_bool(self, full_checks):
        assert [type(r.passed) for r in full_checks] == [bool] * len(full_checks)
        json.dumps([r.passed for r in full_checks])

    @pytest.mark.parametrize(
        "module,attr,corrupt,check,failing", CORRUPTIONS.values(), ids=list(CORRUPTIONS)
    )
    def test_corrupted_implementation_detected(
        self, monkeypatch, module, attr, corrupt, check, failing
    ):
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        run = getattr(validation, check)
        # a group that reads no seed takes none
        results = run(seed=1) if "seed" in inspect.signature(run).parameters else run()
        passed = {r.name: r.passed for r in results}
        assert not any(passed[name] for name in failing)

    @staticmethod
    def chi2_failure_under_law(monkeypatch, cdf) -> str:
        """The failing chi-square detail under the offset law ``cdf``, no sample mapped."""
        monkeypatch.setattr(dist_mod, "cdf_offset_sq", cdf)
        monkeypatch.setattr(mc_mod, "_snr_eve_of_offset", None)  # nothing may be mapped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (_, _, chi2) = validation._check_sampler_fit(seed=1)
        assert chi2.name == "eve-sampler-chi2" and not chi2.passed
        return chi2.detail

    def test_a_law_with_no_bins_fails_before_the_draw(self, monkeypatch):
        # no bin holds any expected mass
        detail = self.chi2_failure_under_law(monkeypatch, lambda t, c: np.zeros(np.shape(t)))
        assert detail == "200 of 200 bins expect under 5 counts, no sample mapped n=1000000"

    def test_a_law_with_some_sparse_bins_fails_before_the_draw(self, monkeypatch):
        # no mass above D^2: the lowest-SNR bins, offsets in [D^2, 5D^2/4],
        # expect nothing, where a sparse-bin merge would have tested the rest
        cdf = dist_mod.cdf_offset_sq
        d2 = reference_config().region_side ** 2
        detail = self.chi2_failure_under_law(
            monkeypatch, lambda t, c: np.minimum(cdf(t, c) / cdf(d2, c), 1.0)
        )
        assert detail == "3 of 200 bins expect under 5 counts, no sample mapped n=1000000"

    def test_samples_above_the_support_give_the_law_a_finite_statistic(self, monkeypatch):
        module, attr, corrupt, _, _ = CORRUPTIONS["eve-sampler-above-support"]
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        (_, _, chi2) = validation._check_sampler_fit(seed=1)
        statistic = float(chi2.detail.split()[0].removeprefix("chi2="))
        assert not chi2.passed and statistic > validation._CHI2_CRITICAL
        # every bin empty: the statistic is the expected counts' sum, n
        assert statistic == pytest.approx(1e6)


def _floor_check(results):
    (floor,) = [r for r in results if r.name == "lower-bound-event-mc"]
    return floor


class TestFloorEventCheck:
    """``lower-bound-event-mc`` averages P(y1^2 >= w | w) over offset samples."""

    FLOOR = (2.0 * math.pi - 1.0) / 24.0

    def test_conditional_mean_and_variance_are_the_closed_forms(self):
        cfg = reference_config()
        d = cfg.region_side
        first, second = (
            float(sop_mod._panel_quadrature(
                lambda w: (1.0 - 2.0 * np.sqrt(w) / d) ** k * dist_mod.pdf_offset_sq(w, cfg),
                (0.0, d * d / 4.0),
            )[0])
            for k in (1, 2)
        )
        assert abs(first - self.FLOOR) <= 1e-12
        variance = math.pi / 24.0 - 1.0 / 60.0 - self.FLOOR**2
        assert abs(second - self.FLOOR**2 - variance) <= 1e-12

    def test_standard_error_is_no_larger_than_the_event_counts(self, full_checks):
        # the detection threshold must not grow: sigma_g at the check's trials
        # against the indicator's binomial sigma at its former 1e6
        variance = math.pi / 24.0 - 1.0 / 60.0 - self.FLOOR**2
        trials = int(_floor_check(full_checks).detail.rsplit("trials=", 1)[1])
        assert math.sqrt(variance / trials) <= math.sqrt(self.FLOOR * (1.0 - self.FLOOR) / 1_000_000)

    def test_one_offset_draw_gives_the_simulated_estimate(self, monkeypatch):
        draws, estimates = [], []
        sample, of_offset = mc_mod.sample_offset_sq, mc_mod._lower_bound_event_of_offset
        simulate = mc_mod.simulate_lower_bound_event

        def drawn(cfg, mc):
            draws.append((cfg, mc))
            return sample(cfg, mc)

        def estimated(w, cfg, mc):
            estimates.append(of_offset(w, cfg, mc))
            return estimates[-1]

        monkeypatch.setattr(mc_mod, "sample_offset_sq", drawn)
        monkeypatch.setattr(mc_mod, "_lower_bound_event_of_offset", estimated)
        monkeypatch.setattr(mc_mod, "simulate_lower_bound_event", None)  # no draw of its own
        floor = _floor_check(validation.run_checks(seed=5))
        assert floor.passed
        # the sampler checks' one draw, and the floor estimated from it
        cfg, mc = reference_config(), McConfig(1_000_000, 5 + 11)
        assert draws == [(cfg, mc)]
        assert estimates == [simulate(cfg, mc)]
        # the sums are exact integers: sorting the sample, as the KS step
        # does, moves no bit
        w = sample(cfg, mc)
        w.sort()
        assert of_offset(w, cfg, mc) == estimates[0]
        # the results, not only their rounded text, keep their bits
        monkeypatch.setattr(mc_mod, "_CHUNK_TRIALS", 1 << 10)
        again = _floor_check(validation._check_sampler_fit(seed=5))
        assert again.detail == floor.detail
        assert estimates[1] == estimates[0]

    def test_estimate_from_the_sample_leaves_it_and_takes_chunk_sized_scratch(self):
        cfg, mc = reference_config(), McConfig(1_000_000, 12356)
        samples = mc_mod.sample_offset_sq(cfg, mc)
        drawn = samples.copy()
        tracemalloc.start()
        try:
            mc_mod._lower_bound_event_of_offset(samples, cfg, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(samples, drawn)
        # g, g^2 and the int64 ticks, each one chunk long and aligned
        assert peak < 4 * 8 * mc_mod._CHUNK_TRIALS
