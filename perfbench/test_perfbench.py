"""Self-test of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pinchsec import sop as sop_mod  # noqa: E402
from pinchsec.sop import Method, SopEstimate  # noqa: E402


def _small(workload: str, seed: int = 5) -> list:
    """The first curve of the workload's input set, with fewer points."""
    spec = workloads.generate(workload, seed)[0]
    return [dataclasses.replace(spec, x_values=spec.x_values[:3])]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_curve_inputs_cover_the_parameter_box():
    sides = [s.base.region_side for s in workloads.generate("analytic-curves", 3)]
    assert len(sides) == 64
    assert all(5.0 <= d <= 100.0 for d in sides)
    assert min(sides) < 5.0 * 2.2 and max(sides) > 100.0 / 2.2


@pytest.mark.parametrize(
    "workload, trace",
    [(w, 0) for w in workloads.WORKLOADS] + [("mc-curves", 1), ("validate-full", 1)],
)
def test_every_named_metric_is_emitted_with_a_unit(workload, trace, monkeypatch, capsys, tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "ANALYTIC_GRID", (2, 1, 1))
    monkeypatch.setattr(workloads, "MC_GRID", (1, 1, 1))
    monkeypatch.setattr(workloads, "MC_TRIALS", 100_000)
    monkeypatch.setattr(workloads, "VALIDATE_SEEDS", 1)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    named = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def _exact_returning_zero(cfg, tol=1e-8):
    return SopEstimate(0.0, Method.EXACT, 0)


@pytest.mark.parametrize("workload", ["analytic-curves", "mc-curves"])
def test_check_flags_a_wrong_exact_estimate(workload):
    item = _small(workload)[0]
    if workload == "mc-curves":
        item = dataclasses.replace(item, mc=dataclasses.replace(item.mc, trials=100_000))
    good = workloads.check(workload, item, workloads.run_op(workload, item))
    assert not [f for f in good.failures if f.hard or f.kind == "mc-vs-exact"]

    with tracing.patched(sop_mod, "sop_exact", _exact_returning_zero):
        result = workloads.run_op(workload, item)
        bad = workloads.check(workload, item, result)
    kinds = {f.kind for f in bad.failures}
    if workload == "analytic-curves":
        assert "below-pas-floor" in kinds
        assert any(f.hard for f in bad.failures)
    else:
        assert "mc-vs-exact" in kinds
    assert sop_mod.sop_exact is not _exact_returning_zero


def test_chebyshev_misses_at_large_d_over_h_are_tolerance_misses_not_failures():
    spec = dataclasses.replace(
        workloads.generate("analytic-curves", 5)[0],
        base=workloads.config(85.8, 1.09),
        x_values=(0.0, 20.0, 40.0),
    )
    verdict = workloads.check("analytic-curves", spec, workloads.run_op("analytic-curves", spec))
    assert {f.kind for f in verdict.failures} == {"chebyshev-vs-exact"}
    assert not any(f.hard for f in verdict.failures)
    outcome = run.Outcome(verdict.attempted, verdict.failures, "", 0)
    assert run.rates(outcome)["error_rate"][0] == 0.0
    assert run.rates(outcome)["tolerance_miss_rate"][0] > 0.0


def test_judge_reports_hard_failures_and_nondeterminism():
    inputs = _small("analytic-curves")
    with tracing.patched(sop_mod, "sop_exact", _exact_returning_zero):
        loop = run.closed_loop(workloads, "analytic-curves", inputs, passes=1)
    outcome = run.judge(workloads, "analytic-curves", inputs, loop)
    assert outcome.attempted == 9
    assert any(f.hard for f in outcome.failures)

    loop = run.closed_loop(workloads, "analytic-curves", inputs, passes=2)
    index, result, _ = loop.ops[1]
    loop.ops[1] = (index, dataclasses.replace(result, rows=result.rows[1:]), None)
    kinds = [f.kind for f in run.judge(workloads, "analytic-curves", inputs, loop).failures]
    assert "nondeterministic" in kinds


def test_traced_run_records_spans_and_restores_every_attribute():
    originals = [getattr(module, attr) for module, attr, _ in tracing.TARGETS]
    inputs = _small("analytic-curves") + _small("mc-curves")
    inputs[1] = dataclasses.replace(inputs[1], mc=dataclasses.replace(inputs[1].mc, trials=300_000))
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            for item, workload in zip(inputs, ("analytic-curves", "mc-curves")):
                workloads.run_op(workload, item)
            raise RuntimeError("leave the traced block early")
    assert [getattr(module, attr) for module, attr, _ in tracing.TARGETS] == originals
    assert tracer.calls["sweep.run_sweep"] == 2
    assert tracer.calls["sop.sop_exact"] == 3
    assert tracer.calls["system.snr_eve_pinching"] >= 3
    spans = {span[0]: span for span in tracer.spans}
    for span_id, name, start, end, parent, _ in tracer.spans:
        assert start <= end
        if name != "sweep.run_sweep":
            assert parent in spans
    for name in tracing.SPAN_NAMES:
        assert 0.0 <= tracer.self_s[name] <= tracer.total_s[name] + 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_but_at_least_p75():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([1.0, 2.0, 3.0]) == (100.0, 3.0)
    # too few samples for ten beyond: the 75th percentile, not one below the median
    assert run.tail([float(i) for i in range(20)]) == (75.0, 14.0)
