"""Benchmark of pinchsec: SOP curves, Monte Carlo curves and the check suite.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytic-curves --seed 7 --seconds 25 --trace 0

Workloads are described in ``workloads.py``. The program is imported
from ``src/`` of the checkout; there is nothing to build.

With ``--trace 0`` the run measures, with no wrappers installed:

- ``setup_s``: CPU time (user + system) of a fresh interpreter that
  imports ``pinchsec.cli``, builds its parser and generates the workload
  inputs, in seconds at a nominal host speed: each interpreter's time is
  divided by that of a reference interpreter started just before it,
  which imports only standard-library modules, and multiplied by
  ``NOMINAL_REFERENCE_S``. The median of ``SETUP_REPS`` interpreters is
  reported, and the raw median as ``setup_cpu_raw_s``;
- ``op_cpu_p50_cal`` and ``op_cpu_tail_cal``: CPU time of the process
  for one operation (one ``run_sweep`` curve, or one ``run_checks``
  pass), in units of a fixed calibration kernel timed just before and
  after it (``calibration_seconds``). CPU time leaves out the time the
  process waits for a processor, which on a shared host is most of the
  run-to-run spread of wall time; the calibration cancels changes of
  the host's speed, which change code and kernel alike. The raw wall
  times in ms are reported beside it. The median and tail are over
  every timed operation of the run. The tail is the highest percentile
  with at least ten samples beyond it, and never below the 75th
  percentile: a run with fewer than 40 operations (``mc-curves`` times
  24-36, ``validate-full`` 16) has fewer than ten beyond it. The
  report states that percentile and the sample count;
- ``peak_rss_mb``: peak resident memory of the process.

The report also prints ``pass_cpu_cal``, one pass over the input set:
the calibrated CPU times of all operations summed and divided by the
number of passes. It is not gated, because on ``validate-full`` it moves
by 15% with each check seed that takes scipy's slow KS path (see
``workloads``). It prints the raw ``wall_s``, ``op_p50_ms`` and
``op_tail_ms``, and ``estimates_per_s``, ``trials_per_s``,
``error_rate`` and ``tolerance_miss_rate`` where they apply.

With ``--trace 1`` the run gives the per-layer figures: fresh-interpreter
import times, per-call timings of ``sop``, ``distributions``,
``montecarlo`` and ``system`` at the reference point, and spans of the
workload's input set run once more under :class:`tracing.Tracer`
(calls and self time per operation of each wrapped function, and
``trace.overhead``, traced over untraced CPU time of one pass).

Every result is held to a reference outside the timed region (see
``workloads.check``). ``failed`` counts operations that raised or broke
an invariant that correct code always keeps, and ``correct`` is false
when there is one. Tolerance misses of the Chebyshev approximation at
large D/h and statistical checks that fail at a designed rate for some
seeds are not failures of the program: they are counted apart and
reported as ``tolerance_miss_rate``, by kind in the run's record.

Runs write a record with the environment, the seed and the sha256 of the
workload's output to ``perfbench/out/``; traced runs also write spans
there. The last line on stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 5

# Program-independent start-up work that slows down with the host as the
# set-up does, and the CPU time taken as its nominal length (it takes
# 0.1-0.15 s on an Intel Xeon host with 2 vCPUs).
REFERENCE_CODE = (
    "import argparse, decimal, email.mime.multipart, http.client, json, unittest, xml.dom.minidom"
)
NOMINAL_REFERENCE_S = 0.1

SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pinchsec.cli
pinchsec.cli.build_parser()
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
"""


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def interpreter_seconds(*args: str) -> float:
    """CPU time, user and system, of a fresh interpreter run with ``args``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, *args], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def setup_seconds(workload: str, seed: int, reps: int) -> tuple[float, float]:
    """Median set-up time of ``reps`` fresh interpreters: at nominal host speed, and raw."""
    raw, nominal = [], []
    for _ in range(reps):
        reference = min(interpreter_seconds("-c", REFERENCE_CODE) for _ in range(2))
        t = interpreter_seconds("-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed))
        raw.append(t)
        nominal.append(t / reference * NOMINAL_REFERENCE_S)
    return statistics.median(nominal), statistics.median(raw)


def calibration_seconds() -> float:
    """Least of three CPU times of a fixed kernel: the host's speed right now.

    The kernel is a pure-Python loop and a numpy pass over Philox draws,
    so that it slows down with the host for interpreted code and for
    array code alike. It is independent of the program; changing it
    invalidates every figure measured in its units.
    """
    best = math.inf
    for _ in range(3):
        start = time.thread_time()
        total = 0.0
        for i in range(20_000):
            total += (i * 0.5) % 7.0
        u = np.random.Generator(np.random.Philox(key=12345)).random((3, 1 << 15))
        total += np.count_nonzero(np.hypot(u[0] - 0.5, u[1] - 0.5) * u[2] < 0.25)
        best = min(best, time.thread_time() - start)
    return best


@dataclass
class Loop:
    """Whole passes over an input set, operations in the order they ran."""

    latencies: list[float] = field(default_factory=list)
    # per operation: CPU time of the process, all threads
    cpu: list[float] = field(default_factory=list)
    # per operation: mean of calibration_seconds() just before and after it
    calibrations: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    # per operation: (input index, result or None, exception or None)
    ops: list[tuple] = field(default_factory=list)


def closed_loop(workloads, workload: str, inputs: list, *, seconds=None, passes=None, tracer=None) -> Loop:
    """Run whole passes, ``passes`` of them or as many as end within ``seconds``.

    At least two passes run; another starts only if a pass as long as
    the slowest so far would end in time.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, item in enumerate(inputs):
            if tracer is not None:
                tracer.op = len(loop.ops)
            before = calibration_seconds()
            cpu_start = time.process_time()
            op_start = time.perf_counter()
            try:
                result, error = workloads.run_op(workload, item), None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, exc
            loop.latencies.append(time.perf_counter() - op_start)
            loop.cpu.append(time.process_time() - cpu_start)
            loop.calibrations.append((before + calibration_seconds()) / 2.0)
            loop.ops.append((index, result, error))
        now = time.perf_counter()
        loop.pass_seconds.append(now - pass_start)
        if passes is not None:
            if len(loop.pass_seconds) >= passes:
                return loop
        elif len(loop.pass_seconds) >= 2 and now - start + max(loop.pass_seconds) > seconds:
            return loop


@dataclass
class Outcome:
    attempted: int
    failures: list
    fingerprint: str
    estimates: int


def judge(workloads, workload: str, inputs: list, loop: Loop) -> Outcome:
    """Check every operation against its reference; untimed."""
    verdicts: dict[int, object] = {}
    first_text: dict[int, str] = {}
    attempted = 0
    failures = []
    estimates = 0
    for index, result, error in loop.ops:
        item = inputs[index]
        if error is not None:
            n = max(workloads.estimates_per_op(workload, item), 1)
            attempted += n
            failures += [workloads.Failure("raised", True, f"{type(error).__name__}: {error}")] * n
            continue
        estimates += workloads.estimates_per_op(workload, item)
        text = workloads.output_text(workload, result)
        if index not in verdicts:
            verdicts[index] = workloads.check(workload, item, result)
            first_text[index] = text
        elif text != first_text[index]:
            failures.append(
                workloads.Failure("nondeterministic", True, f"input {index} changed between passes")
            )
        attempted += verdicts[index].attempted
        failures += verdicts[index].failures
    texts = [first_text.get(i, "") for i in range(len(inputs))]
    return Outcome(attempted, failures, workloads.fingerprint(texts), estimates)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, but at
    least the 75th (nearest rank), and its value."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, math.ceil(0.75 * n) - 1)
    return 100.0 * (index + 1) / n, ordered[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # not a parent directory's repository
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workloads) -> dict:
    import scipy

    return {
        "nproc": workloads.nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
        ),
    }


def rates(outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Failures, and tolerance or statistical misses, per attempted estimate or check."""
    hard = sum(f.hard for f in outcome.failures)
    return {
        "error_rate": (hard / outcome.attempted, "ratio"),
        "tolerance_miss_rate": ((len(outcome.failures) - hard) / outcome.attempted, "ratio"),
    }


def untraced_metrics(workloads, args, loop: Loop, outcome: Outcome, setup: tuple[float, float]):
    raw = loop.latencies
    cal = [t / c for t, c in zip(loop.cpu, loop.calibrations)]
    passes = len(loop.pass_seconds)
    percentile, tail_cal = tail(cal)
    _, tail_raw = tail(raw)
    wall = sum(raw) / passes
    estimates_per_pass = outcome.estimates / passes
    metrics = {
        "setup_s": (setup[0], "s"),
        "op_cpu_p50_cal": (statistics.median(cal), "cal"),
        "op_cpu_tail_cal": (tail_cal, "cal"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "pass_cpu_cal": (sum(cal) / passes, "cal"),
        "setup_cpu_raw_s": (setup[1], "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(loop.cpu) / passes, "s"),
        "op_p50_ms": (1e3 * statistics.median(raw), "ms"),
        "op_tail_ms": (1e3 * tail_raw, "ms"),
        "op_tail_percentile": (percentile, "%"),
        "op_samples": (float(len(raw)), "count"),
        "passes": (float(passes), "count"),
        "calibration_ms": (1e3 * min(loop.calibrations), "ms"),
        **rates(outcome),
    }
    if outcome.estimates:
        extra["estimates_per_s"] = (estimates_per_pass / wall, "1/s")
    if args.workload == "mc-curves":
        extra["trials_per_s"] = (estimates_per_pass * workloads.MC_TRIALS / wall, "1/s")
    return metrics, extra


def traced_metrics(workloads, args, inputs):
    import layers
    import tracing

    metrics = {
        "cli.import_s": (layers.import_seconds("pinchsec.cli", str(SRC)), "s"),
        "validation.import_s": (layers.import_seconds("pinchsec.validation", str(SRC)), "s"),
    }
    metrics.update(layers.sop_metrics())
    metrics.update(layers.distributions_metrics())
    metrics.update(layers.montecarlo_metrics(workloads.nproc()))

    baseline = closed_loop(workloads, args.workload, inputs, passes=1)
    with tracing.Tracer() as tracer:
        traced = closed_loop(workloads, args.workload, inputs, passes=1, tracer=tracer)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    ops = len(traced.ops)
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "count/op")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / ops, "s/op")
    for layer, name in (("sweep", "sweep.run_sweep"), ("validation", "validation.run_checks")):
        total = tracer.total_s[name]
        metrics[f"{layer}.self_share"] = (tracer.self_s[name] / total if total else 0.0, "ratio")
    metrics["trace.overhead"] = (sum(traced.cpu) / sum(baseline.cpu), "x")
    extra = {
        "trace.spans_kept": (float(len(tracer.spans)), "count"),
        "trace.spans_dropped": (float(tracer.dropped), "count"),
    }
    return metrics, extra, traced


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "pinchsec" / "__init__.py").is_file():
        print(f"error: no pinchsec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    args = parse_args(argv, workloads)

    setup = setup_seconds(args.workload, args.seed, SETUP_REPS) if args.trace == 0 else None
    inputs = workloads.generate(args.workload, args.seed)
    workloads.run_op(args.workload, inputs[0])  # warm-up: lazy imports and caches

    if args.trace == 0:
        loop = closed_loop(workloads, args.workload, inputs, seconds=args.seconds)
        outcome = judge(workloads, args.workload, inputs, loop)
        metrics, extra = untraced_metrics(workloads, args, loop, outcome, setup)
    else:
        metrics, extra, loop = traced_metrics(workloads, args, inputs)
        outcome = judge(workloads, args.workload, inputs, loop)
        extra.update(rates(outcome))

    hard = [f for f in outcome.failures if f.hard]
    kinds: dict[str, int] = {}
    for failure in outcome.failures:
        kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workloads),
        "fingerprint_sha256": outcome.fingerprint,
        "attempted": outcome.attempted,
        "failed": len(hard),
        "misses_by_kind": kinds,
        "failure_examples": sorted({f.detail for f in outcome.failures})[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# output sha256={outcome.fingerprint}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        f"# failed {len(hard)}/{outcome.attempted}; tolerance misses "
        f"{len(outcome.failures) - len(hard)}; by kind: "
        + (", ".join(f"{k}={n}" for k, n in sorted(kinds.items())) or "none")
    )
    result = {
        "correct": not hard,
        "attempted": outcome.attempted,
        "failed": len(hard),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
