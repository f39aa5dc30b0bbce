"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` replaces module attributes with wrappers owned by the
benchmark and restores the originals on exit. The layers call each
other through module attributes (``sop`` calls ``dist.*``, ``sweep``
calls ``sop_mod.*`` and ``mc_mod.*``, ``validation`` calls all three),
and ``montecarlo`` imports the SNR kernels by name, so the ``system``
layer is wrapped as ``pinchsec.montecarlo.snr_*``.

Each span has a name, start, end, parent span and the operation id it
belongs to. A span's self time is its duration minus the part of it
that child spans cover; children running on pool threads are merged
as intervals so that overlapping workers are not subtracted twice.
Wrapping costs about a microsecond per call, which is why end-to-end
metrics come only from untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from pathlib import Path

import pinchsec.distributions as dist_mod
import pinchsec.montecarlo as mc_mod
import pinchsec.sop as sop_mod
import pinchsec.sweep as sweep_mod
import pinchsec.validation as validation_mod

# (module, attribute, layer) for every wrapped function.
TARGETS = (
    (sweep_mod, "run_sweep", "sweep"),
    (validation_mod, "run_checks", "validation"),
    (sop_mod, "sop_exact", "sop"),
    (sop_mod, "sop_chebyshev", "sop"),
    (sop_mod, "sop_asymptotic", "sop"),
    (mc_mod, "simulate_sop_pas", "montecarlo"),
    (mc_mod, "simulate_sop_fpa", "montecarlo"),
    (mc_mod, "simulate_lower_bound_event", "montecarlo"),
    (mc_mod, "sample_snr_eve", "montecarlo"),
    (mc_mod, "sample_offset_sq", "montecarlo"),
    (dist_mod, "pdf_snr_eve", "distributions"),
    (dist_mod, "cdf_snr_bob", "distributions"),
    (dist_mod, "cdf_offset_sq", "distributions"),
    (dist_mod, "pdf_snr_eve_via_offset", "distributions"),
    (dist_mod, "pdf_offset_sq", "distributions"),
    (dist_mod, "cdf_offset_sq_quadrature", "distributions"),
    (mc_mod, "snr_bob_pinching", "system"),
    (mc_mod, "snr_eve_pinching", "system"),
    (mc_mod, "snr_fpa", "system"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for _, attr, layer in TARGETS)

# Spans kept for the span file; later ones still count in the totals.
MAX_SPANS = 100_000


@contextlib.contextmanager
def patched(module, attr: str, replacement):
    """Set ``module.attr`` to ``replacement`` and restore the original on exit."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Frame:
    __slots__ = ("span_id", "child_s", "pool_children")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0
        self.pool_children: list[tuple[float, float]] = []


class Tracer:
    """Context manager that records spans of every function in :data:`TARGETS`."""

    def __init__(self):
        self.op = -1
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_top: _Frame | None = None
        self._stack = contextlib.ExitStack()
        self._t0 = 0.0

    def __enter__(self) -> "Tracer":
        self._t0 = time.perf_counter()
        for module, attr, layer in TARGETS:
            original = getattr(module, attr)
            self._stack.enter_context(
                patched(module, attr, self._wrap(f"{layer}.{attr}", original))
            )
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        owner = threading.get_ident() == self._owner
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's outermost call belongs to the caller's open span
            parent = None if owner else self._owner_top
        frame = _Frame(next(self._ids))
        stack.append(frame)
        if owner:
            self._owner_top = frame
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if owner:
                self._owner_top = stack[-1] if stack else None
            duration = end - start
            covered = frame.child_s + _union_length(frame.pool_children)
            with self._lock:
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += max(duration - covered, 0.0)
                if stack:
                    parent.child_s += duration
                elif parent is not None:
                    parent.pool_children.append((start, end))
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (
                            frame.span_id,
                            name,
                            start - self._t0,
                            end - self._t0,
                            -1 if parent is None else parent.span_id,
                            self.op,
                        )
                    )
                else:
                    self.dropped += 1

    def write_spans(self, path: Path) -> None:
        """Write kept spans as CSV: span,name,start_s,end_s,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{op}\n")
