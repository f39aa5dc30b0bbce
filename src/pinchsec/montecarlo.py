"""Seeded, partition-invariant Monte Carlo simulation.

Each seed names one PCG64DXSM stream, and trial t owns its draws
4t..4t+3 (four 64-bit draws), reached by ``advance(4 * t)``: positions
x1, y1, x2, y2 are always columns 0-3 of the trial's block regardless of
how trials are chunked across workers. Outage estimates are integer
counts divided by the trial count, so any partitioning yields
bit-identical results; sample streams preserve trial order.

One generator, :func:`_chunks`, walks every draw: it cuts the trials
into one span per worker and each span into chunks of at most 2^14
trials, in order on the calling thread, so ``workers`` is a
partitioning hint only. A span opens the seed's stream at its first
trial and draws its chunks from it in order, into one buffer allocated
once per call: the (chunk, 4) uniforms u, which :func:`_coordinates`
maps to x1, y1, x2, y2 as (u - 0.5) * D. Two loops walk the chunks: the
event counter hands each kernel the coordinate columns, and
:func:`sample_offset_sq` collects the squared offsets, of which
:func:`sample_snr_eve` is the SNR map.

One pass over the draws counts every event at every configuration.
:func:`simulate_sops` takes a sequence of configurations, such as the
points of a sweep, and counts both systems at all of them over the same
trials: each chunk is drawn once and mapped once per distinct region
side. These are common random numbers: each estimate has the
distribution of its own one-configuration call, and equals that call
bit for bit, but estimates at different configurations are correlated.

No chunk allocates. The event kernels evaluate in place, in a workspace
of three float columns and one bool column allocated once per call,
through the ``out=`` arguments of the SNR formulas; they keep the
formulas' operations in their order, so every count is the one the
out-of-place expressions give. The draw buffer and the workspace start
on 64-byte boundaries, so the cost does not depend on where the
allocator puts them: even with glibc's mmap threshold fixed at 64 KiB,
a 1e6-trial two-system call takes about 200 minor page faults. The
chunk size sets cache use, never an answer: at 2^14 trials the 512 KiB
buffer and the 400 KiB workspace fit a 2 MiB per-core L2 cache, and so
does the second 512 KiB buffer that configurations of several region
sides map their coordinates into.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .system import SystemConfig, snr_bob_pinching, snr_eve_pinching, snr_fpa

__all__ = [
    "McConfig",
    "McResult",
    "simulate_sop_pas",
    "simulate_sop_fpa",
    "simulate_sops",
    "simulate_lower_bound_event",
    "sample_snr_eve",
    "sample_offset_sq",
]

_DRAWS_PER_TRIAL = 4  # trial t owns draws 4t..4t+3 of the seed's stream
# trials per chunk; both systems over 1e6 trials on 2 vCPUs (Xeon, PCG64DXSM,
# in-place workspace) take a median 39.3 ns/trial at 2^14, against 43.7 at
# 2^13 and 45.9 at 2^15, each neighbour faster in at most 3 of 10 pairs
_CHUNK_TRIALS = 1 << 14
_ALIGNMENT = 64  # bytes: a cache line, and the widest SIMD load


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed, and a partitioning hint.

    ``workers`` sets how many spans the trials are cut into; the spans
    run one after another on the calling thread, and estimates are
    bit-identical for any value. Each field must be an integer (a numpy
    integer is stored as an int); a float or a bool is a TypeError.
    """

    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "workers"):
            value = getattr(self, name)
            # a float seed would be truncated or rejected only at the first draw
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class McResult:
    """A probability estimate with its binomial standard error."""

    estimate: float
    stderr: float
    trials: int
    seed: int


def _span_generator(seed: int, start: int) -> np.random.Generator:
    """A generator whose next uniforms are those of trial ``start`` on."""
    bits = np.random.PCG64DXSM(seed)
    bits.advance(_DRAWS_PER_TRIAL * start)
    return np.random.Generator(bits)


def _aligned(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised array whose data starts on a 64-byte boundary."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _ALIGNMENT, dtype=np.uint8)
    skip = -raw.ctypes.data % _ALIGNMENT
    return raw[skip : skip + nbytes].view(dtype).reshape(shape)


def _chunks(mc: McConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start, stop, uniforms) for each chunk of trials, in trial order.

    ``uniforms`` holds the trials' four draws on [0, 1), one row per
    trial. The trials are cut into one span per worker; each span opens
    the seed's stream at its first trial and fills its chunks from it in
    order: a chunk takes four draws per trial, so the next one starts at
    its first trial's draws. Every chunk is drawn into one aligned buffer
    allocated per call, so it is only valid until the next chunk is drawn.
    """
    buffer = _aligned((min(mc.trials, _CHUNK_TRIALS), _DRAWS_PER_TRIAL))
    width = math.ceil(mc.trials / mc.workers)
    for lo in range(0, mc.trials, width):
        hi = min(lo + width, mc.trials)
        rng = _span_generator(mc.seed, lo)
        for start in range(lo, hi, _CHUNK_TRIALS):
            stop = min(start + _CHUNK_TRIALS, hi)
            yield start, stop, rng.random(out=buffer[: stop - start])


def _coordinates(uniforms: np.ndarray, side: float, out: np.ndarray) -> np.ndarray:
    """x1, y1, x2, y2 on [-D/2, D/2] into ``out`` (which may be ``uniforms``): (u - 0.5) * D."""
    np.subtract(uniforms, 0.5, out=out)
    out *= side
    return out


# three float columns and one bool column, one row per trial of a chunk
_Workspace = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# an event kernel takes a chunk's columns x1, y1, x2, y2, the system and
# the workspace, and returns the workspace's bool column holding its event
_Kernel = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, SystemConfig, _Workspace], np.ndarray
]


def _workspace(size: int) -> _Workspace:
    """The event kernels' columns for chunks of up to ``size`` trials, aligned."""
    return (_aligned((size,)), _aligned((size,)), _aligned((size,)), _aligned((size,), bool))


def _count_events(
    cfgs: Sequence[SystemConfig], mc: McConfig, events: Sequence[_Kernel]
) -> list[tuple[McResult, ...]]:
    """Estimate the probability of every event at every configuration in one pass.

    Each chunk's uniforms are drawn once and mapped to coordinates once
    per distinct region side: in place when there is one side, else into
    a second buffer, so the uniforms stay for the next side. Every kernel
    of every configuration then overwrites the workspace. The buffer and
    the workspace are allocated once per call.
    """
    size = min(mc.trials, _CHUNK_TRIALS)
    workspace = _workspace(size)
    by_side: dict[float, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        by_side.setdefault(cfg.region_side, []).append(i)
    coords = _aligned((size, _DRAWS_PER_TRIAL)) if len(by_side) > 1 else None
    counts = [[0] * len(events) for _ in cfgs]
    for start, stop, uniforms in _chunks(mc):
        work = tuple(column[: stop - start] for column in workspace)
        out = uniforms if coords is None else coords[: stop - start]
        for side, members in by_side.items():
            x1, y1, x2, y2 = _coordinates(uniforms, side, out).T
            for i in members:
                for j, event in enumerate(events):
                    counts[i][j] += int(np.count_nonzero(event(x1, y1, x2, y2, cfgs[i], work)))
    return [tuple(_result(total, mc) for total in row) for row in counts]


def _result(count: int, mc: McConfig) -> McResult:
    estimate = count / mc.trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / mc.trials)
    return McResult(estimate, stderr, mc.trials, mc.seed)


def _outage(gb: np.ndarray, ge: np.ndarray, cfg: SystemConfig, mask: np.ndarray) -> np.ndarray:
    """The outage event (1 + snr_bob) <= C * (1 + snr_eve), as gb - C*ge <= C - 1.

    Adding 1 to an SNR far below 1 rounds it away; this form keeps it,
    so at rate 0 the event stays snr_bob <= snr_eve however small both are.
    Evaluated in place: ``ge`` and ``gb`` are overwritten, ``mask`` returned.
    """
    c = cfg.rate_threshold
    # from rate ~1011 on C*ge overflows to inf: an outage, as it should be
    with np.errstate(over="ignore"):
        np.multiply(c, ge, out=ge)
    np.subtract(gb, ge, out=gb)
    return np.less_equal(gb, c - 1.0, out=mask)


def _outage_pas(x1, y1, x2, y2, cfg: SystemConfig, work: _Workspace) -> np.ndarray:
    gb, ge, scratch, mask = work
    snr_bob_pinching(y1, cfg, out=gb)
    snr_eve_pinching(x1, x2, y2, cfg, out=ge, scratch=scratch)
    return _outage(gb, ge, cfg, mask)


def _outage_fpa(x1, y1, x2, y2, cfg: SystemConfig, work: _Workspace) -> np.ndarray:
    gb, ge, scratch, mask = work
    snr_fpa(x1, y1, cfg, out=gb, scratch=scratch)
    snr_fpa(x2, y2, cfg, out=ge, scratch=scratch)
    return _outage(gb, ge, cfg, mask)


def _offset_sq(x1, x2, y2, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(x1 - x2)^2 + y2^2 into ``out``, with y2^2 in ``scratch``."""
    np.subtract(x1, x2, out=out)
    np.square(out, out=out)
    return np.add(out, np.square(y2, out=scratch), out=out)


def _bound_event(x1, y1, x2, y2, cfg: SystemConfig, work: _Workspace) -> np.ndarray:
    offset, scratch, _, mask = work
    _offset_sq(x1, x2, y2, offset, scratch)
    return np.less_equal(offset, np.square(y1, out=scratch), out=mask)


_OUTAGES = {"pas": _outage_pas, "fpa": _outage_fpa}


def simulate_sops(
    cfgs: Sequence[SystemConfig], mc: McConfig, systems: Sequence[str]
) -> tuple[tuple[McResult, ...], ...]:
    """Empirical SOP of each of ``systems`` at each of ``cfgs``, over one set of trials.

    ``"pas"`` is the pinching-antenna system, ``"fpa"`` the fixed-position
    baseline. Returns one tuple of results per configuration, in the
    order of ``systems``. Every configuration and system counts its
    outages over the same trials of ``mc``, drawn once: the estimates use
    common random numbers, and entry ``i`` equals
    ``simulate_sops((cfgs[i],), mc, systems)[0]``, whose entries equal
    the one-system calls. No configurations or no systems give empty
    tuples without drawing. A name that is not one of the systems, or a
    bare string, is a ValueError; one ``SystemConfig`` in place of a
    sequence is a TypeError.
    """
    if isinstance(systems, str) or not all(s in _OUTAGES for s in systems):
        raise ValueError(f"systems must be a sequence of 'pas' and 'fpa', got {systems!r}")
    cfgs = tuple(cfgs)
    if not cfgs or not systems:
        return tuple(() for _ in cfgs)
    return tuple(_count_events(cfgs, mc, [_OUTAGES[s] for s in systems]))


def simulate_sop_pas(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Empirical SOP of the pinching-antenna system.

    Per trial, both receivers are drawn uniformly on the region and the
    outage event (1 + snr_bob) <= C * (1 + snr_eve) is counted.
    """
    ((result,),) = _count_events((cfg,), mc, (_outage_pas,))
    return result


def simulate_sop_fpa(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Empirical SOP of the fixed-position baseline (antenna at the center)."""
    ((result,),) = _count_events((cfg,), mc, (_outage_fpa,))
    return result


def simulate_lower_bound_event(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Probability that the eavesdropper's SNR is at least the receiver's.

    The event (x1-x2)^2 + y2^2 <= y1^2 is scale-free: the estimate does
    not depend on the region size, the height, or the transmit power.
    """
    ((result,),) = _count_events((cfg,), mc, (_bound_event,))
    return result


def sample_offset_sq(cfg: SystemConfig, mc: McConfig) -> np.ndarray:
    """Per-trial squared horizontal offset samples, in trial order."""
    out = np.empty(mc.trials, dtype=np.float64)
    scratch = _aligned((min(mc.trials, _CHUNK_TRIALS),))
    for start, stop, uniforms in _chunks(mc):
        x1, _, x2, y2 = _coordinates(uniforms, cfg.region_side, out=uniforms).T
        _offset_sq(x1, x2, y2, out[start:stop], scratch[: stop - start])
    return out


def sample_snr_eve(cfg: SystemConfig, mc: McConfig) -> np.ndarray:
    """Per-trial eavesdropper SNR samples, in trial order.

    The offset samples mapped in place through effective_snr / (w + h^2),
    the operations of :func:`snr_eve_pinching` in its order.
    """
    snr = sample_offset_sq(cfg, mc)
    snr += cfg.height**2
    return np.divide(cfg.effective_snr, snr, out=snr)
