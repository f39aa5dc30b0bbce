"""Seeded, partition-invariant Monte Carlo simulation.

Each seed names one PCG64DXSM stream, and trial t takes its draws
4t..4t+3 (four 64-bit draws): x1, y1, x2, y2 are columns 0-3 of its row
however the trials are chunked. Outage estimates are integer counts
divided by the trial count, and the floor estimate is a quotient of
integer sums too, of per-trial values rounded to multiples of 2^-40, so
any chunking yields bit-identical results; sample streams preserve
trial order.

One generator, :func:`_chunks`, walks every draw: it opens the seed's
stream once per call and draws it in trial order, in chunks of at most
2^14 trials, on the calling thread, into one buffer allocated once per
call: the (chunk, 4) uniforms u, which :func:`_coordinates` maps to x1,
y1, x2, y2 as (u - 0.5) * D. Three loops walk the chunks: the outage
counter hands each system's kernel the coordinate columns,
:func:`simulate_lower_bound_event` sums the floor event's conditional
probability over the squared offsets, in :func:`_floor_estimate`, which
reads a drawn sample's offsets in slices too, and :func:`sample_offset_sq`
collects those offsets, of which :func:`sample_snr_eve` is the SNR map.

One pass over the draws counts every event at every configuration.
:func:`simulate_sops` takes a sequence of configurations, such as the
points of a sweep, and counts both systems at all of them over the same
trials: each chunk is drawn once and mapped once per distinct region
side. These are common random numbers: each estimate has the
distribution of its own one-configuration call, and equals that call
bit for bit, but estimates at different configurations are correlated.
Configurations of one region side and height also share each trial's
path geometry: the SNR denominators, each receiver's squared distance
to the antenna, are summed once per chunk, system and group of equal
region side and height, by the SNR formulas at the group's first
effective SNR. Each further effective SNR, such as the next point of a
power sweep, runs only the divide effective_snr / denominator. Points
that differ only in the rate, such as those of a rate sweep, share the
SNRs themselves: only the rate's tail, C * snr_eve, its difference from
snr_bob, the comparison with C - 1 and the count, runs once per
configuration. The pass enters numpy's overflow guard once, around its
chunk loop, for the one product that may overflow, C * snr_eve.

No chunk allocates. The outage kernels evaluate in place, in a workspace
of five float columns and one bool column allocated once per call,
through the ``out=`` and ``denominator=`` arguments of the SNR formulas:
a geometry's denominators fill two float columns and its SNRs two more,
and each rate's tail works in the fifth and the bool column, leaving the
others for the next rate or power. A call in which no geometry has a
second effective SNR keeps no denominator: its SNR columns stand in for
them, and it allocates three float columns. The kernels keep the
formulas' operations in their order, so every count is the one the
out-of-place expressions give. The draw buffer and the workspace start
on 64-byte boundaries, so the cost does not depend on where the
allocator puts them: even with glibc's mmap threshold fixed at 64 KiB,
a 1e6-trial two-system call takes about 200 minor page faults, and 260
with the two denominator columns. The chunk size sets cache use, never
an answer: at 2^14 trials the 512 KiB buffer and the workspace, 656 KiB
with the denominators, fit a 2 MiB per-core L2 cache, and so does the
second 512 KiB buffer that configurations of several region sides map
their coordinates into.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .system import SystemConfig, snr_at_distance_sq, snr_bob_pinching, snr_eve_pinching, snr_fpa

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
    """Trial count and seed.

    ``workers`` is validated but read by no computation: every call walks
    its seed's one stream on the calling thread. The field goes once the
    benchmark stops passing it. Each field must be an integer (a numpy
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
    """A probability estimate with its standard error: binomial for an
    outage count, of a conditional mean for the floor event."""

    estimate: float
    stderr: float
    trials: int
    seed: int


def _generator(seed: int) -> np.random.Generator:
    """The seed's stream, at trial 0's draws."""
    return np.random.Generator(np.random.PCG64DXSM(seed))


def _aligned(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised array whose data starts on a 64-byte boundary."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _ALIGNMENT, dtype=np.uint8)
    skip = -raw.ctypes.data % _ALIGNMENT
    return raw[skip : skip + nbytes].view(dtype).reshape(shape)


def _chunks(mc: McConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start, stop, uniforms) for each chunk of trials, in trial order.

    ``uniforms`` holds the trials' four draws on [0, 1), one row per
    trial, in order from the seed's stream, opened once. Every chunk is
    drawn into one aligned buffer allocated per call, so it is only valid
    until the next chunk is drawn.
    """
    buffer = _aligned((min(mc.trials, _CHUNK_TRIALS), _DRAWS_PER_TRIAL))
    rng = _generator(mc.seed)
    for start in range(0, mc.trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, mc.trials)
        yield start, stop, rng.random(out=buffer[: stop - start])


def _coordinates(uniforms: np.ndarray, side: float, out: np.ndarray) -> np.ndarray:
    """x1, y1, x2, y2 on [-D/2, D/2] into ``out`` (which may be ``uniforms``): (u - 0.5) * D."""
    np.subtract(uniforms, 0.5, out=out)
    out *= side
    return out


# six columns, one row per trial of a chunk: two SNRs, the scratch column,
# two denominators and the bool mask
_Workspace = tuple[np.ndarray, ...]


def _workspace(size: int, rescaled: bool) -> _Workspace:
    """The outage kernels' columns for chunks of up to ``size`` trials, aligned.

    Unless some geometry is ``rescaled`` to a further effective SNR, no
    denominator is kept: the SNR columns stand in for the denominator
    columns, so the formulas sum in place, as without ``denominator=``,
    and the call allocates 3+1 columns.
    """
    gb, ge, scratch = _aligned((size,)), _aligned((size,)), _aligned((size,))
    db, de = (_aligned((size,)), _aligned((size,))) if rescaled else (gb, ge)
    return (gb, ge, scratch, db, de, _aligned((size,), bool))


def _count_events(
    cfgs: Sequence[SystemConfig], mc: McConfig, systems: Sequence[Callable[..., None]]
) -> list[tuple[McResult, ...]]:
    """Estimate every system's outage probability at every configuration in one pass.

    Configurations are grouped by region side, then height, then
    effective SNR; the members of a group differ only in the rate. Each
    chunk's uniforms are drawn once and mapped to coordinates once per
    side: in place when there is one side, else into a second buffer, so
    the uniforms stay for the next side. Per side, height and system, the
    system's kernel in :data:`_OUTAGES` fills the two denominator columns,
    which every member shares, and the two SNR columns at the first
    effective SNR; :func:`_rescale_snrs` refills the SNRs at each further
    one, and :func:`_outage` counts each member's outages from them. The
    buffer and the workspace are allocated once per call, the denominator
    columns only if some side and height has a second effective SNR.
    """
    size = min(mc.trials, _CHUNK_TRIALS)
    groups: dict[float, dict[float, dict[float, list[int]]]] = {}
    for i, cfg in enumerate(cfgs):
        by_height = groups.setdefault(cfg.region_side, {})
        by_snr = by_height.setdefault(cfg.height, {})
        by_snr.setdefault(cfg.effective_snr, []).append(i)
    rescaled = any(len(by_snr) > 1 for by_height in groups.values() for by_snr in by_height.values())
    workspace = _workspace(size, rescaled)
    coords = _aligned((size, _DRAWS_PER_TRIAL)) if len(groups) > 1 else None
    counts = [[0] * len(systems) for _ in cfgs]
    # every SNR is at most effective_snr / h^2, which SystemConfig requires to
    # be finite, so the only product of the pass that can overflow is C*ge in
    # _outage: from rate ~1011 on it is inf, an outage, as it should be
    with np.errstate(over="ignore"):
        for start, stop, uniforms in _chunks(mc):
            work = tuple(column[: stop - start] for column in workspace)
            out = uniforms if coords is None else coords[: stop - start]
            for side, by_height in groups.items():
                x1, y1, x2, y2 = _coordinates(uniforms, side, out).T
                for by_snr in by_height.values():
                    for j, share in enumerate(systems):
                        for k, members in enumerate(by_snr.values()):
                            if k:
                                _rescale_snrs(cfgs[members[0]], work)
                            else:
                                share(x1, y1, x2, y2, cfgs[members[0]], work)
                            for i in members:
                                counts[i][j] += int(np.count_nonzero(_outage(cfgs[i], work)))
    return [tuple(_result(total, mc) for total in row) for row in counts]


def _result(count: int, mc: McConfig) -> McResult:
    estimate = count / mc.trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / mc.trials)
    return McResult(estimate, stderr, mc.trials, mc.seed)


def _snrs_pas(x1, y1, x2, y2, cfg: SystemConfig, work: _Workspace) -> None:
    gb, ge, scratch, db, de, _ = work
    snr_bob_pinching(y1, cfg, out=gb, denominator=db)
    snr_eve_pinching(x1, x2, y2, cfg, out=ge, scratch=scratch, denominator=de)


def _snrs_fpa(x1, y1, x2, y2, cfg: SystemConfig, work: _Workspace) -> None:
    gb, ge, scratch, db, de, _ = work
    snr_fpa(x1, y1, cfg, out=gb, scratch=scratch, denominator=db)
    snr_fpa(x2, y2, cfg, out=ge, scratch=scratch, denominator=de)


def _rescale_snrs(cfg: SystemConfig, work: _Workspace) -> None:
    """Both SNRs at ``cfg``'s effective SNR, from the denominators either system left."""
    gb, ge, _, db, de, _ = work
    snr_at_distance_sq(db, cfg, out=gb)
    snr_at_distance_sq(de, cfg, out=ge)


def _outage(cfg: SystemConfig, work: _Workspace) -> np.ndarray:
    """The outage event (1 + snr_bob) <= C * (1 + snr_eve), as gb - C*ge <= C - 1.

    Adding 1 to an SNR far below 1 rounds it away; this form keeps it,
    so at rate 0 the event stays snr_bob <= snr_eve however small both are.
    Evaluated in the scratch column, so gb and ge stay for the next rate.
    """
    gb, ge, scratch, _, _, mask = work
    c = cfg.rate_threshold
    # from rate ~1011 on C*ge overflows to inf, under the pass's overflow guard
    np.multiply(c, ge, out=scratch)
    np.subtract(gb, scratch, out=scratch)
    return np.less_equal(scratch, c - 1.0, out=mask)


_OUTAGES = {"pas": _snrs_pas, "fpa": _snrs_fpa}


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
    tuples without drawing. Either may be any iterable, read once. A name
    that is not one of the systems, or a bare string, is a ValueError;
    one ``SystemConfig`` in place of a sequence is a TypeError.
    """
    names = None if isinstance(systems, str) else tuple(systems)
    # an unhashable name is no system either: test it as a string before the lookup
    if names is None or not all(isinstance(s, str) and s in _OUTAGES for s in names):
        read = systems if names is None else names
        raise ValueError(f"systems must be a sequence of 'pas' and 'fpa', got {read!r}")
    cfgs = tuple(cfgs)
    if not cfgs or not names:
        return tuple(() for _ in cfgs)
    return tuple(_count_events(cfgs, mc, [_OUTAGES[s] for s in names]))


def simulate_sop_pas(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Empirical SOP of the pinching-antenna system.

    Per trial, both receivers are drawn uniformly on the region and the
    outage event (1 + snr_bob) <= C * (1 + snr_eve) is counted.
    """
    ((result,),) = _count_events((cfg,), mc, (_OUTAGES["pas"],))
    return result


def simulate_sop_fpa(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Empirical SOP of the fixed-position baseline (antenna at the center)."""
    ((result,),) = _count_events((cfg,), mc, (_OUTAGES["fpa"],))
    return result


def _offset_sq(uniforms, side: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """A chunk's (x1 - x2)^2 + y2^2 into ``out``, with y2^2 in ``scratch``;
    the ``uniforms`` are mapped in place to the coordinates."""
    x1, _, x2, y2 = _coordinates(uniforms, side, out=uniforms).T
    np.subtract(x1, x2, out=out)
    np.square(out, out=out)
    return np.add(out, np.square(y2, out=scratch), out=out)


# g and g^2 are summed in whole units of 2^-40, as int64 within a chunk:
# exact while a chunk's sum stays below 2^63, so for chunks under 2^23 trials
_FLOOR_UNIT = 2.0**40


def _floor_estimate(offsets: Iterable[np.ndarray], side: float, mc: McConfig) -> McResult:
    """The mean of g = max(0, 1 - 2 sqrt(w)/D) over ``mc``'s offsets w, in chunks left unchanged.

    Each g and g^2 is rounded to a multiple of 2^-40 and summed exactly, as
    an integer, in columns of ``_CHUNK_TRIALS`` allocated once per call: no
    chunking or order of the samples moves a bit, and each sum is within
    n 2^-41 of the unrounded one.
    """
    size = min(mc.trials, _CHUNK_TRIALS)
    g, g_sq, ticks = _aligned((size,)), _aligned((size,)), _aligned((size,), np.int64)
    sums = [0, 0]
    for w in offsets:
        chunk_g, chunk_g_sq, chunk_ticks = g[: w.size], g_sq[: w.size], ticks[: w.size]
        np.sqrt(w, out=chunk_g)
        chunk_g *= 2.0 / side
        np.subtract(1.0, chunk_g, out=chunk_g)
        np.maximum(chunk_g, 0.0, out=chunk_g)
        np.square(chunk_g, out=chunk_g_sq)
        for k, column in enumerate((chunk_g, chunk_g_sq)):
            column *= _FLOOR_UNIT
            chunk_ticks[...] = np.rint(column, out=column)
            sums[k] += int(np.add.reduce(chunk_ticks))
    mean, mean_sq = (total / mc.trials / _FLOOR_UNIT for total in sums)
    stderr = math.sqrt(max(mean_sq - mean * mean, 0.0) / mc.trials)
    return McResult(mean, stderr, mc.trials, mc.seed)


def simulate_lower_bound_event(cfg: SystemConfig, mc: McConfig) -> McResult:
    """Probability that the eavesdropper's SNR is at least the receiver's.

    The event (x1-x2)^2 + y2^2 <= y1^2 is scale-free: the estimate does
    not depend on the region size, the height, or the transmit power.

    The event is not counted. Given a trial's offset w = (x1-x2)^2 + y2^2,
    the receiver's y1 is still uniform on [-D/2, D/2], so the event's
    probability is g(w) = max(0, 1 - 2 sqrt(w)/D). The estimate is the
    mean of g over the trials (conditional Monte Carlo, or
    Rao-Blackwellisation; Asmussen & Glynn, *Stochastic Simulation*,
    2007, section V.4), and its standard error is sqrt(var g / n). Per
    trial, Var g = pi/24 - 1/60 - p^2 = 0.0658, 0.38 of the count's
    p(1-p) = 0.1717. Each chunk's offsets go to :func:`_floor_estimate`,
    so the result is bit-identical however the trials are chunked.
    """
    size = min(mc.trials, _CHUNK_TRIALS)
    w, scratch = _aligned((size,)), _aligned((size,))
    offsets = (
        _offset_sq(uniforms, cfg.region_side, w[: stop - start], scratch[: stop - start])
        for start, stop, uniforms in _chunks(mc)
    )
    return _floor_estimate(offsets, cfg.region_side, mc)


def _lower_bound_event_of_offset(w: np.ndarray, cfg: SystemConfig, mc: McConfig) -> McResult:
    """:func:`simulate_lower_bound_event` at ``mc``, bit for bit, from its offsets ``w`` in any order.

    Offsets whose g rounds to 0 units of 2^-40 may be left out of ``w``:
    the estimate divides by ``mc.trials``.
    """
    slices = (w[start : start + _CHUNK_TRIALS] for start in range(0, w.size, _CHUNK_TRIALS))
    return _floor_estimate(slices, cfg.region_side, mc)


def sample_offset_sq(cfg: SystemConfig, mc: McConfig) -> np.ndarray:
    """Per-trial squared horizontal offset samples, in trial order."""
    out = np.empty(mc.trials, dtype=np.float64)
    scratch = _aligned((min(mc.trials, _CHUNK_TRIALS),))
    for start, stop, uniforms in _chunks(mc):
        _offset_sq(uniforms, cfg.region_side, out[start:stop], scratch[: stop - start])
    return out


def _snr_eve_of_offset(w: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Offset samples ``w`` mapped in place to eavesdropper SNRs, effective_snr / (w + h^2).

    The operations of :func:`snr_eve_pinching` in its order. Each step
    rounds monotonically, so a sample sorted in ascending order maps to
    one sorted in descending order.
    """
    w += cfg.height**2
    return snr_at_distance_sq(w, cfg, out=w)


def sample_snr_eve(cfg: SystemConfig, mc: McConfig) -> np.ndarray:
    """Per-trial eavesdropper SNR samples, in trial order: the offset samples, mapped."""
    return _snr_eve_of_offset(sample_offset_sq(cfg, mc), cfg)
