import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from pinchsec import (
    LOWER_BOUND_PAS,
    McConfig,
    sample_offset_sq,
    sample_snr_eve,
    simulate_lower_bound_event,
    simulate_sop_fpa,
    simulate_sop_pas,
    simulate_sops,
    sop_chebyshev,
)
from pinchsec import distributions as dist
from pinchsec import montecarlo as mc_mod
from pinchsec.sweep import Axis, config_at
from pinchsec.system import snr_bob_pinching, snr_eve_pinching, snr_fpa

from conftest import make_config


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            McConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=2**64)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=1, workers=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials", 1000.0),
            ("trials", True),
            ("trials", "1000"),
            ("seed", 1.9),
            ("seed", 1.0),
            ("seed", False),
            ("seed", np.float64(3.0)),
            ("seed", np.True_),
            ("workers", 2.0),
            ("workers", True),
            ("workers", None),
        ],
    )
    def test_non_integer_rejected_at_construction(self, field, value):
        args = dict(trials=1000, seed=1, workers=1)
        args[field] = value
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            McConfig(**args)

    def test_numpy_integers_accepted_as_ints(self, cfg10):
        mc = McConfig(np.int64(5000), np.uint64(7), np.int32(2))
        assert mc == McConfig(5000, 7, 2)
        assert [type(v) for v in (mc.trials, mc.seed, mc.workers)] == [int] * 3
        assert simulate_sop_pas(cfg10, mc) == simulate_sop_pas(cfg10, McConfig(5000, 7, 2))
        assert McConfig(1, np.uint64(2**64 - 1)).seed == 2**64 - 1


# two full chunks and a ragged half chunk
KERNEL_TRIALS = int(2.5 * mc_mod._CHUNK_TRIALS)
KERNEL_SEED = 31


def uniforms(seed, trials):
    """Standard uniforms of trials [0, trials), shape (trials, 4), from numpy
    alone: one draw of the seed's PCG64DXSM stream."""
    return np.random.Generator(np.random.PCG64DXSM(seed)).random((trials, 4))


class TestStreamDefinition:
    """Trial t takes draws 4t..4t+3 of ``Generator(PCG64DXSM(seed)).random``.

    The expected rows come from numpy alone, in one draw from trial 0, so
    a change to the bit generator, its seeding or the order of the chunks
    shows here whatever ``_chunks`` does.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2025, 2**64 - 1])
    @pytest.mark.parametrize("trials", [1, 37, 1000, KERNEL_TRIALS, 100_003])
    def test_chunks_are_rows_of_one_stream(self, seed, trials):
        chunks = [(lo, hi, draws.copy()) for lo, hi, draws in mc_mod._chunks(McConfig(trials, seed))]
        bounds = [0] + [hi for _, hi, _ in chunks]
        assert [lo for lo, _, _ in chunks] == bounds[:-1] and bounds[-1] == trials
        assert all(hi - lo == mc_mod._CHUNK_TRIALS for lo, hi, _ in chunks[:-1])
        assert np.array_equal(np.vstack([draws for *_, draws in chunks]), uniforms(seed, trials))


# every Monte Carlo entry point, as a function of a configuration and an McConfig
ENTRY_POINTS = {
    "simulate_sops": lambda cfg, mc: simulate_sops((cfg, cfg), mc, ["pas", "fpa"]),
    "simulate_sop_pas": simulate_sop_pas,
    "simulate_sop_fpa": simulate_sop_fpa,
    "simulate_lower_bound_event": simulate_lower_bound_event,
    "sample_snr_eve": sample_snr_eve,
    "sample_offset_sq": sample_offset_sq,
}


class TestOneStream:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_one_generator_per_call_at_the_seed(self, cfg10, monkeypatch, entry):
        # no computation reads workers: a call opens its seed's one stream,
        # starts no thread, and gives what workers=1 gives
        call = ENTRY_POINTS[entry]
        expected = call(cfg10, McConfig(trials=50_000, seed=14))
        opened = []
        original = np.random.PCG64DXSM

        def counted(seed):
            opened.append(seed)
            return original(seed)

        def refuse(thread):
            raise AssertionError("Monte Carlo started a thread")

        monkeypatch.setattr(np.random, "PCG64DXSM", counted)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = call(cfg10, McConfig(trials=50_000, seed=14, workers=3))
        assert opened == [14]
        if isinstance(expected, np.ndarray):
            assert np.array_equal(got, expected)
        else:
            assert got == expected

    def test_same_seed_same_estimate(self, cfg10):
        mc = McConfig(trials=50_000, seed=11)
        assert (
            simulate_sop_pas(cfg10, mc).estimate == simulate_sop_pas(cfg10, mc).estimate
        )

    def test_different_seeds_differ(self, cfg10):
        a = simulate_sop_pas(cfg10, McConfig(trials=50_000, seed=12))
        b = simulate_sop_pas(cfg10, McConfig(trials=50_000, seed=13))
        assert a.estimate != b.estimate


def reference_coordinates(cfg, trials=KERNEL_TRIALS, seed=KERNEL_SEED):
    """x1, y1, x2, y2 by the out-of-place expressions, in one unchunked draw."""
    coords = (uniforms(seed, trials) - 0.5) * cfg.region_side
    return coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]


def reference_events(cfg):
    """The pinching and fixed-position outage events, per trial, by system name.

    Written out of place, one expression per SNR, in the operations and
    order of the event kernels; the outage is gb - C*ge <= C - 1.
    """
    x1, y1, x2, y2 = reference_coordinates(cfg)
    s, h2, c = cfg.effective_snr, cfg.height**2, cfg.rate_threshold
    bob = s / (y1**2 + h2)
    eve = s / ((x1 - x2) ** 2 + y2**2 + h2)
    fpa1, fpa2 = s / (x1**2 + y1**2 + h2), s / (x2**2 + y2**2 + h2)
    with np.errstate(over="ignore"):
        pas = bob - c * eve <= c - 1.0
        fpa = fpa1 - c * fpa2 <= c - 1.0
    return {"pas": pas, "fpa": fpa}


def reference_floor_moments(cfg):
    """The exact means of g and g^2 over the trials, g = max(0, 1 - 2 sqrt(w)/D)
    the floor event's probability given the offset w, written out of place."""
    x1, _, x2, y2 = reference_coordinates(cfg)
    g = np.maximum(1.0 - np.sqrt((x1 - x2) ** 2 + y2**2) * (2.0 / cfg.region_side), 0.0)
    return math.fsum(g) / g.size, math.fsum(g * g) / g.size


class TestReusedDrawBuffer:
    """Chunks drawn into one reused buffer, and events evaluated in one
    reused workspace, reproduce an unchunked out-of-place evaluation bit
    for bit, at the configuration that fills the workspace and at another
    transmit power that only divides by its denominators."""

    CONFIGS = [
        dict(),
        dict(region_side=30.0, power_dbm=20.0, rate=1.0),
        dict(region_side=100.0, height=1.0, power_dbm=40.0, rate=2.0),
        # SNRs of order 1e-6: 1 + snr keeps only about ten of their digits
        dict(power_dbm=-60.0, rate=0.0),
        # SNRs of order 1e-15: 1 + snr keeps about one
        dict(power_dbm=-150.0, rate=0.0),
        # C = 2^1020, so C*ge overflows to inf inside the in-place multiply
        dict(rate=1020.0),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_chunk_coordinates_and_events_bitwise(self, overrides):
        cfg = make_config(**overrides)
        louder = make_config(**{**overrides, "power_dbm": overrides.get("power_dbm", 30.0) + 20.0})
        coords = np.column_stack(reference_coordinates(cfg))
        expected, expected_louder = reference_events(cfg), reference_events(louder)
        mc = McConfig(KERNEL_TRIALS, KERNEL_SEED)
        workspace = mc_mod._workspace(mc_mod._CHUNK_TRIALS, rescaled=True)
        # a call that rescales nothing sums the denominators in the SNR columns
        in_place = mc_mod._workspace(mc_mod._CHUNK_TRIALS, rescaled=False)
        assert in_place[3] is in_place[0] and in_place[4] is in_place[1]
        assert all(column.ctypes.data % 64 == 0 for column in workspace + in_place)
        buffer = mc_mod._aligned((mc_mod._CHUNK_TRIALS, 4))
        stream = uniforms(KERNEL_SEED, KERNEL_TRIALS)
        for start, stop, draws in mc_mod._chunks(mc):
            assert draws.ctypes.data % 64 == 0
            assert np.array_equal(draws, stream[start:stop])
            chunk = mc_mod._coordinates(draws, cfg.region_side, buffer[: stop - start])
            assert np.array_equal(chunk, coords[start:stop])
            # mapped in place, as for configurations of one region side
            assert np.array_equal(mc_mod._coordinates(draws, cfg.region_side, draws), chunk)
            work = tuple(column[: stop - start] for column in workspace)
            alone = tuple(column[: stop - start] for column in in_place)
            for name, mask in expected.items():
                share = mc_mod._OUTAGES[name]
                share(*chunk.T, cfg, alone)
                assert np.array_equal(mc_mod._outage(cfg, alone), mask[start:stop]), name
                share(*chunk.T, cfg, work)
                # the two SNRs and the two denominators
                kept = work[:2] + work[3:5]
                shared = [column.copy() for column in kept]
                got = mc_mod._outage(cfg, work)
                assert got is work[-1], name
                assert np.array_equal(got, mask[start:stop]), name
                # the test leaves the shared columns for the next rate
                assert all(np.array_equal(a, b) for a, b in zip(shared, kept)), name
                mc_mod._rescale_snrs(louder, work)
                # the divide leaves the denominators for the next power
                assert all(np.array_equal(a, b) for a, b in zip(shared[2:], kept[2:])), name
                got = mc_mod._outage(louder, work)
                assert np.array_equal(got, expected_louder[name][start:stop]), name
        assert stop == KERNEL_TRIALS

    def test_estimates_equal_reference_counts(self, cfg30):
        mc = McConfig(trials=KERNEL_TRIALS, seed=KERNEL_SEED)
        expected = reference_events(cfg30)
        for simulate, name in ((simulate_sop_pas, "pas"), (simulate_sop_fpa, "fpa")):
            count = np.count_nonzero(expected[name])
            assert simulate(cfg30, mc).estimate == count / KERNEL_TRIALS

    @pytest.mark.parametrize("overrides", [dict(), dict(region_side=30.0, height=7.5)])
    def test_floor_estimate_is_the_mean_of_g(self, overrides):
        cfg = make_config(**overrides)
        n = KERNEL_TRIALS
        res = simulate_lower_bound_event(cfg, McConfig(n, KERNEL_SEED))
        mean, mean_sq = reference_floor_moments(cfg)
        # each g and g^2 is rounded to a multiple of 2^-40, so each sum moves
        # by at most n 2^-41, and each mean by 2^-41
        assert abs(res.estimate - mean) <= 2.0**-41 + math.ulp(mean)
        # the variance then moves by at most 3 * 2^-41, the standard error
        # sqrt(var / n) by far less at this n
        stderr = math.sqrt((mean_sq - mean * mean) / n)
        assert abs(res.stderr - stderr) <= 2.0**-41
        assert (res.trials, res.seed) == (n, KERNEL_SEED)

    def test_sample_transforms_bitwise(self, cfg30):
        mc = McConfig(trials=KERNEL_TRIALS, seed=KERNEL_SEED)
        x1, _, x2, y2 = reference_coordinates(cfg30)
        assert np.array_equal(sample_snr_eve(cfg30, mc), snr_eve_pinching(x1, x2, y2, cfg30))
        assert np.array_equal(sample_offset_sq(cfg30, mc), (x1 - x2) ** 2 + y2**2)

    def test_shared_pass_equals_one_system_calls(self, cfg30):
        mc = McConfig(trials=KERNEL_TRIALS, seed=KERNEL_SEED)
        pas, fpa = simulate_sop_pas(cfg30, mc), simulate_sop_fpa(cfg30, mc)
        assert simulate_sops((cfg30,), mc, ("pas", "fpa")) == ((pas, fpa),)
        assert simulate_sops((cfg30,), mc, ("fpa", "pas")) == ((fpa, pas),)
        assert simulate_sops((cfg30,), mc, ("pas",)) == ((pas,),)


# minor page faults per 1e6-trial two-system call at two region sides, in a
# fresh process
FAULTS_PER_CALL = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from pinchsec import McConfig, simulate_sops
from pinchsec.system import reference_config
cfgs = [reference_config(region_side=d) for d in (10.0, 30.0)]
mc, calls = McConfig(1_000_000, 1), 3
simulate_sops(cfgs, mc, ["pas", "fpa"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    simulate_sops(cfgs, mc, ["pas", "fpa"])
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc settings")
class TestHeapIndependence:
    """Monte Carlo allocates per call, not per chunk, so its cost does not
    hang on where the allocator puts chunk-sized temporaries."""

    def test_minor_faults_per_call_with_a_low_mmap_threshold(self):
        # a fixed 64 KiB threshold maps every 128 KiB chunk temporary afresh,
        # 32 faults each: one per chunk alone would pass 1000 (62 chunks),
        # where the per-call buffers, the coordinate buffer of the second
        # side included, cost about 330
        src = str(Path(mc_mod.__file__).parents[1])
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "65536"}
        done = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_CALL, src], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 1000


class TestSimulateSopsSystems:
    """``simulate_sops`` checks its system names before drawing anything."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "_generator", None)  # drawing would raise

    @pytest.mark.parametrize("systems", [["pas", "bogus"], ["PAS"], ("fpa", None)])
    def test_unknown_name_is_value_error(self, cfg10, no_draws, systems):
        with pytest.raises(ValueError, match="'pas' and 'fpa'"):
            simulate_sops((cfg10,), McConfig(1000, 1), systems)

    @pytest.mark.parametrize("systems", ["pas", "fpa", ""])
    def test_bare_string_is_value_error(self, cfg10, no_draws, systems):
        with pytest.raises(ValueError, match="'pas' and 'fpa'"):
            simulate_sops((cfg10,), McConfig(1000, 1), systems)

    @pytest.mark.parametrize("systems", [[], ()])
    def test_no_systems_draw_nothing(self, cfg10, no_draws, systems):
        assert simulate_sops((cfg10, cfg10), McConfig(2_000_000, 1), systems) == ((), ())

    @pytest.mark.parametrize("cfgs", [[], ()])
    def test_no_configurations_draw_nothing(self, no_draws, cfgs):
        assert simulate_sops(cfgs, McConfig(2_000_000, 1), ["pas", "fpa"]) == ()

    @pytest.mark.parametrize(
        "once", [lambda: (s for s in ["pas"]), lambda: iter(["pas"])], ids=["generator", "iterator"]
    )
    def test_one_shot_iterable_of_systems_is_read_once(self, cfg10, once):
        mc = McConfig(1000, 1)
        assert simulate_sops((cfg10,), mc, once()) == simulate_sops((cfg10,), mc, ["pas"])
        assert simulate_sops((cfg10,), mc, once()) == ((simulate_sop_pas(cfg10, mc),),)

    def test_one_shot_iterable_error_names_what_was_read(self, cfg10, no_draws):
        with pytest.raises(ValueError, match=r"got \('pas', 'bogus'\)$"):
            simulate_sops((cfg10,), McConfig(1000, 1), (s for s in ["pas", "bogus"]))

    @pytest.mark.parametrize("systems", [[["pas"]], ["pas", {"fpa": 1}]])
    def test_unhashable_name_is_value_error(self, cfg10, no_draws, systems):
        with pytest.raises(ValueError, match="'pas' and 'fpa'"):
            simulate_sops((cfg10,), McConfig(1000, 1), systems)

    def test_one_configuration_is_type_error(self, cfg10, no_draws):
        with pytest.raises(TypeError, match="not iterable"):
            simulate_sops(cfg10, McConfig(1000, 1), ["pas"])


# the points of a power, a rate and a region sweep, configurations whose
# region sides are not in runs (10, 30, 10), groups that differ only in the
# rate (rate 0, and 1020, where C*ge overflows) interleaved with other
# powers, heights and sides, and geometries shared by several powers
# (-60 to 120 dBm) and rates, interleaved with other heights and sides
SWEEPS = {
    "power": [config_at(make_config(), Axis.POWER_DBM, p) for p in (0.0, 20.0, 40.0)],
    "rate": [config_at(make_config(region_side=30.0), Axis.RATE, r) for r in (0.1, 1.0, 2.0)],
    "region": [config_at(make_config(), Axis.REGION_SIDE, d) for d in (5.0, 10.0, 30.0)],
    "mixed": [make_config(), make_config(region_side=30.0, power_dbm=20.0), make_config(rate=1.0)],
    "rate-groups": [
        make_config(rate=0.0),
        make_config(region_side=30.0, rate=1.0),
        make_config(rate=1020.0),
        make_config(height=7.0, rate=0.5),
        make_config(power_dbm=40.0, rate=0.0),
        make_config(rate=2.0),
        make_config(region_side=30.0, rate=0.0),
        make_config(height=7.0, rate=1020.0),
        make_config(power_dbm=40.0, rate=1.0),
    ],
    "power-groups": [
        make_config(power_dbm=-60.0, rate=0.0),
        make_config(region_side=30.0, power_dbm=120.0),
        make_config(power_dbm=120.0, rate=1020.0),
        make_config(height=7.0, power_dbm=0.0),
        make_config(power_dbm=20.0, rate=1.0),
        make_config(region_side=30.0, power_dbm=-60.0, rate=1020.0),
        make_config(power_dbm=-60.0, rate=1.0),
        make_config(height=7.0, power_dbm=120.0, rate=0.0),
        make_config(power_dbm=120.0, rate=0.5),
    ],
}


class TestChunkSizeInvariance:
    """The chunk size is a cache setting: no count or sample depends on it."""

    TRIALS = 300_007  # a multiple of no chunk size below
    CHUNKS = (1 << 10, 1 << 14, 1 << 17)

    @pytest.mark.parametrize("sweep", list(SWEEPS))
    def test_each_configuration_equals_its_own_call(self, sweep, monkeypatch):
        cfgs = SWEEPS[sweep]
        mc = McConfig(trials=self.TRIALS, seed=KERNEL_SEED)
        alone = tuple(simulate_sops((cfg,), mc, ["pas", "fpa"])[0] for cfg in cfgs)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(mc_mod, "_CHUNK_TRIALS", chunk)
            assert simulate_sops(cfgs, mc, ["pas", "fpa"]) == alone, chunk

    @pytest.mark.parametrize(
        "axis,x_values,geometries,powers",
        [
            (Axis.RATE, (0.0, 0.5, 1.0, 1.5, 2.0), 1, 1),
            (Axis.POWER_DBM, (0.0, 10.0, 20.0, 30.0, 40.0), 1, 5),
            (Axis.REGION_SIDE, (5.0, 10.0, 15.0, 20.0, 30.0), 5, 1),
        ],
        ids=["rate", "power-dbm", "region"],
    )
    def test_snrs_once_per_chunk_group_and_system(
        self, axis, x_values, geometries, powers, monkeypatch
    ):
        # the SNR formulas run once per chunk, (region side, height) and
        # system: five rates share their SNRs, five powers their denominators,
        # each further power dividing by them; five region sides share nothing
        cfgs = [config_at(make_config(), axis, x) for x in x_values]
        mc = McConfig(trials=2 * mc_mod._CHUNK_TRIALS + 7, seed=KERNEL_SEED)
        expected = simulate_sops(cfgs, mc, ["pas", "fpa"])
        names = ("snr_bob_pinching", "snr_eve_pinching", "snr_fpa", "snr_at_distance_sq")
        calls = {name: 0 for name in names}

        def counted(name, kernel):
            def call(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(mc_mod, name, counted(name, getattr(mc_mod, name)))
        assert simulate_sops(cfgs, mc, ["pas", "fpa"]) == expected
        per_system = 3 * geometries  # three chunks
        # pas: snr_bob_pinching and snr_eve_pinching; fpa: snr_fpa for each
        # receiver; each further power: one divide per receiver and system,
        # and none where a geometry has one power
        assert calls == {
            "snr_bob_pinching": per_system,
            "snr_eve_pinching": per_system,
            "snr_fpa": 2 * per_system,
            "snr_at_distance_sq": 3 * 2 * 2 * (powers - 1),
        }

    def test_bitwise_across_chunk_sizes(self, cfg30, monkeypatch):
        mc = McConfig(trials=self.TRIALS, seed=KERNEL_SEED)
        runs = {}
        for chunk in self.CHUNKS:
            monkeypatch.setattr(mc_mod, "_CHUNK_TRIALS", chunk)
            runs[chunk] = (
                simulate_sops((cfg30,), mc, ["pas", "fpa"]),
                simulate_lower_bound_event(cfg30, mc),
                sample_snr_eve(cfg30, mc),
                sample_offset_sq(cfg30, mc),
            )
        sops, bound, eve, offset = runs[1 << 17]
        for where, (other_sops, other_bound, other_eve, other_offset) in runs.items():
            assert other_sops == sops and other_bound == bound, where
            assert np.array_equal(other_eve, eve) and np.array_equal(other_offset, offset), where


class TestResultContract:
    def test_stderr_formula(self, cfg10):
        res = simulate_sop_pas(cfg10, McConfig(trials=40_000, seed=14))
        assert 0.0 <= res.estimate <= 1.0
        assert res.stderr == math.sqrt(res.estimate * (1.0 - res.estimate) / res.trials)
        assert res.stderr <= 0.5 / math.sqrt(res.trials)
        assert res.trials == 40_000 and res.seed == 14

    def test_saturated_outage(self):
        cfg = make_config(power_dbm=-30.0, rate=12.0)
        res = simulate_sop_pas(cfg, McConfig(trials=10_000, seed=15))
        assert res.estimate == 1.0
        assert simulate_sop_fpa(cfg, McConfig(trials=10_000, seed=15)).estimate == 1.0


class TestAgainstAnalytics:
    def test_pas_matches_chebyshev_spot_grid(self):
        for power in (0.0, 20.0, 40.0):
            for rate in (0.1, 1.0):
                cfg = make_config(power_dbm=power, rate=rate)
                mc = simulate_sop_pas(cfg, McConfig(trials=100_000, seed=16))
                cheb = sop_chebyshev(cfg, 100).value
                assert abs(mc.estimate - cheb) <= max(3.0 * mc.stderr, 0.01), (
                    f"P={power} R={rate}: mc={mc.estimate} cheb={cheb}"
                )

    def test_fpa_respects_half_floor(self, cfg10, cfg30):
        grid = [make_config(region_side=d, rate=r) for d in (10.0, 30.0) for r in (0.1, 0.5, 1.0)]
        for cfg in (cfg10, cfg30, *grid):
            res = simulate_sop_fpa(cfg, McConfig(trials=100_000, seed=17))
            assert res.estimate >= 0.5 - 3.0 * res.stderr

    def test_pas_beats_fpa_at_fig3_point(self, cfg30):
        pas = simulate_sop_pas(cfg30, McConfig(trials=100_000, seed=18))
        fpa = simulate_sop_fpa(cfg30, McConfig(trials=100_000, seed=19))
        assert fpa.estimate > pas.estimate


class TestLowerBoundEvent:
    def test_matches_constant(self, cfg10):
        res = simulate_lower_bound_event(cfg10, McConfig(trials=1_000_000, seed=20))
        assert abs(res.estimate - LOWER_BOUND_PAS) <= 3.0 * res.stderr

    def test_parameter_free(self):
        mc = McConfig(trials=200_000, seed=21)
        a = simulate_lower_bound_event(make_config(region_side=10.0), mc)
        b = simulate_lower_bound_event(make_config(region_side=30.0, height=7.0), mc)
        sigma = math.hypot(a.stderr, b.stderr)
        assert abs(a.estimate - b.estimate) <= 6.0 * sigma

    def test_clamp_at_the_edge_of_the_event(self, monkeypatch, cfg10):
        # g(w) = max(0, 1 - 2 sqrt(w)/D) is 1 at w = 0, 0 at the event's edge
        # (D/2)^2, and clamped to 0 just above it and at the largest offset
        d = cfg10.region_side
        edge = (d / 2.0) ** 2
        offsets = np.array([0.0, edge, np.nextafter(edge, np.inf), 1.25 * d * d])

        def fill(uniforms, side, out, scratch):
            out[:] = np.resize(offsets, out.size)
            return out

        monkeypatch.setattr(mc_mod, "_offset_sq", fill)
        res = simulate_lower_bound_event(cfg10, McConfig(trials=2 * mc_mod._CHUNK_TRIALS, seed=22))
        assert res.estimate == 0.25


class TestSampleStreams:
    def test_eve_snr_inside_support(self, cfg10):
        samples = sample_snr_eve(cfg10, McConfig(trials=1_000_000, seed=23))
        lo, hi = dist.snr_eve_support(cfg10)
        assert samples.min() >= lo and samples.max() <= hi

    def test_eve_snr_mean_matches_quadrature(self, cfg10):
        samples = sample_snr_eve(cfg10, McConfig(trials=200_000, seed=24))
        lo, hi = dist.snr_eve_support(cfg10)
        mean_expected, _ = integrate.quad(
            lambda z: z * dist.pdf_snr_eve(z, cfg10),
            lo,
            hi,
            points=list(dist._snr_knots(cfg10)[1:3]),
            limit=200,
        )
        sem = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - mean_expected) <= 3.0 * sem

    def test_eve_snr_histogram_chi2(self, cfg10):
        n = 200_000
        samples = sample_snr_eve(cfg10, McConfig(trials=n, seed=25))
        lo, hi = dist.snr_eve_support(cfg10)
        edges = np.linspace(lo, hi, 201)
        observed, _ = np.histogram(samples, bins=edges)
        expected = np.array(
            [
                n
                * integrate.quad(
                    lambda z: dist.pdf_snr_eve(z, cfg10), a, b, limit=100
                )[0]
                for a, b in zip(edges[:-1], edges[1:])
            ]
        )
        # every bin expects at least 5 counts (Cochran's rule)
        assert (expected >= 5.0).all(), f"sparsest bin expects {expected.min():.2f}"
        expected *= observed.sum() / expected.sum()
        chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
        critical = float(stats.chi2.ppf(0.99, observed.size - 1))
        assert chi2_stat < critical, f"chi2={chi2_stat:.1f} critical={critical:.1f}"

    def test_offset_samples_ks(self, cfg10):
        samples = sample_offset_sq(cfg10, McConfig(trials=100_000, seed=26))
        res = stats.kstest(samples, lambda t: dist.cdf_offset_sq(t, cfg10))
        assert res.pvalue > 0.01, f"KS D={res.statistic:.3e} p={res.pvalue:.4f}"

    def test_offset_and_snr_streams_consistent(self, cfg10):
        mc = McConfig(trials=10_000, seed=27)
        offs = sample_offset_sq(cfg10, mc)
        snrs = sample_snr_eve(cfg10, mc)
        back = cfg10.effective_snr / (offs + cfg10.height**2)
        assert np.allclose(back, snrs, rtol=1e-12)
