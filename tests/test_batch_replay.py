"""Batched replay is indistinguishable from scalar replay.

The batch engine (:mod:`repro.controller.batch`) vectorizes the
steady-state hot path; its contract is *bit-identical results* — every
statistic, clock, cache line, LRU stamp, NVM byte, and raised error
must match a request-by-request run.  These tests hold it to that
contract across schemes, trees, workload shapes, mid-chunk scalar
fallbacks, and segmented replays, and unit-test the vectorized
helpers against their scalar counterparts.
"""

from __future__ import annotations

import pytest

from repro.config import BLOCK_SIZE, SchemeKind, TreeKind
from repro.controller.factory import build_controller, build_layout
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.sim.engine import run_simulation
from repro.sim.parallel import ParallelSweepExecutor
from repro.sim.result_cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.telemetry.runtime import TelemetrySpec
from repro.traces.profiles import SyntheticProfile
from repro.traces.replay import replay, replay_batched
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

from tests.helpers import small_config

KIB = 1024

UNIFORM = SyntheticProfile(
    name="uniform",
    write_fraction=0.5,
    pattern="random",
    footprint_bytes=256 * KIB,
)
HOT_COLD = SyntheticProfile(
    name="hot_cold",
    write_fraction=0.6,
    pattern="hot_cold",
    footprint_bytes=1024 * KIB,
    hot_bytes=128 * KIB,
    hot_fraction=0.85,
    burst_length=4,
)

BONSAI_SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.OSIRIS,
    SchemeKind.SELECTIVE,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.AGIT_READ,
    SchemeKind.AGIT_PLUS,
]


def _histogram_state(histogram):
    return (
        histogram.count,
        histogram.total,
        histogram._mean,
        histogram._m2,
        histogram.minimum,
        histogram.maximum,
        tuple(histogram._reservoir),
        histogram._stride,
        histogram._skip,
    )


def fingerprint(controller) -> dict:
    """Every observable of a controller, down to LRU stamps."""
    nvm = controller.nvm
    state = {
        "stats": controller.collect_stats(),
        "now": controller.channel.now,
        "busy": controller.channel.busy_until,
        "read_stall": _histogram_state(controller.channel._read_stall),
        "blocks": dict(nvm._blocks),
        "ecc": dict(nvm._ecc),
        "write_counts": dict(nvm._write_counts),
        "wpq": list(controller.wpq.pending_entries()),
    }
    if hasattr(controller, "counter_cache"):
        state["counter_lines"] = [
            (
                line.valid,
                line.address,
                line.dirty,
                line.lru_stamp,
                (line.payload.major, tuple(line.payload.minors))
                if line.valid and hasattr(line.payload, "minors")
                else None,
            )
            for line in controller.counter_cache.cache._lines
        ]
        state["counter_clock"] = controller.counter_cache.cache._clock
        state["merkle_lines"] = [
            (
                line.valid,
                line.address,
                line.dirty,
                line.lru_stamp,
                line.payload.to_bytes() if line.valid else None,
            )
            for line in controller.merkle_cache.cache._lines
        ]
        state["merkle_clock"] = controller.merkle_cache.cache._clock
        state["root"] = controller.engine.root_node.to_bytes()
    return state


def _run(scheme, tree, profile, mode, length=2500, **replay_kwargs):
    controller = build_controller(
        small_config(scheme, tree), keys=ProcessorKeys(7)
    )
    trace = generate_trace(profile, length, seed=41)
    if mode == "scalar":
        oracle = replay(controller, trace)
    else:
        oracle = replay_batched(controller, trace, batch=mode, **replay_kwargs)
    return oracle, fingerprint(controller)


class TestBatchScalarIdentity:
    @pytest.mark.parametrize("scheme", BONSAI_SCHEMES)
    def test_bonsai_schemes_uniform(self, scheme):
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, UNIFORM, "scalar")
        oracle_b, state_b = _run(scheme, TreeKind.BONSAI, UNIFORM, "on")
        assert oracle_b == oracle_s
        assert state_b == state_s

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS]
    )
    def test_bonsai_schemes_hot_cold(self, scheme):
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, HOT_COLD, "scalar")
        oracle_b, state_b = _run(scheme, TreeKind.BONSAI, HOT_COLD, "on")
        assert oracle_b == oracle_s
        assert state_b == state_s

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.WRITE_BACK, SchemeKind.ASIT]
    )
    def test_sgx_tree_falls_back_identically(self, scheme):
        # The batch engine only covers Bonsai; SGX must silently run
        # the scalar path with identical results.
        oracle_s, state_s = _run(scheme, TreeKind.SGX, UNIFORM, "scalar")
        oracle_b, state_b = _run(scheme, TreeKind.SGX, UNIFORM, "on")
        assert oracle_b == oracle_s
        assert state_b == state_s

    def test_auto_mode_identical(self):
        oracle_s, state_s = _run(
            SchemeKind.WRITE_BACK, TreeKind.BONSAI, HOT_COLD, "scalar"
        )
        oracle_a, state_a = _run(
            SchemeKind.WRITE_BACK, TreeKind.BONSAI, HOT_COLD, "auto"
        )
        assert oracle_a == oracle_s
        assert state_a == state_s

    def test_off_mode_is_scalar(self):
        oracle_s, state_s = _run(
            SchemeKind.OSIRIS, TreeKind.BONSAI, UNIFORM, "scalar"
        )
        oracle_o, state_o = _run(
            SchemeKind.OSIRIS, TreeKind.BONSAI, UNIFORM, "off"
        )
        assert oracle_o == oracle_s
        assert state_o == state_s


class TestScalarWindows:
    @pytest.mark.parametrize("scheme", [SchemeKind.WRITE_BACK, SchemeKind.OSIRIS])
    def test_mid_chunk_windows_identical(self, scheme):
        # Windows that start and end inside chunks force the engine to
        # stop batching mid-chunk, run scalar, and resume — exactly what
        # crash/fault campaigns do around injection points.
        windows = [(137, 171), (400, 403), (1201, 1790), (2490, 2500)]
        oracle_s, state_s = _run(scheme, TreeKind.BONSAI, UNIFORM, "scalar")
        oracle_b, state_b = _run(
            scheme,
            TreeKind.BONSAI,
            UNIFORM,
            "on",
            scalar_windows=windows,
            chunk_size=256,
        )
        assert oracle_b == oracle_s
        assert state_b == state_s

    def test_overlapping_and_clipped_windows(self):
        windows = [(-50, 10), (5, 30), (2400, 9999), (100, 100)]
        oracle_s, state_s = _run(
            SchemeKind.AGIT_PLUS, TreeKind.BONSAI, UNIFORM, "scalar"
        )
        oracle_b, state_b = _run(
            SchemeKind.AGIT_PLUS,
            TreeKind.BONSAI,
            UNIFORM,
            "on",
            scalar_windows=windows,
            chunk_size=128,
        )
        assert oracle_b == oracle_s
        assert state_b == state_s


class TestSegmentedReplay:
    def test_start_stop_segments_equal_one_pass(self):
        # The fault campaign replays segment-by-segment, pausing at
        # snapshot boundaries; the concatenation must equal one pass.
        trace = generate_trace(UNIFORM, 2500, seed=41)
        whole = build_controller(
            small_config(SchemeKind.OSIRIS), keys=ProcessorKeys(7)
        )
        oracle_whole = replay_batched(whole, trace, batch="on")

        parts = build_controller(
            small_config(SchemeKind.OSIRIS), keys=ProcessorKeys(7)
        )
        oracle_parts: dict = {}
        position = 0
        for boundary in (1, 137, 1000, 1003, 2400, 2500):
            replay_batched(
                parts, trace, oracle=oracle_parts, batch="on",
                start=position, stop=boundary,
            )
            position = boundary
        assert oracle_parts == oracle_whole
        assert fingerprint(parts) == fingerprint(whole)

    def test_empty_and_clamped_ranges(self):
        trace = generate_trace(UNIFORM, 100, seed=3)
        controller = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        before = fingerprint(controller)
        assert replay_batched(controller, trace, start=50, stop=50) == {}
        assert replay_batched(controller, trace, start=90, stop=10) == {}
        assert fingerprint(controller) == before
        replay_batched(controller, trace, start=-5, stop=10 ** 9)
        reference = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        replay(reference, trace)
        assert fingerprint(controller) == fingerprint(reference)


class TestEngineAndKnob:
    def test_run_simulation_batch_parity(self):
        config = small_config(SchemeKind.WRITE_BACK)
        trace = generate_trace(UNIFORM, 2000, seed=9)
        scalar = run_simulation(config, trace, ProcessorKeys(2), batch="off")
        batched = run_simulation(config, trace, ProcessorKeys(2), batch="on")
        assert batched.to_dict() == scalar.to_dict()

    def test_telemetry_runs_force_scalar_with_identical_events(self):
        # A live tracer makes batch_supported() False: the event stream
        # must be the full per-access one, whatever the knob says.
        config = small_config(SchemeKind.OSIRIS)
        trace = generate_trace(UNIFORM, 600, seed=9)
        spec = TelemetrySpec(events=True)
        scalar = run_simulation(
            config, trace, ProcessorKeys(2), telemetry=spec, batch="off"
        )
        batched = run_simulation(
            config, trace, ProcessorKeys(2), telemetry=spec, batch="on"
        )
        assert batched.events == scalar.events
        assert batched.to_dict() == scalar.to_dict()

    def test_check_reads_runs_scalar_and_verifies(self):
        controller = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        trace = generate_trace(UNIFORM, 500, seed=4)
        oracle = replay_batched(controller, trace, check_reads=True)
        reference = build_controller(
            small_config(SchemeKind.WRITE_BACK), keys=ProcessorKeys(7)
        )
        assert replay(reference, trace) == oracle

    def test_executor_batch_validation(self):
        assert ParallelSweepExecutor(1).batch == "auto"
        executor = ParallelSweepExecutor(1, batch="on")
        assert executor.batch == "on"
        assert executor.with_overrides(jobs=1).batch == "on"
        assert executor.with_overrides(batch="off").batch == "off"
        with pytest.raises(ConfigError):
            ParallelSweepExecutor(1, batch="turbo")
        with pytest.raises(ConfigError):
            replay_batched(
                build_controller(small_config(), keys=ProcessorKeys(1)),
                generate_trace(UNIFORM, 10, seed=1),
                batch="sideways",
            )


class TestResultCacheKeys:
    def test_schema_version_bumped_for_stamped_keys(self):
        assert CACHE_SCHEMA_VERSION == 2

    def test_batch_mode_never_enters_keys(self, tmp_path):
        cells = [
            (
                small_config(SchemeKind.WRITE_BACK),
                generate_trace(UNIFORM, 50, seed=1),
            )
        ]
        cold = ResultCache(str(tmp_path))
        ParallelSweepExecutor(1, batch="on", cache=cold).run_simulations(
            cells, ProcessorKeys(3)
        )
        warm = ResultCache(str(tmp_path))
        ParallelSweepExecutor(1, batch="off", cache=warm).run_simulations(
            cells, ProcessorKeys(3)
        )
        assert (cold.stores, warm.hits, warm.misses) == (1, 1, 0)

    def test_code_stamp_scopes_keys(self, tmp_path):
        plain = ResultCache(str(tmp_path / "a"))
        stamped = ResultCache(str(tmp_path / "b"), code_stamp="rev1")
        stamped_same = ResultCache(str(tmp_path / "c"), code_stamp="rev1")
        stamped_other = ResultCache(str(tmp_path / "d"), code_stamp="rev2")
        parts = ("simulation-result", "digest", 3, None)
        assert stamped.key(*parts) == stamped_same.key(*parts)
        assert stamped.key(*parts) != plain.key(*parts)
        assert stamped.key(*parts) != stamped_other.key(*parts)

    def test_stamped_cache_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path), code_stamp="rev1")
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        assert cache.get(key, kind="simulation-result") == {"value": 1}
        other = ResultCache(str(tmp_path), code_stamp="rev2")
        miss = other.key("simulation-result", "x")
        assert miss != key
        assert other.get(miss, kind="simulation-result") is None


class TestVectorizedHelpers:
    def test_decompose_batch_matches_scalar(self):
        np = pytest.importorskip("numpy")
        layout = build_layout(small_config())
        addresses = np.array(
            [
                0,
                64,
                4096,
                layout.data.end - BLOCK_SIZE,
                layout.data.end,  # out of range
                -64,  # negative
                65,  # misaligned
                BLOCK_SIZE * 1000,
            ],
            dtype=np.int64,
        )
        valid, caddr, cslot, cindex = layout.decompose_batch(addresses)
        for j, address in enumerate(addresses.tolist()):
            if valid[j]:
                assert caddr[j] == layout.counter_block_for(address)
                assert cslot[j] == layout.counter_slot_for(address)
            else:
                with pytest.raises(Exception):
                    layout.check_data_address(address)

    def test_classify_chunk_matches_contains(self):
        np = pytest.importorskip("numpy")
        controller = build_controller(
            small_config(), keys=ProcessorKeys(1)
        )
        trace = generate_trace(UNIFORM, 400, seed=8)
        replay(controller, trace)
        cache = controller.counter_cache
        probe = np.array(
            [request.address for request in trace][:200], dtype=np.int64
        )
        counters = np.array(
            [
                controller.layout.counter_block_for(int(address))
                for address in probe.tolist()
            ],
            dtype=np.int64,
        )
        resident = cache.classify_chunk(counters)
        for j, address in enumerate(counters.tolist()):
            assert bool(resident[j]) == cache.contains(address)

    def test_to_columns_round_trip(self):
        trace = generate_trace(HOT_COLD, 300, seed=5)
        columns = trace.to_columns()
        if columns is None:
            pytest.skip("numpy unavailable")
        assert columns.length == len(trace)
        rebuilt = Trace.from_columns(trace.name, columns)
        assert list(rebuilt) == list(trace)
        assert list(trace.iter_range(50, 120)) == list(trace)[50:120]

    def test_encode_lines_matches_encode_line(self):
        controller = build_controller(small_config(), keys=ProcessorKeys(1))
        ecc = controller.ecc_codec
        lines = [bytes([tag] * BLOCK_SIZE) for tag in range(17)]
        assert ecc.encode_lines(lines) == [
            ecc.encode_line(line) for line in lines
        ]

    def test_warm_pads_is_exact(self):
        from repro.crypto.ctr import CounterModeEngine
        from repro.crypto.keys import ProcessorKeys as Keys

        warmed = CounterModeEngine(Keys(5))
        cold = CounterModeEngine(Keys(5))
        tuples = [(address * 64, 2, minor) for address in range(8)
                  for minor in range(3)]
        warmed.warm_pads(tuples, ecc_length=8)
        plaintext = bytes(range(64))
        for address, major, minor in tuples:
            assert warmed.encrypt(plaintext, address, major, minor) == \
                cold.encrypt(plaintext, address, major, minor)


# ---------------------------------------------------------------------------
# batch-mode inheritance in campaign workers
# ---------------------------------------------------------------------------

class _BatchModeProbeFault:
    """A fault model whose trial record captures the batch mode the
    *worker-side* trial runner ran its warmup with — module-level so
    spawn workers can unpickle it."""

    name = "batch_probe"
    tamper = False
    window = "at_crash"

    def applies_to(self, config):
        return True

    def plan_flush(self, rng, pending):
        return (0, 0)

    def inject(self, rng, ctx):
        import sys

        from repro.faults.models import InjectedFault

        frame = sys._getframe(1)
        while frame.f_code.co_name != "_execute_trials":
            frame = frame.f_back
        return InjectedFault(self.name, f"batch={frame.f_locals['batch']}")


class TestCampaignWorkerBatchMode:
    """``--batch off`` must reach spawn-based campaign workers.

    Spawn workers inherit nothing from the parent: when the mode was a
    process-global setting, ``off`` silently reverted to ``auto``
    inside every worker, so the scalar-exact setting a user asked for
    was only honoured at ``--jobs 1``."""

    def _run(self, mode, jobs):
        from repro.faults.campaign import CampaignConfig, run_campaign

        result = run_campaign(
            CampaignConfig(
                system=small_config(),
                trials=4,
                trace_length=200,
                num_crash_points=2,
                probe_reads=2,
                nested_crash_fraction=0.0,
                catalogue=[_BatchModeProbeFault()],
            ),
            executor=ParallelSweepExecutor(jobs, batch=mode),
        )
        return [trial.description for trial in result.trials]

    def test_off_reaches_spawn_workers(self):
        assert self._run("off", jobs=2) == ["batch=off"] * 4

    def test_on_reaches_spawn_workers(self):
        assert self._run("on", jobs=2) == ["batch=on"] * 4

    def test_serial_path_unchanged(self):
        assert self._run("off", jobs=1) == ["batch=off"] * 4
