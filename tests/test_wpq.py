"""Unit tests for the WPQ, ADR flush, and two-stage commit."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import TimingConfig
from repro.errors import WpqError
from repro.mem.nvm import NvmDevice
from repro.mem.timing import MemoryChannel
from repro.mem.wpq import PersistentRegisters, WritePendingQueue
from repro.util.stats import StatGroup

LINE = bytes(range(64))
OTHER = bytes(64)


@pytest.fixture
def nvm():
    return NvmDevice(64 * 1024)


@pytest.fixture
def channel():
    return MemoryChannel(TimingConfig(), StatGroup("t"))


@pytest.fixture
def wpq(nvm, channel):
    return WritePendingQueue(nvm, channel, entries=4)


class TestWpqBasics:
    def test_insert_is_pending_not_drained(self, wpq, nvm):
        wpq.insert(0, LINE)
        assert len(wpq) == 1
        assert not nvm.is_written(0)

    def test_lookup_forwards(self, wpq):
        wpq.insert(0, LINE)
        assert wpq.lookup(0) == LINE
        assert wpq.lookup(64) is None

    def test_lookup_entry_returns_sideband(self, wpq):
        wpq.insert(0, LINE, b"\x01" * 16)
        data, sideband = wpq.lookup_entry(0)
        assert data == LINE
        assert sideband == b"\x01" * 16

    def test_coalescing_same_address(self, wpq):
        wpq.insert(0, LINE)
        wpq.insert(0, OTHER)
        assert len(wpq) == 1
        assert wpq.lookup(0) == OTHER

    def test_full_queue_drains_oldest(self, wpq, nvm):
        for index in range(5):
            wpq.insert(index * 64, LINE)
        assert len(wpq) == 4
        assert nvm.is_written(0)  # the oldest went to the device

    def test_drain_all(self, wpq, nvm):
        for index in range(3):
            wpq.insert(index * 64, LINE)
        assert wpq.drain_all() == 3
        assert len(wpq) == 0
        assert all(nvm.is_written(index * 64) for index in range(3))

    def test_drain_writes_sideband(self, wpq, nvm):
        wpq.insert(0, LINE, b"\x02" * 16)
        wpq.drain_all()
        assert nvm.read_ecc(0) == b"\x02" * 16

    def test_drain_charges_channel(self, wpq, channel):
        wpq.insert(0, LINE)
        busy_before = channel.busy_until
        wpq.drain_all()
        assert channel.busy_until > busy_before

    def test_rejects_zero_entries(self, nvm, channel):
        with pytest.raises(WpqError):
            WritePendingQueue(nvm, channel, entries=0)


def _system(entries):
    nvm = NvmDevice(64 * 1024)
    channel = MemoryChannel(TimingConfig(), StatGroup("channel"))
    return nvm, channel, WritePendingQueue(nvm, channel, entries, StatGroup("wpq"))


def _drain_one_by_one(wpq):
    """Reference drain: the queue-full path, once per pending entry."""
    drained = 0
    while len(wpq):
        wpq._drain_one()
        drained += 1
    return drained


def _full_state(nvm, channel, wpq):
    return (
        # Item lists, not dicts: the drain order must match too.
        list(nvm._blocks.items()),
        list(nvm._ecc.items()),
        list(nvm._write_counts.items()),
        nvm.stats.as_dict(),
        channel.now,
        channel.busy_until,
        channel.stats.as_dict(),
        wpq.stats.as_dict(),
        wpq.pending_entries(),
    )


_WPQ_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=255),
            st.booleans(),
        ),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=900.0)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("drain_all")),
    ),
    max_size=60,
)


class TestBatchedDrainMatchesPerEntryDrain:
    """``drain_opportunistic``/``drain_all`` pop entries in FIFO order
    and charge the channel once; the result must equal draining the
    same queue one ``_drain_one`` at a time."""

    @given(st.integers(min_value=1, max_value=6), _WPQ_OPS)
    def test_differential(self, entries, ops):
        fast = _system(entries)
        slow = _system(entries)
        for op in ops:
            for nvm, channel, wpq in (fast, slow):
                if op[0] == "insert":
                    _, slot, fill, sideband = op
                    wpq.insert(
                        slot * 64,
                        bytes([fill]) * 64,
                        bytes([fill ^ 0x5A]) * 16 if sideband else None,
                    )
                elif op[0] == "advance":
                    channel.advance(op[1])
            if op[0] == "drain":
                assert fast[2].drain_opportunistic() == _drain_one_by_one(
                    slow[2]
                )
            elif op[0] == "drain_all":
                assert fast[2].drain_all() == _drain_one_by_one(slow[2])
            assert _full_state(*fast) == _full_state(*slow)

    def test_empty_drain_is_free(self):
        nvm, channel, wpq = _system(4)
        assert wpq.drain_opportunistic() == 0
        assert wpq.drain_all() == 0
        assert channel.busy_until == 0.0
        assert channel.stats.get("channel_writes") == 0
        assert wpq.stats.get("drains") == 0

    def test_drain_is_fifo_after_coalescing(self):
        nvm, channel, wpq = _system(4)
        wpq.insert(0, LINE)
        wpq.insert(64, LINE)
        wpq.insert(0, OTHER)  # coalesces and moves to the back
        assert [entry[0] for entry in wpq.pending_entries()] == [64, 0]
        assert wpq.drain_opportunistic() == 2
        assert nvm.read(0) == OTHER
        assert wpq.stats.get("drains") == 2
        assert channel.stats.get("channel_writes") == 2


class TestAdrFlush:
    def test_adr_flush_persists_everything(self, wpq, nvm):
        for index in range(3):
            wpq.insert(index * 64, LINE)
        record = wpq.adr_flush()
        assert record.count == 3
        assert record.flushed == [0, 64, 128]
        assert record.dropped == [] and record.torn == []
        assert all(nvm.is_written(index * 64) for index in range(3))

    def test_adr_flush_costs_no_channel_time(self, wpq, channel):
        wpq.insert(0, LINE)
        busy_before = channel.busy_until
        wpq.adr_flush()
        assert channel.busy_until == busy_before


class TestPersistentRegisters:
    @pytest.fixture
    def pregs(self, wpq):
        return PersistentRegisters(wpq, capacity=4)

    def test_commit_pushes_in_order(self, pregs, wpq):
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.stage(64, OTHER)
        assert pregs.commit() == 2
        assert wpq.lookup(0) == LINE
        assert wpq.lookup(64) == OTHER

    def test_done_bit_cleared_after_commit(self, pregs):
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.commit()
        assert not pregs.done_bit

    def test_restaging_same_address_overwrites(self, pregs, wpq):
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.stage(0, OTHER)
        assert pregs.commit() == 1
        assert wpq.lookup(0) == OTHER

    def test_capacity_enforced(self, pregs):
        pregs.begin()
        for index in range(4):
            pregs.stage(index * 64, LINE)
        with pytest.raises(WpqError):
            pregs.stage(5 * 64, LINE)

    def test_stage_outside_group_rejected(self, pregs):
        with pytest.raises(WpqError):
            pregs.stage(0, LINE)

    def test_commit_without_begin_rejected(self, pregs):
        with pytest.raises(WpqError):
            pregs.commit()

    def test_nested_begin_rejected(self, pregs):
        pregs.begin()
        with pytest.raises(WpqError):
            pregs.begin()

    def test_abort_discards(self, pregs, wpq):
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.abort()
        assert wpq.lookup(0) is None
        pregs.begin()  # usable again

    def test_crash_before_done_bit_loses_group(self, pregs, wpq):
        # §2.7: a crash while still staging means the write never
        # reached the persistent domain — it is lost whole.
        pregs.begin()
        pregs.stage(0, LINE)
        assert pregs.crash_replay() == 0
        assert wpq.lookup(0) is None

    def test_crash_with_done_bit_replays_group(self, pregs, wpq):
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.stage(64, OTHER)
        pregs.done_bit = True  # crash landed mid-copy
        assert pregs.crash_replay() == 2
        assert wpq.lookup(0) == LINE
        assert wpq.lookup(64) == OTHER

    def test_replay_is_idempotent_with_partial_copy(self, pregs, wpq, nvm):
        # Entry 0 already made it to the WPQ before the crash; replaying
        # both entries must still yield exactly the committed values.
        pregs.begin()
        pregs.stage(0, LINE)
        pregs.stage(64, OTHER)
        wpq.insert(0, LINE)
        pregs.done_bit = True
        pregs.crash_replay()
        wpq.adr_flush()
        assert nvm.read(0) == LINE
        assert nvm.read(64) == OTHER
