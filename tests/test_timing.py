"""Unit tests for the single-channel timing model."""

import pytest

from repro.config import TimingConfig
from repro.mem.timing import MemoryChannel
from repro.util.stats import StatGroup


def make_channel(**kwargs) -> MemoryChannel:
    return MemoryChannel(TimingConfig(**kwargs), StatGroup("t"))


class TestAdvance:
    def test_advance_moves_core_clock(self):
        channel = make_channel()
        channel.advance(100.0)
        assert channel.now == 100.0

    def test_elapsed_includes_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write(2)
        assert channel.elapsed_ns == pytest.approx(300.0)


class TestReads:
    def test_read_stalls_full_latency_when_idle(self):
        channel = make_channel()
        stall = channel.read()
        assert stall == pytest.approx(60.0)
        assert channel.now == pytest.approx(60.0)

    def test_read_queues_behind_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write(1)  # occupies [0, 150)
        stall = channel.read()
        assert stall == pytest.approx(150.0 + 60.0)

    def test_dependent_reads_serialize(self):
        channel = make_channel()
        stall = channel.read(3)
        assert stall == pytest.approx(180.0)

    def test_gap_hides_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write(1)
        channel.advance(200.0)  # compute past the write
        stall = channel.read()
        assert stall == pytest.approx(60.0)


class TestWrites:
    def test_posted_write_does_not_stall(self):
        channel = make_channel()
        stall = channel.write(1)
        assert stall == 0.0
        assert channel.now == 0.0

    def test_posted_write_occupancy_is_discounted(self):
        channel = make_channel(background_write_overlap=0.6)
        channel.write(1)
        assert channel.busy_until == pytest.approx(150.0 * 0.4)

    def test_critical_write_stalls(self):
        channel = make_channel()
        stall = channel.write(1, critical=True)
        assert stall == pytest.approx(150.0)
        assert channel.now == pytest.approx(150.0)

    def test_write_counts(self):
        channel = make_channel()
        channel.write(3)
        assert channel.stats.get("channel_writes") == 3

    @pytest.mark.parametrize("critical", [False, True])
    @pytest.mark.parametrize("gap", [0.0, 37.5, 1000.0])
    def test_batched_writes_equal_single_writes(self, critical, gap):
        # One write(n) must leave exactly the clocks, stall and stats of
        # n write(1) calls (the WPQ drain relies on it).
        batched = make_channel(background_write_overlap=0.3)
        single = make_channel(background_write_overlap=0.3)
        for channel in (batched, single):
            channel.write(2)
            channel.advance(gap)
        stall = batched.write(5, critical=critical)
        assert stall == sum(single.write(1, critical=critical) for _ in range(5))
        assert (batched.now, batched.busy_until) == (
            single.now,
            single.busy_until,
        )
        assert batched.stats.as_dict() == single.stats.as_dict()

    def test_zero_writes_are_free(self):
        channel = make_channel()
        assert channel.write(0) == 0.0
        assert channel.busy_until == 0.0
        assert channel.stats.get("channel_writes") == 0


class TestHashLatency:
    def test_hash_advances_core(self):
        channel = make_channel()
        channel.hash_latency(2)
        assert channel.now == pytest.approx(80.0)


class TestReset:
    def test_reset_zeroes_clocks(self):
        channel = make_channel()
        channel.read()
        channel.write(1)
        channel.reset()
        assert channel.now == 0.0
        assert channel.busy_until == 0.0
