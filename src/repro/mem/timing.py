"""Single-channel memory timing model.

The paper's overhead numbers come from *extra memory traffic* competing
with demand traffic for the PCM channel.  We model that directly: one
channel services read and write events in order; reads stall the core
until they complete, writes are posted (the core continues) but occupy
the channel, delaying subsequent events.  This is the standard simple
contention model and reproduces why strict persistence (~10+ writes per
store) devastates performance while Anubis's one extra write per store
barely registers.

Bank-level parallelism and write buffering are folded into a configurable
``write_overlap`` factor: that fraction of a posted write's occupancy is
hidden (§2.7 notes WPQ entries drain concurrently across banks).
"""

from __future__ import annotations

from repro.config import TimingConfig
from repro.util.stats import StatGroup


class MemoryChannel:
    """Accounts time for a stream of read/write events.

    The channel keeps two clocks: ``now`` (core time, advanced by the
    caller with compute gaps and read stalls) and ``busy_until`` (when
    the channel finishes its queued work).
    """

    def __init__(self, timing: TimingConfig, stats: StatGroup) -> None:
        self.timing = timing
        self.stats = stats
        self.now = 0.0
        self.busy_until = 0.0
        self._reads = stats.counter("channel_reads")
        self._writes = stats.counter("channel_writes")
        self._read_stall = stats.histogram("read_stall_ns")

    def advance(self, gap_ns: float) -> None:
        """Advance core time by a compute gap between memory accesses."""
        self.now += gap_ns

    def read(self, count: int = 1) -> float:
        """Issue ``count`` dependent demand reads; returns total stall.

        The core blocks until the data returns, so the channel's backlog
        is exposed directly as stall time.
        """
        now = self.now
        busy_until = self.busy_until
        read_ns = self.timing.nvm_read_ns
        stall = 0.0
        for _ in range(count):
            done = (busy_until if busy_until > now else now) + read_ns
            stall += done - now
            now = busy_until = done
        self.now = now
        self.busy_until = busy_until
        if count > 0:
            self._reads.value += count
        self._read_stall.observe(stall)
        return stall

    def write(self, count: int = 1, critical: bool = False) -> float:
        """Issue ``count`` writes.

        Posted writes (``critical=False``) occupy the channel for the
        non-overlapped fraction of the write latency but return
        immediately to the core.  Critical writes (a persist the core
        must wait for, e.g. an eviction that blocks a fill) stall the
        core for the full latency.
        """
        if not critical:
            # ``now`` is fixed here, so each posted write just extends
            # the backlog by the same occupancy.
            occupancy = self.timing.nvm_write_ns * (
                1.0 - self.timing.background_write_overlap
            )
            now = self.now
            busy_until = self.busy_until
            for _ in range(count):
                busy_until = max(busy_until, now) + occupancy
            self.busy_until = busy_until
            self._writes.add(max(count, 0))
            return 0.0
        stall = 0.0
        for _ in range(count):
            self._writes.add()
            start = max(self.now, self.busy_until)
            done = start + self.timing.nvm_write_ns
            self.busy_until = done
            stall += done - self.now
            self.now = done
        return stall

    def hash_latency(self, count: int = 1) -> float:
        """Account ``count`` on-chip hash computations (stalls the core
        only when they are on the verification critical path)."""
        delay = count * self.timing.hash_ns
        self.now += delay
        return delay

    def reset(self) -> None:
        """Zero the clocks (stats are left to their owning group)."""
        self.now = 0.0
        self.busy_until = 0.0

    @property
    def elapsed_ns(self) -> float:
        """Total core time elapsed, including the channel's tail backlog."""
        return max(self.now, self.busy_until)
