"""Differential tests for the metadata-miss path's lookups.

The miss path finds a tree address's level by one span test plus a
bisection over ``MemoryLayout.level_bounds``, walks a Bonsai counter's
ancestors by (level, index) arithmetic, and keeps the channel's read
clocks in locals.  Each is checked here against the straightforward
version it replaces: a linear scan over ``level_regions``, the memoized
``path_to_root``, and the per-read loop on the channel's attributes.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    BLOCK_SIZE,
    MemoryConfig,
    TimingConfig,
    TreeKind,
)
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.errors import AlignmentError, LayoutError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.integrity.geometry import path_to_root
from repro.integrity.sgx_tree import SgxTreeEngine
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice
from repro.mem.timing import MemoryChannel
from repro.util.stats import StatGroup

from tests.helpers import MIB, small_config

CAPACITIES = (4 * MIB, 64 * MIB, 256 * MIB)
TREES = (TreeKind.BONSAI, TreeKind.SGX)


@lru_cache(maxsize=None)
def _system(capacity: int, tree: TreeKind):
    layout = MemoryLayout(
        MemoryConfig(capacity_bytes=capacity), tree, metadata_cache_blocks=256
    )
    keys = ProcessorKeys(3)
    bonsai = BonsaiTreeEngine(keys, layout)
    sgx = SgxTreeEngine(keys, layout)
    return layout, bonsai, sgx


def _interesting_addresses(layout: MemoryLayout):
    """Every region edge, one block either side, and a few unaligned
    and out-of-device neighbours."""
    edges = set()
    regions = [
        layout.data, *layout.level_regions, layout.sct, layout.smt, layout.st
    ]
    for region in regions:
        for edge in (region.base, region.end):
            for delta in (-BLOCK_SIZE, -1, 0, 1, BLOCK_SIZE):
                edges.add(edge + delta)
    return sorted(edges)


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as error:  # compared by type and message
        return ("raised", type(error), str(error))


def _scan_locate(layout: MemoryLayout, address: int):
    for level, region in enumerate(layout.level_regions):
        if region.base <= address < region.end:
            return level, (address - region.base) // BLOCK_SIZE
    raise LayoutError(f"address {address:#x} is not a stored tree node")


def _scan_bonsai_default(layout, engine, address):
    for level, region in enumerate(layout.level_regions):
        if region.contains(address):
            return engine.default_node_bytes(level)
    return bytes(BLOCK_SIZE)


def _scan_sgx_default(layout, engine, address):
    for region in layout.level_regions:
        if region.contains(address):
            return engine.default_node().to_bytes()
    return bytes(BLOCK_SIZE)


@st.composite
def system_and_address(draw):
    capacity = draw(st.sampled_from(CAPACITIES))
    tree = draw(st.sampled_from(TREES))
    layout, bonsai, sgx = _system(capacity, tree)
    address = draw(
        st.one_of(
            st.sampled_from(_interesting_addresses(layout)),
            st.integers(-4 * BLOCK_SIZE, layout.total_size + 4 * BLOCK_SIZE),
            st.integers(0, layout.total_size // BLOCK_SIZE).map(
                lambda block: block * BLOCK_SIZE
            ),
        )
    )
    return layout, bonsai, sgx, address


class TestLevelLookups:
    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_level_bounds_are_region_edges(self, capacity, tree):
        layout, _, _ = _system(capacity, tree)
        regions = layout.level_regions
        assert layout.level_bounds == [r.base for r in regions] + [
            regions[-1].end
        ]

    @settings(max_examples=400, deadline=None)
    @given(system_and_address())
    def test_locate_node_equals_linear_scan(self, case):
        layout, _, _, address = case
        assert _outcome(layout.locate_node, address) == _outcome(
            _scan_locate, layout, address
        )

    @settings(max_examples=400, deadline=None)
    @given(system_and_address())
    def test_default_providers_equal_linear_scan(self, case):
        layout, bonsai, sgx, address = case
        assert bonsai.default_provider(address) == _scan_bonsai_default(
            layout, bonsai, address
        )
        assert sgx.default_provider(address) == _scan_sgx_default(
            layout, sgx, address
        )

    def test_every_stored_node_round_trips(self):
        layout, _, _ = _system(4 * MIB, TreeKind.BONSAI)
        for level, count in enumerate(layout.level_counts[:-1]):
            for index in (0, count - 1):
                address = layout.node_address(level, index)
                assert layout.locate_node(address) == (level, index)


class TestNvmReadErrors:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3 * BLOCK_SIZE, 40 * BLOCK_SIZE))
    def test_read_raises_what_check_raises(self, address):
        nvm = NvmDevice(32 * BLOCK_SIZE)
        expected = _outcome(nvm._check, address)
        outcome = _outcome(nvm.read, address)
        if expected[0] == "raised":
            assert outcome == expected
            assert nvm.total_reads == 0
        else:
            assert outcome == ("ok", bytes(BLOCK_SIZE))
            assert nvm.total_reads == 1

    def test_error_types(self):
        nvm = NvmDevice(32 * BLOCK_SIZE)
        with pytest.raises(AlignmentError, match="not 64B-aligned"):
            nvm.read(65)
        with pytest.raises(LayoutError, match="outside device"):
            nvm.read(32 * BLOCK_SIZE)
        with pytest.raises(LayoutError, match="outside device"):
            nvm.read(-BLOCK_SIZE)

    def test_read_uses_the_installed_provider(self):
        nvm = NvmDevice(32 * BLOCK_SIZE)
        nvm.default_provider = lambda address: bytes([address // 64]) * 64
        assert nvm.read(3 * BLOCK_SIZE) == bytes([3]) * 64
        nvm.write(3 * BLOCK_SIZE, bytes([9]) * 64)
        assert nvm.read(3 * BLOCK_SIZE) == bytes([9]) * 64
        assert nvm.total_reads == 2


def _bonsai_controller(capacity: int):
    config = small_config(memory_bytes=capacity, cache_bytes=64 * 1024)
    return build_controller(config, keys=ProcessorKeys(5))


class TestVerifyChainWalk:
    """The ancestors ``_verify_chain`` fetches, and the child slots it
    checks, are ``path_to_root(...)[1:]`` up to the first trusted node."""

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.sampled_from((4 * MIB, 256 * MIB)),
        start_level=st.integers(0, 6),
        index_seed=st.integers(0, 1 << 30),
        warm=st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 1 << 30)), max_size=6
        ),
        writes=st.lists(st.integers(0, 1 << 30), max_size=4),
    )
    def test_fetches_match_path_to_root(
        self, capacity, start_level, index_seed, warm, writes
    ):
        controller = _bonsai_controller(capacity)
        layout = controller.layout
        # Some written counters make the hashes on their paths differ
        # from the defaults, so a wrong slot could not verify by luck.
        for seed in writes:
            line = seed % layout.data.num_blocks
            controller.write(line * BLOCK_SIZE, bytes([seed % 251]) * 64)
        controller.writeback_all()
        controller.drop_volatile()
        stored_levels = layout.root_level
        level = start_level % stored_levels
        index = index_seed % layout.level_counts[level]
        block = layout.node_address(level, index)
        # Warm the Merkle cache with nodes on and off the block's path.
        path = path_to_root(layout, block)[1:]
        for warm_level, seed in warm:
            if stored_levels < 2:
                break
            warm_at = 1 + warm_level % (stored_levels - 1)
            if seed % 2 and warm_at > level:
                address = path[warm_at - level - 1].address
            else:
                address = layout.node_address(
                    warm_at, seed % layout.level_counts[warm_at]
                )
            if address != block:
                controller._get_merkle_node(address)

        trusted = next(
            position
            for position, step in enumerate(path)
            if step.address is None
            or controller.merkle_cache.contains(step.address)
        )
        fetched, slots = [], []
        real_read_block = controller.read_block

        def read_block(address, charge=True):
            fetched.append(address)
            return real_read_block(address, charge)

        real_child_hash = BonsaiNode.child_hash

        def child_hash(node, slot):
            slots.append(slot)
            return real_child_hash(node, slot)

        controller.read_block = read_block
        BonsaiNode.child_hash = child_hash
        try:
            controller._verify_chain(block, controller.nvm.peek(block))
        finally:
            BonsaiNode.child_hash = real_child_hash
            del controller.read_block

        assert fetched == [step.address for step in path[:trusted]]
        assert slots == [step.child_slot for step in path[: trusted + 1]][::-1]
        for step in path[:trusted]:
            assert controller.merkle_cache.contains(step.address)


def _reference_read(channel: MemoryChannel, count: int) -> float:
    """``MemoryChannel.read`` as a loop over the channel's attributes."""
    stall = 0.0
    for _ in range(count):
        start = max(channel.now, channel.busy_until)
        done = start + channel.timing.nvm_read_ns
        channel.busy_until = done
        stall += done - channel.now
        channel.now = done
        channel._reads.add()
    channel._read_stall.observe(stall)
    return stall


_OPS = st.one_of(
    st.tuples(st.just("read"), st.sampled_from((0, 1, 1, 1, 2, 5))),
    st.tuples(st.just("write"), st.integers(0, 4), st.booleans()),
    st.tuples(st.just("advance"), st.floats(0.0, 500.0)),
)


class TestChannelRead:
    @settings(max_examples=200, deadline=None)
    @given(
        read_ns=st.floats(0.5, 400.0),
        write_ns=st.floats(0.5, 900.0),
        overlap=st.floats(0.0, 1.0),
        ops=st.lists(_OPS, max_size=40),
    )
    def test_equals_reference_loop(self, read_ns, write_ns, overlap, ops):
        timing = TimingConfig(
            nvm_read_ns=read_ns,
            nvm_write_ns=write_ns,
            background_write_overlap=overlap,
        )
        channel = MemoryChannel(timing, StatGroup("ctrl"))
        reference = MemoryChannel(timing, StatGroup("ctrl"))
        for op in ops:
            if op[0] == "read":
                assert channel.read(op[1]) == _reference_read(reference, op[1])
            elif op[0] == "write":
                assert channel.write(op[1], critical=op[2]) == reference.write(
                    op[1], critical=op[2]
                )
            else:
                channel.advance(op[1])
                reference.advance(op[1])
            assert channel.now == reference.now
            assert channel.busy_until == reference.busy_until
        assert channel.stats.as_dict() == reference.stats.as_dict()
        new_hist = channel.stats.histogram("read_stall_ns")
        ref_hist = reference.stats.histogram("read_stall_ns")
        assert new_hist._reservoir == ref_hist._reservoir
        assert (new_hist.count, new_hist.total) == (
            ref_hist.count,
            ref_hist.total,
        )

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_counts_after_posted_backlog(self, count):
        channel = MemoryChannel(TimingConfig(), StatGroup("c"))
        channel.write(3)  # posted: busy_until moves, now does not
        busy = channel.busy_until
        stall = channel.read(count)
        reads = channel.stats.counter("channel_reads").value
        assert reads == count
        if count:
            assert stall == pytest.approx(busy + count * 60.0)
            assert channel.now == channel.busy_until
        else:
            assert stall == 0.0 and channel.now == 0.0
        assert channel.stats.histogram("read_stall_ns").count == 1

    def test_negative_count_reads_nothing(self):
        channel = MemoryChannel(TimingConfig(), StatGroup("c"))
        assert channel.read(-2) == 0.0
        assert channel.stats.counter("channel_reads").value == 0

