"""The eager Bonsai tree is current at every public observation point.

Under the eager update policy (§2.6) the on-chip root reflects every
counter write.  These properties hold the controller to that at each
point where anything outside it can look: the end of a ``replay``,
``capture_chip_state``, ``writeback_all`` and a power failure
(``drop_volatile``) followed by reincarnation.  At each such point:

* every resident Merkle node's child hash equals ``block_hash`` of the
  child's *latest* content — its cached payload if resident, else the
  block the WPQ would forward, else the NVM (or default) block;
* the same holds for the on-chip root over the top stored level;
* the root equals the root rebuilt from scratch over the latest content
  of every counter block.

A tiny metadata cache makes tree walks evict in the middle of a path,
and accesses issued straight through ``controller.read``/``write``
reach an observation point with no replay boundary in between.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TREE_ARITY, SchemeKind
from repro.controller.access import MemoryRequest, Op
from repro.core.recovery_agit import AgitRecovery
from repro.recovery.crash import capture_chip_state, crash, reincarnate
from repro.traces.replay import replay
from repro.traces.trace import Trace

from tests.helpers import KIB, line, make_controller, payload

SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.AGIT_READ,
    SchemeKind.AGIT_PLUS,
]

#: 16 slots in 4 sets per metadata cache: walks over the 4 MiB tree's
#: stored levels evict each other's ancestors.
CACHE_BYTES = 1 * KIB

# (is_write, line index, payload tag): half the lines from a hot region
# that re-dirties shared ancestors, half from the whole 4 MiB.
access_strategy = st.tuples(
    st.booleans(),
    st.one_of(st.integers(0, 511), st.integers(0, 65535)),
    st.integers(0, 255),
)
accesses = st.lists(access_strategy, min_size=1, max_size=25)
op_strategy = st.one_of(
    st.tuples(st.just("replay"), accesses),
    st.tuples(st.just("direct"), accesses),
    st.tuples(st.just("capture"), st.none()),
    st.tuples(st.just("writeback"), st.none()),
)


def latest_content(controller, address: int) -> bytes:
    """A metadata block's newest bytes, wherever they live now."""
    cached = controller.counter_cache.peek(address)
    if cached is None:
        cached = controller.merkle_cache.peek(address)
    if cached is not None:
        return cached.to_bytes()
    forwarded = controller.wpq.lookup(address)
    if forwarded is not None:
        return forwarded
    return controller.nvm.peek(address)


def counter_snapshot(controller) -> dict:
    """Latest bytes of every counter block (reads no tree node)."""
    region = controller.layout.counter_region
    return {
        region.block_address(index): latest_content(
            controller, region.block_address(index)
        )
        for index in range(region.num_blocks)
    }


def rebuilt_root(controller, counters: dict):
    """The root recomputed bottom-up over the given counter contents."""
    layout = controller.layout
    engine = controller.engine
    rebuilt = dict(counters)
    for level in range(1, layout.root_level):
        for index in range(layout.level_counts[level]):
            node = engine.rebuild_level(level, rebuilt.__getitem__, index)
            rebuilt[layout.node_address(level, index)] = node.to_bytes()
    return engine.rebuild_root(rebuilt.__getitem__)


def assert_tree_current(controller) -> None:
    """Every resident node and the root hash their children's latest
    content.  Node payloads are read before the root, so nothing here
    brings them up to date on the test's behalf."""
    layout = controller.layout
    engine = controller.engine
    for _slot, address, node, _dirty in list(controller.merkle_cache.resident()):
        level, index = layout.locate_node(address)
        children = layout.children_of(level, index)
        for slot in range(TREE_ARITY):
            if slot < len(children):
                child = latest_content(
                    controller, layout.node_address(*children[slot])
                )
            else:
                child = engine.default_node_bytes(level - 1)
            assert node.child_hash(slot) == engine.block_hash(child), (
                f"stale hash of child {slot} in node {address:#x}"
            )
    root = engine.root_node
    top_level = layout.root_level - 1
    for slot in range(TREE_ARITY):
        if slot < layout.level_counts[top_level]:
            child = latest_content(
                controller, layout.node_address(top_level, slot)
            )
        else:
            child = engine.default_node_bytes(top_level)
        assert root.child_hash(slot) == engine.block_hash(child), (
            f"stale root hash of child {slot}"
        )
    assert root == rebuilt_root(controller, counter_snapshot(controller))


def run_accesses(controller, batch, via_replay: bool) -> None:
    requests = [
        MemoryRequest(Op.WRITE, line(index), payload(tag))
        if is_write
        else MemoryRequest(Op.READ, line(index))
        for is_write, index, tag in batch
    ]
    if via_replay:
        replay(controller, Trace("steps", requests))
        return
    for request in requests:
        if request.op == Op.WRITE:
            controller.write(request.address, request.data)
        else:
            controller.read(request.address)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=8),
    power_failure=st.booleans(),
)
def test_eager_tree_current_at_observation_points(scheme, ops, power_failure):
    controller = make_controller(scheme, seed=3, cache_bytes=CACHE_BYTES)
    for kind, batch in ops:
        if kind == "replay":
            run_accesses(controller, batch, via_replay=True)
            assert_tree_current(controller)
        elif kind == "direct":
            run_accesses(controller, batch, via_replay=False)
        elif kind == "capture":
            state = capture_chip_state(controller)
            assert state.root_node == controller.engine.root_node
            assert_tree_current(controller)
        else:
            controller.writeback_all()
            assert_tree_current(controller)
            assert not any(
                dirty for *_rest, dirty in controller.merkle_cache.resident()
            )

    if not power_failure:
        state = capture_chip_state(controller)
        assert state.root_node == rebuilt_root(
            controller, counter_snapshot(controller)
        )
        assert_tree_current(controller)
        return

    # The root register survives the power failure with every write
    # folded in, although the cached tree nodes that carried them die.
    expected = rebuilt_root(controller, counter_snapshot(controller))
    crash(controller)
    assert controller.merkle_cache.occupancy == 0
    assert controller.engine.root_node == expected
    reborn = reincarnate(controller)
    assert reborn.engine.root_node == expected
    if scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS):
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report.root_matched
    if scheme in (SchemeKind.STRICT_PERSISTENCE, SchemeKind.AGIT_READ,
                  SchemeKind.AGIT_PLUS):
        # Persisted (or repaired) memory rebuilds to the same root.
        assert rebuilt_root(reborn, counter_snapshot(reborn)) == expected
        run_accesses(reborn, [(True, 7, 1), (False, 7, 0)], via_replay=True)
        assert_tree_current(reborn)
