"""Golden end-state digests of the scalar controller path.

Every (scheme, tree) system replays one short seeded trace on a small
memory with tiny metadata caches: SGX walks climb several stored
levels, and evictions fire in the middle of a walk.  The end state —
simulated time, every statistic, the NVM image, the on-chip root and
every cache line's ``(valid, address, dirty, lru_stamp)`` — must hash
to the digest recorded in ``GOLDEN``.  Any rewrite of the scalar miss
path (cache victim scan, node walk, counter codecs) has to reproduce
these states bit for bit; regenerate the table only when a change is
*meant* to alter simulated behaviour, with ``python -m
tests.test_scalar_golden``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import SchemeKind, TreeKind
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.traces.profiles import SyntheticProfile
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace

from tests.helpers import KIB, MIB, small_config

SYSTEMS = [
    (TreeKind.BONSAI, SchemeKind.WRITE_BACK),
    (TreeKind.BONSAI, SchemeKind.STRICT_PERSISTENCE),
    (TreeKind.BONSAI, SchemeKind.OSIRIS),
    (TreeKind.BONSAI, SchemeKind.SELECTIVE),
    (TreeKind.BONSAI, SchemeKind.AGIT_READ),
    (TreeKind.BONSAI, SchemeKind.AGIT_PLUS),
    (TreeKind.SGX, SchemeKind.WRITE_BACK),
    (TreeKind.SGX, SchemeKind.STRICT_PERSISTENCE),
    (TreeKind.SGX, SchemeKind.OSIRIS),
    (TreeKind.SGX, SchemeKind.ASIT),
]

#: Half the accesses land on a small hot set (re-writes drive minor
#: counters toward overflow and the stop-loss limit); the rest spread
#: over the whole 16 MiB, so nearly every cold access misses.
PROFILE = SyntheticProfile(
    name="golden",
    write_fraction=0.6,
    pattern="hot_cold",
    footprint_bytes=16 * MIB,
    hot_bytes=32 * KIB,
    hot_fraction=0.5,
    burst_length=2,
    rewrite_count=3,
)
LENGTH = 900
SEED = 2019

#: (after replay, after an orderly ``writeback_all``) per system.
GOLDEN = {
    'bonsai/write_back': ('6aa975387e99ea987745e6f57c5af444bfabfc16c703a0b4684731827b468ebc', '2246309b56125098a75bcad2d47ed60719d1942b707d3f59703542df74cc6cd0'),
    'bonsai/strict_persistence': ('c5f8e534b7fad184effe78d4315fab89fa2ecc9e9062c3e7ee6db03a19cecb3f', 'c5f8e534b7fad184effe78d4315fab89fa2ecc9e9062c3e7ee6db03a19cecb3f'),
    'bonsai/osiris': ('08ec889c1a4de321b9c238c4a8d1f76e6e20e41765862c9be6fc0dbaa47a4d14', '42d2b865450c5143db0accb5b47f028742bbf89be0a3e51bdd4d3b33be9bbcb1'),
    'bonsai/selective': ('3072139fde8cfcd5aad4b917855db4fb7dffd300aeb8483920d6c161f533245d', '5c9ec86281cfdf580dc3f4a41be567f2eb0a07eda0697f1b896203a5bf90ccc1'),
    'bonsai/agit_read': ('eb976a1242286faf8365ebe4b48d02ba5f1e9a7d5afc921fe96f4a621653413d', '3bce192361687963bb2a568875c1cdd7038018571107586625dffdac6863dfac'),
    'bonsai/agit_plus': ('664b52b10dd675a626b30d9cf7725daefbe5a460a587c3c9dfe7f33793fd0872', '4750295d09cc3cb17c3195282a1b30f65295194edd4fbf1fc40d22b0aa94cf95'),
    'sgx/write_back': ('d0c8747b94b43444f38baf5e8a1d7d437e047966b0832c56af7b102601903f12', 'c5ae67503034fbc5b211377b05be63908399762d85c9a80ca3910e948e14a4f7'),
    'sgx/strict_persistence': ('77fefbe99385a605aa50cb31338dcbd90081aa9d4cb9619753ac4c4f4ad30872', '77fefbe99385a605aa50cb31338dcbd90081aa9d4cb9619753ac4c4f4ad30872'),
    'sgx/osiris': ('2e7b4eb6d6da85108f0486597b153c53bd1c786c7a0043a0920b32d7f5cb2d39', 'ff5c7f7a05408fb27d1bd77cc5caaebcd9115300f3cb2604d52139da15f51ce3'),
    'sgx/asit': ('0153c028b0297d03d5d9cfd64abf65d75b42d93a1e45b45f14f9601574ad2245', 'dd0a6f843a4377c7f66bbe076f76915ea0ace200002a91390c52bb6afa269ea9'),
}


def _cache_state(metadata_cache):
    cache = metadata_cache.cache
    return (
        sorted(metadata_cache.stats.as_dict().items()),
        cache._clock,
        [
            (line.valid, line.address, line.dirty, line.lru_stamp)
            for line in cache._lines
        ],
    )


def state_digest(controller) -> str:
    """sha256 over every observable of a controller's end state."""
    nvm = controller.nvm
    caches = [
        _cache_state(getattr(controller, name))
        for name in ("counter_cache", "merkle_cache", "metadata_cache")
        if hasattr(controller, name)
    ]
    engine = controller.engine
    root = (
        engine.root_node.to_bytes()
        if hasattr(engine, "root_node")
        else engine.root_block.to_bytes()
    )
    state = (
        repr(controller.elapsed_ns),
        sorted((key, repr(value)) for key, value in controller.collect_stats().items()),
        sorted(nvm._blocks.items()),
        sorted(nvm._ecc.items()),
        sorted(nvm._write_counts.items()),
        list(controller.wpq.pending_entries()),
        root,
        caches,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def run_system(tree: TreeKind, scheme: SchemeKind):
    """Digests after the replay and after an orderly shutdown."""
    config = small_config(
        scheme, tree, cache_bytes=1 * KIB, memory_bytes=16 * MIB
    )
    controller = build_controller(config, keys=ProcessorKeys(SEED))
    trace = generate_trace(PROFILE, LENGTH, seed=SEED)
    replay(controller, trace)
    after_replay = state_digest(controller)
    controller.writeback_all()
    return after_replay, state_digest(controller)


def _key(tree: TreeKind, scheme: SchemeKind) -> str:
    return f"{tree.value}/{scheme.value}"


@pytest.mark.parametrize(
    "tree,scheme", SYSTEMS, ids=[_key(t, s) for t, s in SYSTEMS]
)
def test_scalar_end_state_matches_golden(tree, scheme):
    assert run_system(tree, scheme) == GOLDEN[_key(tree, scheme)]


def test_sgx_walks_go_deep_and_evict_mid_walk():
    """The geometry really exercises multi-level walks with evictions.

    Ancestors are filled before the node that needed them, so a fill
    above level 0 that evicts a victim is an eviction mid-walk.
    """
    config = small_config(
        SchemeKind.WRITE_BACK, TreeKind.SGX,
        cache_bytes=1 * KIB, memory_bytes=16 * MIB,
    )
    controller = build_controller(config, keys=ProcessorKeys(SEED))
    assert controller.layout.root_level >= 5
    assert controller.metadata_cache.num_slots == 32
    fills = []
    fill = controller.metadata_cache.fill

    def recording_fill(address, record, dirty=False):
        slot, eviction = fill(address, record, dirty)
        fills.append((record.level, eviction is not None))
        return slot, eviction

    controller.metadata_cache.fill = recording_fill
    replay(controller, generate_trace(PROFILE, LENGTH, seed=SEED))
    stats = controller.collect_stats()
    accesses = stats["ctrl.data_reads"] + stats["ctrl.data_writes"]
    assert stats["ctrl.meta_fetches"] > accesses
    assert max(level for level, _ in fills) >= 3
    assert any(level >= 1 and evicted for level, evicted in fills)
    assert controller.metadata_cache.stats.as_dict()[
        "metadata_cache.evictions_dirty"
    ] > 0


if __name__ == "__main__":  # pragma: no cover - regenerates GOLDEN
    for tree, scheme in SYSTEMS:
        print(f"    {_key(tree, scheme)!r}: {run_system(tree, scheme)!r},")
