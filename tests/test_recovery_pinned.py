"""Golden digests of AGIT+ and ASIT recovery on the campaign system.

Each case crashes the fault campaign's system (256 MiB, 32 KiB caches,
the "hammer" workload), optionally tampers with or interrupts recovery,
and runs the scheme's recovery engine.  The digest covers:

* every report field except the diagnostic ``wall_seconds`` of each
  flight-recorder phase — or, for a refused recovery, the error's type
  and message (which names the offending ST slot);
* the post-recovery NVM image: blocks, sideband, per-block write
  counts and lifetime read/write counters;
* the persistent root registers (SHADOW_TREE_ROOT for ASIT, the
  on-chip root node for AGIT+).

Rewrites of the recovery engines' host-side loops must reproduce
these bit for bit; regenerate ``GOLDEN`` only when a change is *meant*
to alter simulated behaviour, with ``python -m tests.test_recovery_pinned``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.config import KIB, MIB, SchemeKind, TreeKind, default_table1_config
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.core.shadow_table import ShadowRegionTree, StEntry
from repro.crypto.keys import ProcessorKeys
from repro.errors import ReproError
from repro.faults.campaign import campaign_profile
from repro.recovery.crash import crash, reincarnate
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

SEED = 15
LENGTH = 2000
CRASH_POINTS = (300, 1200, 2000)


class _PowerFailure(Exception):
    """Injected mid-recovery power loss."""


class _InterruptingNvm:
    """Proxy that fails the Nth write, passing everything else through."""

    def __init__(self, nvm, fail_after: int) -> None:
        self._nvm = nvm
        self._remaining = fail_after

    def write(self, address, data):
        if self._remaining <= 0:
            raise _PowerFailure()
        self._remaining -= 1
        return self._nvm.write(address, data)

    def __getattr__(self, name):
        return getattr(self._nvm, name)


def _crashed(scheme: SchemeKind, tree: TreeKind, point: int, workload="hammer"):
    """The reborn controller after a power failure at ``point``.

    "hammer" (the campaign default) stays inside the metadata cache, so
    every written ST entry is valid; "mcf" evicts, leaving written but
    invalidated entries as well.
    """
    config = default_table1_config(
        scheme, tree, capacity_bytes=256 * MIB
    ).with_cache_size(32 * KIB)
    controller = build_controller(config, keys=ProcessorKeys(SEED))
    requests = list(
        generate_trace(
            campaign_profile(workload), LENGTH, seed=SEED,
            capacity_bytes=config.memory.capacity_bytes,
        )
    )
    replay(controller, Trace("pinned", requests[:point]))
    crash(controller)
    return reincarnate(controller)


def _engine(reborn, nvm=None):
    nvm = reborn.nvm if nvm is None else nvm
    if reborn.config.scheme is SchemeKind.ASIT:
        return AsitRecovery(nvm, reborn.layout, reborn)
    return AgitRecovery(nvm, reborn.layout, reborn)


def _registers(reborn):
    if reborn.config.scheme is SchemeKind.ASIT:
        return (
            reborn.__dict__.get("_persistent_shadow_root"),
            reborn.shadow_tree_root,
        )
    return reborn.engine.root_node.to_bytes()


def _state(reborn):
    nvm = reborn.nvm
    return (
        sorted(nvm._blocks.items()),
        sorted(nvm._ecc.items()),
        sorted(nvm._write_counts.items()),
        nvm.total_reads,
        nvm.total_writes,
        _registers(reborn),
    )


def _recover(reborn, nvm=None):
    """Run recovery; the report's fields, or the refusal."""
    try:
        report = _engine(reborn, nvm).run()
    except ReproError as error:
        return (type(error).__name__, str(error))
    fields = dataclasses.asdict(report)
    fields["phases"] = [
        {k: v for k, v in phase.items() if k != "wall_seconds"}
        for phase in report.phases
    ]
    return ("ok", sorted((k, repr(v)) for k, v in fields.items()))


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _st_slots(reborn):
    """(written, unwritten) ST slot indices of the crashed image."""
    written, unwritten = [], []
    for slot in range(reborn.metadata_cache.num_slots):
        address = reborn.layout.st_entry_address(slot)
        (written if reborn.nvm.is_written(address) else unwritten).append(slot)
    return written, unwritten


def case_crash(scheme, tree, point, workload="hammer"):
    reborn = _crashed(scheme, tree, point, workload)
    outcome = _recover(reborn)
    return _digest(outcome, _state(reborn))


def case_nested(scheme, tree, point, fail_after, workload="hammer"):
    """Interrupted after ``fail_after`` writes, then run to completion."""
    reborn = _crashed(scheme, tree, point, workload)
    try:
        _engine(reborn, _InterruptingNvm(reborn.nvm, fail_after)).run()
        interrupted = False
    except _PowerFailure:
        interrupted = True
    assert interrupted
    midway = _state(reborn)
    outcome = _recover(reborn)
    return _digest(midway, outcome, _state(reborn))


def case_tampered_st(point, written: bool):
    """One flipped byte in a written (or never-written) ST block."""
    reborn = _crashed(SchemeKind.ASIT, TreeKind.SGX, point, "mcf")
    used, unused = _st_slots(reborn)
    slot = used[len(used) // 2] if written else unused[len(unused) // 2]
    address = reborn.layout.st_entry_address(slot)
    block = bytearray(reborn.nvm.peek(address))
    block[9] ^= 0x5A
    reborn.nvm.poke(address, bytes(block))
    outcome = _recover(reborn)
    return _digest(slot, outcome, _state(reborn))


def case_invalid_st_address(point):
    """Valid ST entries naming non-node addresses, root re-signed.

    A never-written low slot and a written higher slot both name bogus
    addresses; recovery must refuse, naming the lower slot.
    """
    reborn = _crashed(SchemeKind.ASIT, TreeKind.SGX, point, "mcf")
    used, unused = _st_slots(reborn)
    low = unused[0]
    high = next(slot for slot in used if slot > low)
    for slot, bogus in ((low, 0x40), (high, 1 << 62)):
        entry = StEntry(valid=True, address=bogus, mac=7, lsbs=(1,) * 8)
        reborn.nvm.poke(reborn.layout.st_entry_address(slot), entry.to_bytes())
    reborn._persistent_shadow_root = ShadowRegionTree.compute_root(
        reborn.keys.shadow_key,
        reborn.metadata_cache.num_slots,
        lambda index: reborn.nvm.peek(reborn.layout.st_entry_address(index)),
    )
    outcome = _recover(reborn)
    return _digest((low, high), outcome, _state(reborn))


def case_invalid_sct_address(point):
    """An SCT group naming a data-region block: detected, not crashed."""
    reborn = _crashed(SchemeKind.AGIT_PLUS, TreeKind.BONSAI, point)
    address = reborn.layout.sct.block_address(reborn.layout.sct.num_blocks - 1)
    reborn.nvm.poke(address, (0x40).to_bytes(8, "little") + bytes(56))
    outcome = _recover(reborn)
    return _digest(outcome, _state(reborn))


AGIT = (SchemeKind.AGIT_PLUS, TreeKind.BONSAI)
ASIT = (SchemeKind.ASIT, TreeKind.SGX)

CASES = {
    **{
        f"agit_plus/crash{point}": (lambda p=point: case_crash(*AGIT, p))
        for point in CRASH_POINTS
    },
    **{
        f"asit/crash{point}": (lambda p=point: case_crash(*ASIT, p))
        for point in CRASH_POINTS
    },
    "agit_plus/mcf_crash2000": lambda: case_crash(*AGIT, 2000, "mcf"),
    "asit/mcf_crash2000": lambda: case_crash(*ASIT, 2000, "mcf"),
    "agit_plus/nested": lambda: case_nested(*AGIT, 1200, 5),
    "asit/nested_splice": lambda: case_nested(*ASIT, 1200, 3),
    "asit/nested_st_reset": lambda: case_nested(*ASIT, 1200, 205),
    "asit/mcf_nested_st_reset": lambda: case_nested(*ASIT, 2000, 90, "mcf"),
    "asit/tampered_written_st": lambda: case_tampered_st(2000, True),
    "asit/tampered_unwritten_st": lambda: case_tampered_st(2000, False),
    "asit/invalid_st_address": lambda: case_invalid_st_address(2000),
    "agit_plus/invalid_sct_address": lambda: case_invalid_sct_address(1200),
}

GOLDEN = {
    'agit_plus/crash1200': 'b0c1b8fd27bddf75642657b659ff35e5e078e2beeb67186a0e3dea3845420e18',
    'agit_plus/crash2000': '4b18c7e3ee781580355baefc07851d106e43b2188010133782ae01a40bd1f3fc',
    'agit_plus/crash300': 'f6f404115f22648e12082683eb2567e771c2a2766918882c9176be2e6da9bb35',
    'agit_plus/invalid_sct_address': '616d1f237b2a0e8703aafbb81e5c40792a08eecf6d492e38a61a4f7a23cd8830',
    'agit_plus/mcf_crash2000': '3e29bcf3fc7b87884e72f231ce7c0fbb83b69f1426ab9684d40838534506dfab',
    'agit_plus/nested': '530f4de63db9b0d96b8a6b9db4526da5e3498dfb2a92894b6225aa1fcb545ca4',
    'asit/crash1200': '7ea879c58b787346bfa6e8728db4b41735d97c86aa14b1bdd097c51571d62a61',
    'asit/crash2000': '7222eabc0685a963b585e18d6edfca8bcb91a7ae61aac24b0c26614246904830',
    'asit/crash300': '0003cc20e9f1430ef5ebec3736b610cf02e687e35963ebd35d56b9383868e228',
    'asit/invalid_st_address': '4d887ac9e7f70ca6f202e25844d6d51f77a03d675834dd6ad665be5451d4dafe',
    'asit/mcf_crash2000': '511aa4c1f413a532c7ebbd88fe3cde83862c6768a3609f89a69e43bdb6b833f0',
    'asit/mcf_nested_st_reset': 'dbf2127c8b86f93455677b743be0149d6a8d8b0c37eaf52a3c0f0059386fe867',
    'asit/nested_splice': '093e22c8c0eab6a7b5589f49d2eb04612c77f91324b773fe5bb40c7139791b18',
    'asit/nested_st_reset': '3344b64f12c7d19a9b920873c79a96f6a2f7d6419d8bf1c091a75e6d33195b5c',
    'asit/tampered_unwritten_st': '6757665437e157aa59d59848f79e722ce79b08377b1ac17e4acd1ea4b709a004',
    'asit/tampered_written_st': 'd81efc980352f025480a33d1548f52ef02eb6d2ff1d0a41d61f903a52a5616d9',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recovery_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regenerates GOLDEN
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
