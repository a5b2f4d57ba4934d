"""Tests of the benchmark itself: tracing must not change results, its
layer partition must be exact, and every wrapper must come off again.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

SMALL_SYSTEMS = [("bonsai", "agit_plus"), ("bonsai", "write_back"), ("sgx", "asit")]


def _small(name):
    return workloads.setup(
        name, seed=5, trace_length=300, fault_trials=6, attack_trials=8,
        systems=SMALL_SYSTEMS,
    )


def _namespaces():
    """Every attribute of every ``repro`` module and wrapped class."""
    import importlib

    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "repro"]
    for _layer, targets in layers.LAYERS:
        for module, cls, _attr in targets:
            if cls:
                owners.append(getattr(importlib.import_module(module), cls))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_wrapped_call_exists():
    tracer = layers.Tracer()
    with tracer:
        assert tracer.absent == []
    assert not tracer.installed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_matches_untraced_and_partitions_exactly(name):
    workload = _small(name)
    plain = workload.run_round()
    assert all(not p.error and not p.failed_units for p in plain)
    before = _namespaces()

    tracer = layers.Tracer()
    tracer.install()
    try:
        start = tracer.clock()
        traced = workload.run_round()
        wall = tracer.clock() - start
    finally:
        tracer.uninstall()

    assert _namespaces() == before, "a wrapper was left installed"
    assert workloads.round_digests(traced) == workloads.round_digests(plain)
    assert all(not p.error and not p.failed_units for p in traced)
    split = layers.split_layers(tracer, wall)
    assert sum(split.layer_self_ns.values()) + split.harness_ns == wall
    assert all(v >= 0 for v in split.layer_self_ns.values())
    assert split.harness_ns >= 0
    assert split.layer_calls["controller"] > 0
    assert 0 <= split.scalar_accesses <= split.accesses


def test_wrappers_come_off_after_an_error():
    before = _namespaces()
    tracer = layers.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            from repro.mem.nvm import NvmDevice

            NvmDevice(4096).read(64)
            1 / 0
    assert _namespaces() == before
    assert len(tracer.starts) == 1  # the read's span was still recorded


def test_self_time_excludes_children():
    # One root span of layer 0 (0..100) holding a layer-1 child (10..40)
    # and a layer-0 child (50..60), inside a 120 ns window.
    tracer = layers.Tracer()
    tracer.sites[:] = ["outer", "inner"]
    tracer.site_layer[:] = [0, 1]
    for start, end, site, parent in ((0, 100, 0, -1), (10, 40, 1, 0), (50, 60, 0, 0)):
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.site_ids.append(site)
        tracer.parents.append(parent)
    split = layers.split_layers(tracer, 120)
    first, second = layers.LAYER_NAMES[:2]
    assert split.layer_self_ns[first] == 60 + 10
    assert split.layer_self_ns[second] == 30
    assert split.harness_ns == 20
    assert split.layer_calls[first] == 2


def test_references_cover_at_least_two_seeds():
    references = json.loads((HERE / "references.json").read_text())
    for name in workloads.WORKLOADS:
        assert len(references.get(name, {})) >= 2, name
