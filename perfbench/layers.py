"""Per-layer host-time tracing by wrapping the simulator's public calls.

A :class:`Tracer` replaces each public call listed in :data:`LAYERS`
with a thin wrapper that records one span — start, end, call site and
the span that was open when it started — into flat in-memory arrays.
Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules at run time and removed again by :meth:`Tracer.
uninstall`, which also checks that every original is back in place.

A layer's *self time* is its spans' durations minus the durations of
their direct child spans.  Everything outside any span is charged to
``harness``.  All arithmetic is on integer nanoseconds, so the layer
self times plus ``harness`` equal the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (layer, [(module, class or None, attribute), ...]).  A ``None``
#: class names a module-level function; it is patched in its defining
#: module and in every ``repro`` module that imported it by name.
LAYERS: List[Tuple[str, List[Tuple[str, Optional[str], str]]]] = [
    (
        "controller",
        [
            ("repro.controller.base", "SecureMemoryController", "access"),
            ("repro.controller.bonsai", "BonsaiController", "read"),
            ("repro.controller.bonsai", "BonsaiController", "write"),
            ("repro.controller.sgx", "SgxController", "read"),
            ("repro.controller.sgx", "SgxController", "write"),
        ],
    ),
    ("controller.batch", [("repro.controller.batch", None, "run_batched_range")]),
    (
        "cache",
        [
            ("repro.cache.metadata_cache", "MetadataCache", name)
            for name in ("access", "fill", "mark_dirty", "peek", "clean")
        ],
    ),
    (
        "integrity",
        [
            ("repro.integrity.geometry", None, "path_to_root"),
            ("repro.integrity.bonsai", "BonsaiTreeEngine", "verify_child"),
            ("repro.integrity.bonsai", "BonsaiTreeEngine", "update_root_child"),
            ("repro.integrity.bonsai", "BonsaiTreeEngine", "default_provider"),
            ("repro.integrity.sgx_tree", "SgxTreeEngine", "verify"),
            ("repro.integrity.sgx_tree", "SgxTreeEngine", "seal"),
            ("repro.integrity.sgx_tree", "SgxTreeEngine", "default_provider"),
        ],
    ),
    (
        "counters",
        [
            ("repro.counters.split", "SplitCounterBlock", "from_bytes"),
            ("repro.counters.split", "SplitCounterBlock", "to_bytes"),
            ("repro.counters.sgx", "SgxCounterBlock", "from_bytes"),
            ("repro.counters.sgx", "SgxCounterBlock", "to_bytes"),
        ],
    ),
    (
        "crypto",
        [
            ("repro.crypto.ctr", "CounterModeEngine", "encrypt_with_ecc"),
            ("repro.crypto.ctr", "CounterModeEngine", "decrypt_with_ecc"),
            ("repro.crypto.hashes", None, "mac56"),
            ("repro.crypto.hashes", None, "node_hash"),
            ("repro.crypto.hashes", None, "sgx_node_mac"),
        ],
    ),
    (
        "mem.ecc",
        [
            ("repro.mem.ecc", "SecdedCodec", name)
            for name in ("encode_line", "is_sane", "correct_line")
        ],
    ),
    (
        "mem.nvm",
        [
            ("repro.mem.nvm", "NvmDevice", name)
            for name in ("read", "write", "read_ecc", "peek", "snapshot", "restore")
        ],
    ),
    (
        "mem.wpq",
        [
            ("repro.mem.wpq", "WritePendingQueue", "insert"),
            ("repro.mem.wpq", "WritePendingQueue", "lookup_entry"),
            ("repro.mem.wpq", "WritePendingQueue", "drain_opportunistic"),
            ("repro.mem.wpq", "WritePendingQueue", "drain_all"),
            ("repro.mem.wpq", "PersistentRegisters", "commit"),
        ],
    ),
    (
        "mem.timing",
        [
            ("repro.mem.timing", "MemoryChannel", name)
            for name in ("read", "write", "hash_latency", "advance")
        ],
    ),
    (
        "core",
        [
            ("repro.core.shadow_table", "ShadowAddressTable", "record"),
            ("repro.core.shadow_table", "ShadowRegionTree", "update"),
            ("repro.core.shadow_table", "ShadowRegionTree", "from_reader"),
            ("repro.core.shadow_table", "ShadowRegionTree", "compute_root"),
            ("repro.core.recovery_agit", "AgitRecovery", "run"),
            ("repro.core.recovery_asit", "AsitRecovery", "run"),
        ],
    ),
    (
        "recovery",
        [
            ("repro.recovery.crash", None, name)
            for name in ("crash", "reincarnate", "capture_chip_state")
        ],
    ),
    ("faults", [("repro.faults.campaign", None, "run_campaign")]),
    (
        "attacks",
        [
            ("repro.attacks.campaign", None, "run_attack_campaign"),
            ("repro.attacks.oracle", "SecurityOracle", "classify"),
        ],
    ),
    (
        "traces",
        [
            ("repro.traces.synthetic", None, "generate_trace"),
            ("repro.traces.replay", None, "replay_batched"),
        ],
    ),
    (
        "sim",
        [
            ("repro.sim.engine", None, "run_simulation"),
            ("repro.controller.factory", None, "build_controller"),
        ],
    ),
]

LAYER_NAMES = [layer for layer, _targets in LAYERS]

#: Sites whose spans are demand accesses entering a controller.
_ENTRY_SITES = (
    "SecureMemoryController.access",
    "BonsaiController.read",
    "BonsaiController.write",
    "SgxController.read",
    "SgxController.write",
)
_BATCH_SITE = "run_batched_range"
_BUILD_SITE = "build_controller"
_CACHE_NAMES = ("counter_cache", "merkle_cache", "metadata_cache")


@dataclass
class _Patch:
    owner: object
    attribute: str
    original: object


@dataclass
class Tracer:
    """Records spans around the calls in :data:`LAYERS` while installed.

    Spans live in four ``array('q')`` columns (start and end in
    ``perf_counter_ns`` nanoseconds, call-site id, parent span index or
    -1) so a million spans cost 32 MB, not a million Python objects.
    """

    clock: Callable[[], int] = time.perf_counter_ns
    sites: List[str] = field(default_factory=list)
    site_layer: List[int] = field(default_factory=list)
    #: Targets named in :data:`LAYERS` that this checkout does not have.
    absent: List[str] = field(default_factory=list)
    #: Statistics of every controller built while installed: its own
    #: stat group and its metadata caches'.  The groups keep counting
    #: after the build, and keeping them (not the controllers) lets
    #: each controller be freed when its cell ends.
    built: List[Tuple[object, List[Tuple[str, object]]]] = field(
        default_factory=list
    )
    #: Accesses handed to the batch engine (sum of its range lengths).
    batch_range_accesses: int = 0

    def __post_init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.site_ids = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self._patches: List[_Patch] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` that exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer_id, (_layer, targets) in enumerate(LAYERS):
            for module_name, class_name, attribute in targets:
                self._install_one(layer_id, module_name, class_name, attribute)

    def _install_one(self, layer_id, module_name, class_name, attribute) -> None:
        label = f"{class_name}.{attribute}" if class_name else attribute
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}:{label}")
            return
        owner = getattr(module, class_name, None) if class_name else module
        raw = vars(owner).get(attribute) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module_name}:{label}")
            return
        site = len(self.sites)
        self.sites.append(label)
        self.site_layer.append(layer_id)
        observe = None
        if label == _BATCH_SITE:
            observe = self._observe_batch
        elif label == _BUILD_SITE:
            observe = self._observe_build
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, site, observe))
        else:
            wrapped = self._wrap(raw, site, observe)
        if class_name:
            self._patch(owner, attribute, wrapped)
            return
        # A module-level function is looked up wherever it was imported
        # by name, so patch every module that holds the same object.
        for name, holder in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                vars(holder).get(attribute) is raw
            ):
                self._patch(holder, attribute, wrapped)

    def _patch(self, owner, attribute, wrapped) -> None:
        self._patches.append(_Patch(owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapped)

    def _wrap(self, function, site, observe):
        clock = self.clock
        starts, ends = self.starts, self.ends
        site_ids, parents = self.site_ids, self.parents
        stack = self._stack

        if observe is None:

            def wrapper(*args, **kwargs):
                index = len(starts)
                site_ids.append(site)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(index)
                starts.append(clock())
                try:
                    return function(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                index = len(starts)
                site_ids.append(site)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = function(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                observe(args, kwargs, result)
                return result

        return functools.update_wrapper(wrapper, function)

    def _observe_batch(self, args, kwargs, _result) -> None:
        # run_batched_range(controller, columns, start, stop, ...)
        start = kwargs.get("start", args[2] if len(args) > 2 else 0)
        stop = kwargs.get("stop", args[3] if len(args) > 3 else 0)
        self.batch_range_accesses += max(0, stop - start)

    def _observe_build(self, _args, _kwargs, controller) -> None:
        caches = [getattr(controller, name, None) for name in _CACHE_NAMES]
        self.built.append(
            (controller.stats, [(c.name, c.stats) for c in caches if c is not None])
        )

    def uninstall(self) -> None:
        """Put every original back, newest patch first, and verify it."""
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attribute, patch.original)
        leftovers = [
            f"{getattr(p.owner, '__name__', p.owner)}.{p.attribute}"
            for p in self._patches
            if vars(p.owner).get(p.attribute) is not p.original
        ]
        self._patches = []
        if leftovers:
            raise RuntimeError(f"wrappers not restored: {leftovers}")

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as NumPy columns."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return {
            name: np.frombuffer(column, dtype=np.int64)
            if len(column) else np.zeros(0, dtype=np.int64)
            for name, column in (
                ("start_ns", self.starts), ("end_ns", self.ends),
                ("site", self.site_ids), ("parent", self.parents),
            )
        }


@dataclass
class LayerSplit:
    """Per-layer and per-site self time over one traced window."""

    wall_ns: int
    harness_ns: int
    layer_self_ns: Dict[str, int]
    layer_calls: Dict[str, int]
    site_self_ns: Dict[str, int]
    site_calls: Dict[str, int]
    #: Demand accesses, and those the batch engine did not replay
    #: itself: scalar ``access()``/``read``/``write`` entries outside a
    #: batch range plus the batch engine's own scalar fallbacks.
    accesses: int
    scalar_accesses: int


def split_layers(tracer: Tracer, wall_ns: int) -> LayerSplit:
    """Partition ``wall_ns`` (which must enclose every span) by layer."""
    cols = tracer.columns()
    start, end = cols["start_ns"], cols["end_ns"]
    site, parent = cols["site"], cols["parent"]
    duration = end - start
    nested = parent >= 0
    child_ns = np.zeros(len(duration), dtype=np.int64)
    np.add.at(child_ns, parent[nested], duration[nested])
    self_ns = duration - child_ns
    n_sites = len(tracer.sites)
    site_calls = np.bincount(site, minlength=n_sites)
    per_site_ns = np.zeros(n_sites, dtype=np.int64)
    np.add.at(per_site_ns, site, self_ns)
    harness = int(wall_ns - duration[~nested].sum())

    layer_self = {name: 0 for name in LAYER_NAMES}
    layer_calls = {name: 0 for name in LAYER_NAMES}
    for index, label in enumerate(tracer.sites):
        layer = LAYER_NAMES[tracer.site_layer[index]]
        layer_self[layer] += int(per_site_ns[index])
        layer_calls[layer] += int(site_calls[index])

    site_index = {label: i for i, label in enumerate(tracer.sites)}
    entry = np.isin(site, [site_index[s] for s in _ENTRY_SITES if s in site_index])
    parent_site = np.where(nested, site[np.maximum(parent, 0)], -1)
    controller_sites = [
        i for i, layer in enumerate(tracer.site_layer)
        if LAYER_NAMES[layer] == "controller"
    ]
    batch_site = site_index.get(_BATCH_SITE, -2)
    from_batch = entry & (parent_site == batch_site)
    outside = entry & ~np.isin(parent_site, controller_sites + [batch_site])
    scalar = int(outside.sum()) + int(from_batch.sum())
    return LayerSplit(
        wall_ns=int(wall_ns),
        harness_ns=harness,
        layer_self_ns=layer_self,
        layer_calls=layer_calls,
        site_self_ns={s: int(per_site_ns[i]) for i, s in enumerate(tracer.sites)},
        site_calls={s: int(site_calls[i]) for i, s in enumerate(tracer.sites)},
        accesses=int(outside.sum()) + tracer.batch_range_accesses,
        scalar_accesses=scalar,
    )


def controller_counts(tracer: Tracer) -> Dict[str, int]:
    """Summed cache lookups/hits and shadow writes of built controllers."""
    counts: Dict[str, int] = {"shadow_writes": 0}
    for name in _CACHE_NAMES:
        counts[f"{name}.hits"] = 0
        counts[f"{name}.lookups"] = 0
    for stats, caches in tracer.built:
        counts["shadow_writes"] += int(
            stats.as_dict().get(f"{stats.name}.shadow_writes", 0)
        )
        for name, group in caches:
            flat = group.as_dict()
            hits = int(flat.get(f"{name}.hits", 0))
            counts[f"{name}.hits"] += hits
            counts[f"{name}.lookups"] += hits + int(flat.get(f"{name}.misses", 0))
    return counts
