"""Secure memory controller for general (Bonsai) Merkle-tree systems.

Implements the three baseline persistence schemes of the Fig. 10
evaluation on one code path, selected by :class:`~repro.config.SchemeKind`:

* **WRITE_BACK** — plain write-back counter/Merkle caches; fast but
  unrecoverable (dirty metadata is simply lost in a crash).
* **STRICT_PERSISTENCE** — every data write atomically persists its
  counter block and every updated tree node up to the root (§2.7).
* **OSIRIS** — write-back plus the stop-loss rule: a counter block is
  persisted whenever a minor counter crosses a multiple of the stop-loss
  limit, bounding how far the memory copy can trail the truth [7].

The AGIT controllers (:mod:`repro.core.agit`) subclass this and hook the
metadata-cache fill / first-dirty events to write the Anubis shadow
tables; the stop-loss machinery is shared (AGIT runs "write-back and
stop-loss counter mode encryption", §6.1).

Tree-update policy: eager by default (§2.6 — the on-chip root always
reflects the latest counters, which AGIT recovery relies on); the lazy
policy is also implemented for the §2.6 discussion and its tests.

Eager hashing is deferred on the host: a write whose stored ancestors
are all cached does the walk's cache touches and hooks, then hands the
counter to the tree engine's pending record; the engine hashes each
pending path once, bottom-up, before anything can observe a hash (a
metadata miss, a crash, a shutdown, a root read, the end of a replay).
The simulated state is identical to hashing on every write (DESIGN.md
§5.9).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.cache.metadata_cache import MetadataCache
from repro.cache.sa_cache import Eviction
from repro.config import BLOCK_SIZE, SchemeKind, SystemConfig, UpdatePolicy
from repro.controller.base import SecureMemoryController
from repro.counters.split import SplitCounterBlock
from repro.crypto.keys import ProcessorKeys
from repro.errors import IntegrityError
from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.integrity.geometry import path_to_root
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


class BonsaiController(SecureMemoryController):
    """Counter-mode encryption + Bonsai Merkle tree + split counters."""

    def __init__(
        self,
        config: SystemConfig,
        layout: MemoryLayout,
        keys: Optional[ProcessorKeys] = None,
        nvm: Optional[NvmDevice] = None,
    ) -> None:
        super().__init__(config, layout, keys, nvm)
        self.engine = BonsaiTreeEngine(self.keys, layout)
        if self.nvm.default_provider is None:
            self.nvm.default_provider = self.engine.default_provider
        self.counter_cache = MetadataCache(config.counter_cache, "counter_cache")
        self.merkle_cache = MetadataCache(config.merkle_cache, "merkle_cache")
        self.eager = config.update_policy == UpdatePolicy.EAGER
        self.scheme = config.scheme
        #: Strict persistence stages every ancestor's bytes per write,
        #: so only the other eager schemes defer tree hashing.
        self._defer_tree = (
            self.eager and self.scheme != SchemeKind.STRICT_PERSISTENCE
        )
        self.stop_loss = config.encryption.stop_loss_limit
        self._use_stop_loss = self.scheme in (
            SchemeKind.OSIRIS,
            SchemeKind.AGIT_READ,
            SchemeKind.AGIT_PLUS,
        )
        #: SELECTIVE: counter blocks below this index belong to the
        #: programmer-declared persistent region and are persisted
        #: atomically with their data writes ([8]).
        self._selective_boundary = int(
            config.selective_persistent_fraction
            * layout.counter_region.num_blocks
        )
        self._evictions: Deque[Tuple[str, Eviction]] = deque()
        self._draining = False
        #: Pre-overflow minor snapshots keyed by counter-block address,
        #: captured just before an increment wraps, consumed by the page
        #: re-encryption that follows.
        self._pre_overflow_minors: dict = {}

    # ------------------------------------------------------------------
    # Anubis hook points (no-ops here; AGIT overrides)
    # ------------------------------------------------------------------

    def _on_counter_filled(self, slot: int, address: int) -> None:
        """Called after a counter block is brought into the cache."""

    def _on_merkle_filled(self, slot: int, address: int) -> None:
        """Called after a tree node is brought into the cache."""

    def _on_counter_dirtied(self, slot: int, address: int, first: bool) -> None:
        """Called when a cached counter block is modified."""

    def _on_merkle_dirtied(self, slot: int, address: int, first: bool) -> None:
        """Called when a cached tree node is modified."""

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Decrypt and integrity-check one data line."""
        self.layout.check_data_address(address)
        self._data_reads.add()
        counter_address = self.layout.counter_block_for(address)
        block = self._get_counter_block(counter_address)
        slot = self.layout.counter_slot_for(address)
        major, minor = block.iv_pair(slot)
        cipher, sideband, fresh = self.read_data_line(address)
        self._drain_evictions()
        if not fresh:
            # Architectural zeros are only legal while the line's minor
            # counter is zero.  A nonzero minor over never-written cells
            # means the write that bumped it was lost (e.g. a weak ADR
            # dropped the flush) — real hardware would decrypt the
            # default cells and fail ECC, so fail closed here too.
            if minor:
                raise IntegrityError(
                    f"counter names a written line at {address:#x} but "
                    "NVM holds no data for it"
                )
            return bytes(len(cipher))
        self.channel.hash_latency(1)  # data MAC check
        return self.open_data(address, cipher, sideband, major, minor)

    def write(self, address: int, data: bytes) -> None:
        """Encrypt, persist, and update metadata for one data line."""
        self.layout.check_data_address(address)
        self._data_writes.add()
        counter_address = self.layout.counter_block_for(address)
        block = self._get_counter_block(counter_address)
        slot = self.layout.counter_slot_for(address)

        minor_max = (1 << block.minor_bits) - 1
        if block.minor(slot) == minor_max:
            self._pre_overflow_minors[counter_address] = list(block.minors)
        overflowed = block.increment(slot)
        if overflowed:
            self._reencrypt_page(counter_address, block, skip_line=address)

        first = self.counter_cache.mark_dirty(counter_address)
        cache_slot = self.counter_cache.slot_of(counter_address)
        self._on_counter_dirtied(cache_slot, counter_address, first)

        walked = None
        if self.eager:
            walked = self._eager_update_ancestors(counter_address, block)

        major, minor = block.iv_pair(slot)
        cipher, sideband = self.seal_data(address, data, major, minor)

        # Two-stage commit: the data line plus whatever the persistence
        # scheme requires lands in the WPQ atomically (§2.7).
        self.pregs.begin()
        self.pregs.stage(address, cipher, sideband)
        self._stage_scheme_persists(
            counter_address, block, slot, overflowed, walked
        )
        pushed = self.pregs.commit()
        self._persist_writes.add(pushed)
        self._drain_evictions()

    # ------------------------------------------------------------------
    # per-scheme persistence policy
    # ------------------------------------------------------------------

    def _stage_scheme_persists(
        self,
        counter_address: int,
        block: SplitCounterBlock,
        slot: int,
        overflowed: bool,
        walked: Optional[List[Tuple[int, bytes]]],
    ) -> None:
        """Stage the metadata blocks this scheme persists per write.

        ``walked`` is the eager walk's ``(address, bytes)`` list, counter
        block first, or None if the write deferred its hashing or the
        policy is lazy.  Strict persistence (which never defers) stages
        exactly those bytes, as nothing changes between the walk and
        here.
        """
        if self.scheme == SchemeKind.STRICT_PERSISTENCE:
            if walked is None:  # lazy policy: stage what is cached
                walked = [(counter_address, block.to_bytes())]
                for step in path_to_root(self.layout, counter_address)[1:-1]:
                    node = self.merkle_cache.peek(step.address)
                    if node is not None:
                        walked.append((step.address, node.to_bytes()))
            self.pregs.stage(counter_address, walked[0][1])
            self.counter_cache.clean(counter_address)
            for address, raw in walked[1:]:
                # A lower ancestor may have been evicted (and written
                # back) by a miss higher up the same walk.
                if self.merkle_cache.contains(address):
                    self.pregs.stage(address, raw)
                    self.merkle_cache.clean(address)
            return
        if self.scheme == SchemeKind.SELECTIVE:
            index = self.layout.counter_region.block_index(counter_address)
            if index < self._selective_boundary or overflowed:
                self.pregs.stage(counter_address, block.to_bytes())
            return
        if self._use_stop_loss or overflowed:
            # Stop-loss: persist when the minor crosses a multiple of N
            # (the post-overflow reset value 0 also qualifies, so an
            # overflowed page's new counters always persist).
            if overflowed or block.minor(slot) % self.stop_loss == 0:
                self.pregs.stage(counter_address, block.to_bytes())

    # ------------------------------------------------------------------
    # counter-block fetch + verification
    # ------------------------------------------------------------------

    def _get_counter_block(self, counter_address: int) -> SplitCounterBlock:
        """Return the cached counter block, fetching + verifying on miss."""
        block = self.counter_cache.access(counter_address)
        if block is not None:
            return block
        # Land deferred tree hashes (a fill may evict a node they touch,
        # and verification reads them), then flush pending write-backs
        # so the memory image we verify against is current (the full
        # drain no-ops when re-entered from eviction processing; the
        # targeted flush still runs there).
        self.engine.flush()
        self._drain_evictions()
        self._flush_pending_eviction(counter_address)
        raw, _ = self.read_block(counter_address)
        self._meta_fetches.value += 1
        self._verify_chain(counter_address, raw)
        block = SplitCounterBlock.from_bytes(raw)
        slot, eviction = self.counter_cache.fill(counter_address, block)
        self._on_counter_filled(slot, counter_address)
        if eviction is not None:
            self._evictions.append(("counter", eviction))
        self._drain_evictions()
        return block

    def _get_merkle_node(self, node_address: int) -> BonsaiNode:
        """Return the cached tree node, fetching + verifying on miss."""
        node = self.merkle_cache.access(node_address)
        if node is not None:
            return node
        self.engine.flush()
        self._drain_evictions()
        self._flush_pending_eviction(node_address)
        raw, _ = self.read_block(node_address)
        self._meta_fetches.value += 1
        self._verify_chain(node_address, raw)
        node = BonsaiNode.from_bytes(raw)
        slot, eviction = self.merkle_cache.fill(node_address, node)
        self._on_merkle_filled(slot, node_address)
        if eviction is not None:
            self._evictions.append(("merkle", eviction))
        self._drain_evictions()
        return node

    def _verify_chain(self, block_address: int, block_bytes: bytes) -> None:
        """Verify a fetched metadata block up to the first trusted level.

        Walks ancestors upward, fetching missing nodes from memory,
        until a cached (already-verified) node or the on-chip root is
        reached; then checks hashes top-down.  Fetched ancestors are
        inserted into the Merkle cache (§2.3.1).
        """
        # Parents by arithmetic on (level, index), not path_to_root:
        # the walk usually stops one or two levels up.
        layout = self.layout
        bounds = layout.level_bounds
        arity = layout.arity
        root_level = layout.root_level
        cache = self.merkle_cache
        level, index = layout.locate_node(block_address)
        # (address, the slot of the block below it, raw), bottom-up
        chain = [(block_address, None, block_bytes)]
        while True:
            child_slot = index % arity
            level += 1
            index //= arity
            if level == root_level:
                trusted_node = self.engine.root_node
                break
            address = bounds[level] + index * BLOCK_SIZE
            trusted_node = cache.peek(address)
            if trusted_node is not None:
                break
            # An ancestor whose dirty eviction is still queued must be
            # written back first, or we would read (and then trust) its
            # stale memory copy.
            self._flush_pending_eviction(address)
            trusted_node = cache.peek(address)
            if trusted_node is not None:
                break
            raw, _ = self.read_block(address)
            self._meta_fetches.value += 1
            chain.append((address, child_slot, raw))

        # Verify top-down: the trusted node vouches for the highest
        # fetched block, each fetched node vouches for the one below it,
        # and the lowest vouches for the block being verified.
        parent_node = trusted_node
        parent_slot = child_slot
        verified = []  # (address, BonsaiNode), top-down
        block_hash = self.engine.block_hash
        for address, slot, raw in reversed(chain):
            self._integrity_checks.value += 1
            self.channel.hash_latency(1)
            if parent_node.child_hash(parent_slot) != block_hash(raw):
                raise IntegrityError(
                    f"Merkle verification failed for block {address:#x}"
                )
            if slot is not None:
                parent_node = BonsaiNode.from_bytes(raw)
                parent_slot = slot
                verified.append((address, parent_node))
            # the last iteration verified `block_bytes`; nothing below it

        # Insert the now-verified ancestors, parsed once above (top-down
        # so lower nodes are the most recently used).
        for address, node in verified:
            if not cache.contains(address):
                slot, eviction = cache.fill(address, node)
                self._on_merkle_filled(slot, address)
                if eviction is not None:
                    self._evictions.append(("merkle", eviction))

    # ------------------------------------------------------------------
    # tree updates
    # ------------------------------------------------------------------

    def _eager_update_ancestors(
        self, counter_address: int, block: SplitCounterBlock
    ) -> Optional[List[Tuple[int, bytes]]]:
        """Propagate a counter update through every level to the root.

        When every stored ancestor is cached (and the scheme defers),
        only the walk's cache touches and dirty hooks run here, bottom-up
        as the full walk does them, and the hashing is left to the
        engine's next flush; returns None.  Otherwise pending work is
        flushed and the full walk runs, returning the ``(address,
        bytes)`` it produced per level, counter block first.
        """
        steps = path_to_root(self.layout, counter_address)
        if self._defer_tree:
            addresses = [step.address for step in steps[1:-1]]
            nodes = self.merkle_cache.resident_payloads(addresses)
            if nodes is not None:
                touch = self.merkle_cache.touch_dirty
                for address in addresses:
                    slot, first = touch(address)
                    self._on_merkle_dirtied(slot, address, first)
                self.engine.defer(counter_address, block, steps, nodes)
                return None
            self.engine.flush()
        child_bytes = block.to_bytes()
        walked = [(counter_address, child_bytes)]
        for step in steps[1:]:
            child_hash = self.engine.block_hash(child_bytes)
            if step.address is None:
                self.engine.root_node.set_child_hash(step.child_slot, child_hash)
                break
            node = self._get_merkle_node(step.address)
            node.set_child_hash(step.child_slot, child_hash)
            first = self.merkle_cache.mark_dirty(step.address)
            slot = self.merkle_cache.slot_of(step.address)
            self._on_merkle_dirtied(slot, step.address, first)
            child_bytes = node.to_bytes()
            walked.append((step.address, child_bytes))
        return walked

    def _lazy_propagate(self, child_address: int, child_bytes: bytes) -> None:
        """Lazy policy: fold an evicted child's hash into its parent."""
        steps = path_to_root(self.layout, child_address)
        parent_step = steps[1]
        child_hash = self.engine.block_hash(child_bytes)
        if parent_step.address is None:
            self.engine.root_node.set_child_hash(parent_step.child_slot, child_hash)
            return
        node = self._get_merkle_node(parent_step.address)
        node.set_child_hash(parent_step.child_slot, child_hash)
        first = self.merkle_cache.mark_dirty(parent_step.address)
        slot = self.merkle_cache.slot_of(parent_step.address)
        self._on_merkle_dirtied(slot, parent_step.address, first)

    # ------------------------------------------------------------------
    # evictions
    # ------------------------------------------------------------------

    def _process_eviction(self, eviction: Eviction) -> None:
        """Write back one dirty victim (lazy policy folds it upward)."""
        if not eviction.dirty:
            return
        raw = eviction.payload.to_bytes()
        if not self.eager:
            self._lazy_propagate(eviction.address, raw)
        self._meta_writebacks.add()
        self.wpq.insert(eviction.address, raw)

    def _flush_pending_eviction(self, address: int) -> None:
        """Complete a queued eviction of ``address`` immediately.

        Refetching an address whose dirty eviction is still queued would
        read the stale memory copy and fork the block into two divergent
        versions; the pending payload must land first.
        """
        for position, (_kind, eviction) in enumerate(self._evictions):
            if eviction.address == address:
                del self._evictions[position]
                self._process_eviction(eviction)
                return

    def _drain_evictions(self) -> None:
        """Write back queued dirty victims (re-entrancy safe)."""
        if self._draining:
            return
        self._draining = True
        try:
            while self._evictions:
                _kind, eviction = self._evictions.popleft()
                self._process_eviction(eviction)
        finally:
            self._draining = False

    # ------------------------------------------------------------------
    # page re-encryption on minor-counter overflow
    # ------------------------------------------------------------------

    def _reencrypt_page(
        self,
        counter_address: int,
        block: SplitCounterBlock,
        skip_line: int,
    ) -> None:
        """Re-encrypt a whole page after its major counter advanced.

        ``block`` has already been bumped to the new major with minors
        reset; the previous counters are recovered from the persisted
        invariant that every line's last seal used the *pre-overflow*
        state, which we reconstruct by decrypting with the old major and
        each line's old minor — those are read back from the NVM copy of
        the counter block only when it is current, so instead we decrypt
        using the per-line counters captured before the reset.
        """
        # The caller mutated the block; reconstruct the old state.
        old_major = (block.major - 1) & ((1 << 64) - 1)
        old_minors = self._pre_overflow_minors.pop(counter_address, None)
        if old_minors is None:
            raise IntegrityError(
                f"page re-encryption at {counter_address:#x} without a "
                "pre-overflow snapshot"
            )
        self._reencryptions.add()
        region_index = self.layout.counter_region.block_index(counter_address)
        first_line = region_index * self.layout.lines_per_counter_block
        for offset in range(self.layout.lines_per_counter_block):
            line_address = (first_line + offset) * self.config.memory.block_size
            if line_address == skip_line:
                continue
            cipher, sideband, fresh = self.read_data_line(line_address)
            if not fresh:
                continue
            plaintext = self.open_data(
                line_address, cipher, sideband, old_major, old_minors[offset]
            )
            new_cipher, new_sideband = self.seal_data(
                line_address, plaintext, block.major, block.minor(offset)
            )
            self.wpq.insert(line_address, new_cipher, new_sideband)
            self._persist_writes.add()

    # ------------------------------------------------------------------
    # crash / shutdown
    # ------------------------------------------------------------------

    def flush_deferred(self) -> None:
        """Land deferred eager tree hashes in the cached nodes and root."""
        self.engine.flush()

    def drop_volatile(self) -> None:
        """Lose all cache contents (power failure)."""
        # The root register survives with every write folded in.
        self.engine.flush()
        self.counter_cache.drop_all_volatile()
        self.merkle_cache.drop_all_volatile()
        self._evictions.clear()
        self._pre_overflow_minors.clear()
        self.pregs.abort()

    def writeback_all(self) -> None:
        """Orderly shutdown: persist every dirty metadata block."""
        self.engine.flush()
        for _slot, address, payload, dirty in list(self.counter_cache.resident()):
            if dirty:
                raw = payload.to_bytes()
                if not self.eager:
                    self._lazy_propagate(address, raw)
                self.wpq.insert(address, raw)
                self.counter_cache.clean(address)
        # Lazy propagation may dirty more nodes; iterate until stable.
        for _round in range(self.layout.root_level + 1):
            dirty_nodes = [
                (address, payload)
                for _slot, address, payload, dirty in self.merkle_cache.resident()
                if dirty
            ]
            if not dirty_nodes:
                break
            for address, payload in dirty_nodes:
                raw = payload.to_bytes()
                if not self.eager:
                    self._lazy_propagate(address, raw)
                self.wpq.insert(address, raw)
                self.merkle_cache.clean(address)
        self.wpq.drain_all()
