"""Anubis shadow-table structures (§4.1, Fig. 6, Fig. 9).

* :class:`ShadowAddressTable` — the AGIT trackers (SCT and SMT): one
  64-bit address per cache slot, eight addresses packed per 64B NVM
  block.  The controller keeps an on-chip mirror and rewrites the one
  affected 64B group on each tracked event.
* :class:`StEntry` — an ASIT Shadow Table entry (Fig. 9b): the tracked
  node's address (+ a valid bit in the alignment bits), its 56-bit MAC,
  and the 49-bit LSBs of its eight counters.  64 + 56 + 8×49 = 512 bits,
  exactly one 64B block per cache slot.
* :class:`ShadowRegionTree` — the small eagerly-updated Merkle tree that
  protects the ASIT Shadow Table; only its root (SHADOW_TREE_ROOT) is
  persistent, in an on-chip NVM register (§4.3.1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import BLOCK_SIZE, TREE_ARITY
from repro.crypto.hashes import keyed_proto, proto_int
from repro.errors import ConfigError
from repro.util.bitops import mask

_ADDRESSES_PER_BLOCK = 8
_LSB_BITS = 49
_MAC_BITS = 56
_COUNTERS = 8
#: ST entry layout: the 64-bit address word (bit 0 = valid), the MAC at
#: bit 64, then LSB field *i* at bit 120 + 49i.
_ADDRESS_MASK = mask(64) & ~1
_MAC_MASK = mask(_MAC_BITS)
_LSB_MASK = mask(_LSB_BITS)
_MAC_SHIFT = 64
_LSB_SHIFTS = tuple(
    _MAC_SHIFT + _MAC_BITS + i * _LSB_BITS for i in range(_COUNTERS)
)
#: One shadow-tree node's hash input: its children as 64-bit words.
_NODE_PAYLOAD = struct.Struct(f"<{TREE_ARITY}Q")


class ShadowAddressTable:
    """On-chip mirror of an AGIT shadow region (SCT or SMT).

    ``slots[i]`` is the address currently tracked for cache slot *i*
    (0 = nothing tracked).  :meth:`record` updates a slot and returns
    the offset and bytes of the one 64B group block that must be
    rewritten in NVM.
    """

    addresses_per_block = _ADDRESSES_PER_BLOCK

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ConfigError("shadow table needs at least one slot")
        self.num_slots = num_slots
        self.slots: List[int] = [0] * num_slots

    def record(self, slot: int, address: int) -> "tuple[int, bytes]":
        """Track ``address`` in ``slot``; returns (group_index, block)."""
        if not 0 <= slot < self.num_slots:
            raise ConfigError(f"slot {slot} outside shadow table")
        self.slots[slot] = address
        group = slot // _ADDRESSES_PER_BLOCK
        return group, self.group_bytes(group)

    def group_bytes(self, group: int) -> bytes:
        """Serialize one 8-address group to its 64B NVM block."""
        out = bytearray()
        base = group * _ADDRESSES_PER_BLOCK
        for offset in range(_ADDRESSES_PER_BLOCK):
            index = base + offset
            value = self.slots[index] if index < self.num_slots else 0
            out += value.to_bytes(8, "little")
        return bytes(out)

    @staticmethod
    def parse_block(raw: bytes) -> List[int]:
        """Unpack a 64B group block into its eight tracked addresses."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError("shadow group block must be 64 bytes")
        return [
            int.from_bytes(raw[offset : offset + 8], "little")
            for offset in range(0, BLOCK_SIZE, 8)
        ]

    @property
    def num_groups(self) -> int:
        """Number of 64B group blocks backing this table."""
        return (self.num_slots + _ADDRESSES_PER_BLOCK - 1) // _ADDRESSES_PER_BLOCK

    def tracked_addresses(self) -> List[int]:
        """All non-empty tracked addresses (mirror view)."""
        return [address for address in self.slots if address]


@dataclass(frozen=True)
class StEntry:
    """One ASIT Shadow Table entry (Fig. 9b)."""

    valid: bool
    address: int
    mac: int
    lsbs: "tuple[int, ...]"

    lsb_bits = _LSB_BITS

    def to_bytes(self) -> bytes:
        """Pack to 64 bytes: addr|valid, MAC, eight 49-bit LSB fields."""
        if len(self.lsbs) != _COUNTERS:
            raise ConfigError("ST entry needs eight LSB fields")
        word = (
            (self.address & _ADDRESS_MASK)
            | (1 if self.valid else 0)
            | (self.mac & _MAC_MASK) << _MAC_SHIFT
        )
        for lsb, shift in zip(self.lsbs, _LSB_SHIFTS):
            word |= (lsb & _LSB_MASK) << shift
        return word.to_bytes(BLOCK_SIZE, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StEntry":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ConfigError("ST entry must be 64 bytes")
        word = int.from_bytes(raw, "little")
        return cls(
            valid=bool(word & 1),
            address=word & _ADDRESS_MASK,
            mac=(word >> _MAC_SHIFT) & _MAC_MASK,
            lsbs=tuple((word >> shift) & _LSB_MASK for shift in _LSB_SHIFTS),
        )

    @staticmethod
    def invalid() -> "StEntry":
        """The empty (untracked) entry — one shared frozen instance."""
        return _INVALID_ENTRY


_INVALID_ENTRY = StEntry(valid=False, address=0, mac=0, lsbs=(0,) * _COUNTERS)


class ShadowRegionTree:
    """Eagerly-updated 8-ary hash tree over the ASIT Shadow Table.

    The leaves are the hashes of the ST's 64B entry blocks.  Every ST
    update recomputes one leaf-to-root path (a handful of hashes for a
    256KB-class table — "3-4 levels", §4.3.1).  The intermediate nodes
    are volatile; only :attr:`root` is persistent on-chip, which is all
    recovery needs: it recomputes the root from the NVM copy of the ST
    and compares.
    """

    def __init__(self, key: bytes, num_leaves: int) -> None:
        if num_leaves <= 0:
            raise ConfigError("shadow region tree needs leaves")
        self.key = key
        self._proto = keyed_proto(key)
        self.num_leaves = num_leaves
        empty = self._leaf_hash(bytes(BLOCK_SIZE))
        self.levels: List[List[int]] = [[empty] * num_leaves]
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            # An empty tree's child rows are all alike, save a zero-
            # padded last one: hash each distinct row once.
            hashes: Dict[tuple, int] = {}
            level = []
            for start in range(0, len(below), TREE_ARITY):
                children = tuple(below[start : start + TREE_ARITY])
                if children not in hashes:
                    hashes[children] = self._children_hash(children)
                level.append(hashes[children])
            self.levels.append(level)

    def _leaf_hash(self, block: bytes) -> int:
        return proto_int(self._proto, block)

    def _children_hash(self, children) -> int:
        padding = (0,) * (TREE_ARITY - len(children))
        return proto_int(self._proto, _NODE_PAYLOAD.pack(*children, *padding))

    def _node_hash(self, level: int, index: int) -> int:
        below = self.levels[level - 1]
        return self._children_hash(
            below[index * TREE_ARITY : (index + 1) * TREE_ARITY]
        )

    def update(self, leaf_index: int, block: bytes) -> int:
        """Fold a new ST entry block into the tree; returns the number
        of hash computations (for latency accounting)."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ConfigError(f"leaf {leaf_index} outside shadow tree")
        self.levels[0][leaf_index] = self._leaf_hash(block)
        hashes = 1
        index = leaf_index
        for level in range(1, len(self.levels)):
            index //= TREE_ARITY
            self.levels[level][index] = self._node_hash(level, index)
            hashes += 1
        return hashes

    @property
    def root(self) -> int:
        """SHADOW_TREE_ROOT — the only persistent piece of this tree."""
        return self.levels[-1][0]

    @classmethod
    def from_leaves(
        cls,
        key: bytes,
        num_leaves: int,
        leaves: Iterable[Tuple[int, bytes]],
    ) -> "ShadowRegionTree":
        """Build a live tree from a sparse set of ST blocks.

        ``leaves`` holds ``(index, block)`` pairs; every other leaf is
        an all-zero block — what a never-written ST entry reads as.
        Ancestors are re-hashed once each, bottom-up, and only above
        the given leaves, so the host work scales with the entries ever
        written, not the table size.  Used at recovery time against
        the NVM copy of the Shadow Table; the recovery engine keeps
        updating the returned tree while it resets entries, so
        SHADOW_TREE_ROOT can track the reset transactionally.
        """
        tree = cls(key, num_leaves)
        dirty = set()
        for index, block in leaves:
            if not 0 <= index < num_leaves:
                raise ConfigError(f"leaf {index} outside shadow tree")
            tree.levels[0][index] = tree._leaf_hash(block)
            dirty.add(index // TREE_ARITY)
        for level in range(1, len(tree.levels)):
            row = tree.levels[level]
            for index in dirty:
                row[index] = tree._node_hash(level, index)
            dirty = {index // TREE_ARITY for index in dirty}
        return tree

    @classmethod
    def from_reader(
        cls,
        key: bytes,
        num_leaves: int,
        reader: Callable[[int], bytes],
        tracker: Optional[List[int]] = None,
    ) -> "ShadowRegionTree":
        """Build a live tree from ST blocks read via ``reader(index)``.

        Reads every leaf; :meth:`from_leaves` over all of them.
        ``tracker``, if given, receives one element per block read.
        """
        def read(index: int) -> bytes:
            if tracker is not None:
                tracker.append(index)
            return reader(index)

        return cls.from_leaves(
            key, num_leaves, ((i, read(i)) for i in range(num_leaves))
        )

    @classmethod
    def compute_root(
        cls,
        key: bytes,
        num_leaves: int,
        reader: Callable[[int], bytes],
        tracker: Optional[List[int]] = None,
    ) -> int:
        """Root over ST blocks read via ``reader(index)`` (convenience)."""
        return cls.from_reader(key, num_leaves, reader, tracker).root
