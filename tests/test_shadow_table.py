"""Unit and property tests for the Anubis shadow-table structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KIB, MIB, SchemeKind, TreeKind, default_table1_config
from repro.controller.factory import build_controller
from repro.core.shadow_table import (
    ShadowAddressTable,
    ShadowRegionTree,
    StEntry,
)
from repro.crypto.hashes import hash64
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.util.bitops import mask, pack_fields


class TestShadowAddressTable:
    def test_record_returns_group_block(self):
        table = ShadowAddressTable(16)
        group, block = table.record(3, 0x4000)
        assert group == 0
        assert len(block) == 64
        assert ShadowAddressTable.parse_block(block)[3] == 0x4000

    def test_groups_pack_eight_slots(self):
        table = ShadowAddressTable(16)
        group, _ = table.record(8, 0x1000)
        assert group == 1

    def test_record_overwrites_slot(self):
        table = ShadowAddressTable(8)
        table.record(0, 0x1000)
        _group, block = table.record(0, 0x2000)
        assert ShadowAddressTable.parse_block(block)[0] == 0x2000

    def test_tracked_addresses_skip_empty(self):
        table = ShadowAddressTable(8)
        table.record(2, 0x1000)
        table.record(5, 0x2000)
        assert sorted(table.tracked_addresses()) == [0x1000, 0x2000]

    def test_partial_last_group_pads_zero(self):
        table = ShadowAddressTable(10)  # 2 groups, last partly used
        table.record(9, 0x4000)
        block = table.group_bytes(1)
        parsed = ShadowAddressTable.parse_block(block)
        assert parsed[1] == 0x4000
        assert parsed[2:] == [0] * 6

    def test_num_groups(self):
        assert ShadowAddressTable(16).num_groups == 2
        assert ShadowAddressTable(17).num_groups == 3

    def test_bad_slot_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable(8).record(8, 0x1000)

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable(0)

    def test_parse_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            ShadowAddressTable.parse_block(b"short")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=1, max_value=(1 << 40)),
            ),
            max_size=40,
        )
    )
    def test_mirror_matches_blocks_property(self, updates):
        table = ShadowAddressTable(16)
        for slot, raw_address in updates:
            table.record(slot, raw_address * 64)
        for group in range(table.num_groups):
            parsed = ShadowAddressTable.parse_block(table.group_bytes(group))
            for offset, value in enumerate(parsed):
                assert value == table.slots[group * 8 + offset]


class TestStEntry:
    def test_roundtrip(self):
        entry = StEntry(
            valid=True,
            address=0x123440,
            mac=0xDEADBEEF,
            lsbs=tuple(range(8)),
        )
        assert StEntry.from_bytes(entry.to_bytes()) == entry

    def test_entry_is_64_bytes(self):
        assert len(StEntry.invalid().to_bytes()) == 64

    def test_invalid_entry(self):
        entry = StEntry.invalid()
        assert not entry.valid
        parsed = StEntry.from_bytes(entry.to_bytes())
        assert not parsed.valid

    def test_invalid_entry_is_shared_and_frozen(self):
        entry = StEntry.invalid()
        assert entry is StEntry.invalid()
        assert entry.to_bytes() == bytes(64)
        with pytest.raises(AttributeError):
            entry.valid = True

    def test_valid_bit_in_alignment_bits(self):
        entry = StEntry(valid=True, address=0x1000, mac=0, lsbs=(0,) * 8)
        raw = entry.to_bytes()
        assert raw[0] & 1 == 1
        assert StEntry.from_bytes(raw).address == 0x1000

    def test_wrong_lsb_count_rejected(self):
        with pytest.raises(ConfigError):
            StEntry(True, 0, 0, (0,) * 7).to_bytes()

    def test_from_bytes_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            StEntry.from_bytes(b"x")

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=(1 << 58) - 1),
        st.integers(min_value=0, max_value=(1 << 56) - 1),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 49) - 1),
            min_size=8,
            max_size=8,
        ),
    )
    def test_roundtrip_property(self, valid, block_index, mac, lsbs):
        entry = StEntry(
            valid=valid, address=block_index * 64, mac=mac, lsbs=tuple(lsbs)
        )
        assert StEntry.from_bytes(entry.to_bytes()) == entry

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 60) - 1),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 52) - 1),
            min_size=8,
            max_size=8,
        ),
    )
    def test_to_bytes_matches_pack_fields(self, valid, address, mac, lsbs):
        # Oversized MAC and LSB values are truncated to their widths.
        entry = StEntry(valid=valid, address=address, mac=mac, lsbs=tuple(lsbs))
        fields = [
            (int(valid), 1),
            (address >> 1, 63),
            (mac & mask(56), 56),
        ] + [(lsb & mask(49), 49) for lsb in lsbs]
        expected = pack_fields(fields).to_bytes(64, "little")
        assert entry.to_bytes() == expected
        parsed = StEntry.from_bytes(expected)
        assert parsed.valid == valid
        assert parsed.address == address & ~1
        assert parsed.mac == mac & mask(56)
        assert parsed.lsbs == tuple(lsb & mask(49) for lsb in lsbs)


class TestShadowRegionTree:
    @pytest.fixture
    def key(self):
        return ProcessorKeys(1).shadow_key

    def test_fresh_tree_matches_zero_blocks(self, key):
        tree = ShadowRegionTree(key, 20)
        blocks = {index: bytes(64) for index in range(20)}
        root = ShadowRegionTree.compute_root(key, 20, lambda i: blocks[i])
        assert root == tree.root

    def test_update_changes_root(self, key):
        tree = ShadowRegionTree(key, 20)
        before = tree.root
        tree.update(3, b"\x01" * 64)
        assert tree.root != before

    def test_update_then_recompute_matches(self, key):
        tree = ShadowRegionTree(key, 20)
        blocks = {index: bytes(64) for index in range(20)}
        for index, content in [(0, b"\x01" * 64), (13, b"\x02" * 64)]:
            tree.update(index, content)
            blocks[index] = content
        root = ShadowRegionTree.compute_root(key, 20, lambda i: blocks[i])
        assert root == tree.root

    def test_tamper_detected(self, key):
        tree = ShadowRegionTree(key, 20)
        tree.update(0, b"\x01" * 64)
        blocks = {index: bytes(64) for index in range(20)}
        blocks[0] = b"\x01" * 64
        blocks[5] = b"\xff" * 64  # attacker edit
        root = ShadowRegionTree.compute_root(key, 20, lambda i: blocks[i])
        assert root != tree.root

    def test_node_hash_pads_short_last_node(self, key):
        # 20 leaves -> 3 level-1 nodes; the last has 4 children and
        # hashes them zero-padded to eight 64-bit words.
        tree = ShadowRegionTree(key, 20)
        leaves = tree.levels[0]
        expected = [
            hash64(
                key,
                b"".join(
                    (leaves[child] if child < 20 else 0).to_bytes(8, "little")
                    for child in range(node * 8, node * 8 + 8)
                ),
            )
            for node in range(3)
        ]
        assert tree.levels[1] == expected

    def test_update_reports_hash_count(self, key):
        tree = ShadowRegionTree(key, 64)  # levels: 64 -> 8 -> 1
        assert tree.update(0, b"\x01" * 64) == 3

    def test_single_leaf_tree(self, key):
        tree = ShadowRegionTree(key, 1)
        tree.update(0, b"\x05" * 64)
        root = ShadowRegionTree.compute_root(
            key, 1, lambda i: b"\x05" * 64
        )
        assert root == tree.root

    def test_tracker_counts_reads(self, key):
        reads = []
        ShadowRegionTree.compute_root(key, 10, lambda i: bytes(64), reads)
        assert len(reads) == 10

    def test_bad_leaf_index_rejected(self, key):
        with pytest.raises(ConfigError):
            ShadowRegionTree(key, 4).update(4, bytes(64))

    def test_zero_leaves_rejected(self, key):
        with pytest.raises(ConfigError):
            ShadowRegionTree(key, 0)

    def test_from_leaves_rejects_bad_index(self, key):
        with pytest.raises(ConfigError):
            ShadowRegionTree.from_leaves(key, 4, [(4, bytes(64))])

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        num_leaves=st.integers(1, 300),
    )
    def test_sparse_build_matches_fold_and_dense(self, data, num_leaves):
        """The sparse builder equals an empty tree folded leaf by leaf,
        and a dense build over a zero-default reader."""
        key = ProcessorKeys(1).shadow_key
        indices = data.draw(
            st.lists(st.integers(0, num_leaves - 1), unique=True, max_size=40)
        )
        blocks = data.draw(
            st.lists(
                st.one_of(
                    st.binary(min_size=64, max_size=64), st.just(bytes(64))
                ),
                min_size=len(indices),
                max_size=len(indices),
            )
        )
        leaves = sorted(zip(indices, blocks))
        sparse = ShadowRegionTree.from_leaves(key, num_leaves, leaves)

        folded = ShadowRegionTree(key, num_leaves)
        for index, block in leaves:
            folded.update(index, block)
        assert sparse.levels == folded.levels

        contents = dict(leaves)
        dense = ShadowRegionTree.compute_root(
            key, num_leaves, lambda i: contents.get(i, bytes(64))
        )
        assert sparse.root == dense

    @pytest.mark.parametrize("num_leaves", [1, 7, 8, 9, 64, 65, 1024])
    def test_empty_tree_matches_per_node_hashing(self, key, num_leaves):
        """Hashing each distinct child row once builds the same tree as
        hashing every node."""
        tree = ShadowRegionTree(key, num_leaves)
        for level in range(1, len(tree.levels)):
            assert tree.levels[level] == [
                tree._node_hash(level, index)
                for index in range(len(tree.levels[level]))
            ]

    def test_keyed(self):
        tree_a = ShadowRegionTree(ProcessorKeys(1).shadow_key, 8)
        tree_b = ShadowRegionTree(ProcessorKeys(2).shadow_key, 8)
        assert tree_a.root != tree_b.root


class TestShadowRegionsReadZero:
    """Precondition of the sparse recovery scans: a never-written SCT,
    SMT or ST block reads as zeros on every tree, whatever default the
    tree engine installs for its own regions."""

    @pytest.mark.parametrize(
        "scheme,tree",
        [
            (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
            (SchemeKind.WRITE_BACK, TreeKind.BONSAI),
            (SchemeKind.ASIT, TreeKind.SGX),
            (SchemeKind.WRITE_BACK, TreeKind.SGX),
        ],
    )
    @pytest.mark.parametrize("capacity", [4 * MIB, 256 * MIB])
    def test_fresh_system_shadow_blocks_are_zero(self, scheme, tree, capacity):
        config = default_table1_config(
            scheme, tree, capacity_bytes=capacity
        ).with_cache_size(32 * KIB)
        controller = build_controller(config, keys=ProcessorKeys(1))
        nvm, layout = controller.nvm, controller.layout
        for region in (layout.sct, layout.smt, layout.st):
            assert nvm.written(region.base, region.end) == []
            assert all(
                nvm.peek(address) == bytes(64)
                for address in range(region.base, region.end, 64)
            ), region.name
