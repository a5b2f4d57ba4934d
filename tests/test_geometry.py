"""Tests for tree-path navigation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MemoryConfig, TreeKind
from repro.integrity import geometry
from repro.integrity.geometry import ancestors, path_to_root
from repro.mem.layout import MemoryLayout

MIB = 1024 * 1024


@pytest.fixture
def layout():
    return MemoryLayout(
        MemoryConfig(capacity_bytes=4 * MIB),
        TreeKind.BONSAI,
        metadata_cache_blocks=128,
    )


class TestPathToRoot:
    def test_starts_at_leaf_ends_at_root(self, layout):
        leaf = layout.counter_region.block_address(0)
        path = path_to_root(layout, leaf)
        assert path[0].level == 0
        assert path[0].address == leaf
        assert path[-1].level == layout.root_level
        assert path[-1].address is None

    def test_length_is_levels_plus_one(self, layout):
        leaf = layout.counter_region.block_address(0)
        assert len(path_to_root(layout, leaf)) == layout.root_level + 1

    def test_child_slots_consistent(self, layout):
        leaf = layout.counter_region.block_address(37)
        path = path_to_root(layout, leaf)
        index = 37
        for step in path[1:]:
            assert step.child_slot == index % 8
            index //= 8

    def test_works_from_intermediate_node(self, layout):
        node = layout.node_address(2, 3)
        path = path_to_root(layout, node)
        assert path[0].level == 2
        assert path[0].index == 3

    def test_memoized_identity(self, layout):
        leaf = layout.counter_region.block_address(5)
        assert path_to_root(layout, leaf) is path_to_root(layout, leaf)

    def test_memo_bounded_evicts_oldest_first(self, layout, monkeypatch):
        monkeypatch.setattr(geometry, "_PATH_CACHE_LIMIT", 4)
        leaves = [layout.counter_region.block_address(i) for i in range(10)]
        first = path_to_root(layout, leaves[0])
        for index, leaf in enumerate(leaves[1:], start=1):
            path = path_to_root(layout, leaf)
            assert len(layout._path_cache) == min(index + 1, 4)
            assert path[0].address == leaf
            assert [step.index for step in path] == [
                index // 8**level for level in range(layout.root_level + 1)
            ]
        # The newest four survive in insertion order; the rest made room.
        assert list(layout._path_cache) == leaves[-4:]
        assert path_to_root(layout, leaves[-1]) is path_to_root(
            layout, leaves[-1]
        )
        # An evicted path is rebuilt equal (not identical) on demand.
        again = path_to_root(layout, leaves[0])
        assert again == first and again is not first
        assert len(layout._path_cache) == 4

    @given(st.integers(min_value=0, max_value=1023))
    def test_addresses_match_layout_property(self, leaf_index):
        layout = MemoryLayout(
            MemoryConfig(capacity_bytes=4 * MIB),
            TreeKind.BONSAI,
            metadata_cache_blocks=128,
        )
        leaf = layout.counter_region.block_address(leaf_index)
        path = path_to_root(layout, leaf)
        for step in path[1:]:
            if step.address is not None:
                assert layout.node_address(step.level, step.index) == (
                    step.address
                )


class TestAncestors:
    def test_ancestors_exclude_leaf_and_root(self, layout):
        leaf = layout.counter_region.block_address(0)
        steps = ancestors(layout, leaf)
        assert all(step.address is not None for step in steps)
        assert all(1 <= step.level < layout.root_level for step in steps)

    def test_matches_layout_helper(self, layout):
        leaf = layout.counter_region.block_address(9)
        assert [step.address for step in ancestors(layout, leaf)] == (
            layout.ancestors_of_counter(leaf)
        )
