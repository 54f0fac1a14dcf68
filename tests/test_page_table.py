"""Unit + property tests for the 4-level radix page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K, AddressError
from repro.memory.page_table import PageFault, PageTable

BASE = 0x7F00_0000_0000


class TestMapping:
    def test_walk_unmapped_faults(self):
        pt = PageTable()
        with pytest.raises(PageFault):
            pt.walk(BASE)

    def test_map_and_walk_4k(self):
        pt = PageTable()
        pt.map_page(BASE, pfn=42)
        result = pt.walk(BASE + 123)
        assert result.pfn == 42
        assert result.page_size == PAGE_SIZE_4K
        assert result.levels_accessed == 4

    def test_translate_physical_address(self):
        pt = PageTable()
        pt.map_page(BASE, pfn=42)
        assert pt.translate(BASE + 123) == 42 * PAGE_SIZE_4K + 123

    def test_map_and_walk_2m(self):
        pt = PageTable()
        base = BASE  # 2 MB aligned
        pt.map_page(base, pfn=7, page_size=PAGE_SIZE_2M)
        result = pt.walk(base + 1_000_000)
        assert result.pfn == 7
        assert result.page_size == PAGE_SIZE_2M
        assert result.levels_accessed == 3  # L4, L3, L2 leaf

    def test_2m_requires_alignment(self):
        pt = PageTable()
        with pytest.raises(AddressError):
            pt.map_page(BASE + PAGE_SIZE_4K, pfn=1, page_size=PAGE_SIZE_2M)

    def test_remap_replaces(self):
        pt = PageTable()
        pt.map_page(BASE, pfn=1)
        pt.map_page(BASE, pfn=2)
        assert pt.walk(BASE).pfn == 2
        assert pt.mapped_bytes == PAGE_SIZE_4K  # not double counted

    def test_unmap(self):
        pt = PageTable()
        pt.map_page(BASE, pfn=1)
        pt.unmap_page(BASE)
        assert not pt.is_mapped(BASE)
        assert pt.mapped_bytes == 0

    def test_unmap_missing_is_noop(self):
        pt = PageTable()
        pt.unmap_page(BASE)  # must not raise

    def test_map_range(self):
        pt = PageTable()
        n = pt.map_range(BASE, 10 * PAGE_SIZE_4K, first_pfn=100)
        assert n == 10
        for i in range(10):
            assert pt.walk(BASE + i * PAGE_SIZE_4K).pfn == 100 + i

    def test_map_range_rejects_misaligned(self):
        pt = PageTable()
        with pytest.raises(AddressError):
            pt.map_range(BASE + 1, PAGE_SIZE_4K, first_pfn=0)

    def test_neighbouring_pages_share_upper_nodes(self):
        pt = PageTable()
        pt.map_page(BASE, 1)
        nodes_before = pt.node_count()
        pt.map_page(BASE + PAGE_SIZE_4K, 2)
        # Same L1 table: no new interior nodes needed.
        assert pt.node_count() == nodes_before


class TestWalkSteps:
    def test_steps_descend_levels(self):
        pt = PageTable()
        pt.map_page(BASE, 5)
        steps = pt.walk(BASE).steps
        assert [s.level for s in steps] == [4, 3, 2, 1]

    def test_entry_pa_is_within_node(self):
        pt = PageTable()
        pt.map_page(BASE, 5)
        for step in pt.walk(BASE).steps:
            assert step.node_pa <= step.entry_pa < step.node_pa + PAGE_SIZE_4K
            assert step.entry_pa == step.node_pa + 8 * step.index

    def test_same_2mb_region_shares_walk_prefix(self):
        pt = PageTable()
        pt.map_page(BASE, 1)
        pt.map_page(BASE + PAGE_SIZE_4K, 2)
        a = pt.walk(BASE).steps
        b = pt.walk(BASE + PAGE_SIZE_4K).steps
        # L4/L3/L2 reads identical; only the L1 entry differs.
        assert [s.entry_pa for s in a[:3]] == [s.entry_pa for s in b[:3]]
        assert a[3].entry_pa != b[3].entry_pa

    def test_fault_reports_level(self):
        pt = PageTable()
        pt.map_page(BASE, 1)
        # Unmapped VA in a totally different region faults at L4.
        with pytest.raises(PageFault) as exc:
            pt.walk(0x10_0000_0000)
        assert exc.value.level == 4
        # Unmapped page in the same L1 table faults at L1.
        with pytest.raises(PageFault) as exc:
            pt.walk(BASE + 5 * PAGE_SIZE_4K)
        assert exc.value.level == 1


    def test_resolve_and_is_mapped_agree_with_walk(self):
        """The lean probes answer exactly what ``walk`` answers, without
        raising: ``resolve`` returns None and ``is_mapped`` False where
        ``walk`` raises PageFault."""
        pt = PageTable()
        pt.map_page(BASE, 1)
        pt.map_page(BASE + PAGE_SIZE_2M, 9, page_size=PAGE_SIZE_2M)
        probes = [
            BASE, BASE + 77, BASE + PAGE_SIZE_4K, BASE + PAGE_SIZE_2M + 12345,
            BASE + 2 * PAGE_SIZE_2M, 0x10_0000_0000,
        ]
        for va in probes:
            try:
                result = pt.walk(va)
            except PageFault:
                assert pt.resolve(va) is None
                assert not pt.is_mapped(va)
                continue
            assert pt.is_mapped(va)
            assert pt.resolve(va) == (
                result.pfn, result.page_size, result.levels_accessed,
                tuple(step.entry_pa for step in result.steps),
            )


class TestIntrospection:
    def test_iter_mappings_roundtrip(self):
        pt = PageTable()
        expected = {}
        for i in [0, 3, 9, 513]:  # 513 forces a second L1 node
            va = BASE + i * PAGE_SIZE_4K
            pt.map_page(va, pfn=i)
            expected[va] = i
        seen = {va: pfn for va, pfn, _size in pt.iter_mappings()}
        assert seen == expected

    def test_mixed_page_size_mappings(self):
        pt = PageTable()
        pt.map_page(BASE, 1, PAGE_SIZE_4K)
        pt.map_page(BASE + PAGE_SIZE_2M, 2, PAGE_SIZE_2M)
        sizes = {size for _va, _pfn, size in pt.iter_mappings()}
        assert sizes == {PAGE_SIZE_4K, PAGE_SIZE_2M}

    @given(
        st.lists(
            st.integers(0, 5000),
            min_size=1,
            max_size=60,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_map_walk_consistency(self, page_indices):
        pt = PageTable()
        for i in page_indices:
            pt.map_page(BASE + i * PAGE_SIZE_4K, pfn=i + 1)
        for i in page_indices:
            result = pt.walk(BASE + i * PAGE_SIZE_4K + 17)
            assert result.pfn == i + 1
        assert pt.mapped_bytes == len(page_indices) * PAGE_SIZE_4K
