"""x86-64 style 4-level radix page table.

The baseline IOMMU and NeuMMU both walk CPU-format page tables
(Section II-B): a radix tree with 512-entry nodes.  A full walk for a 4 KB
page reads one entry at each of the four levels (L4 → L3 → L2 → L1); a 2 MB
large-page walk terminates at L2 (three reads).  The paper charges 100 cycles
of memory latency per level (Table I).

The table here is a *functional* model: it stores real mappings created by
the allocator so that walks return genuine physical frame numbers, and it
exposes the per-level node identities needed by the translation-path caches
(UPTC is tagged by the physical address of each entry; TPC/TPreg by the
virtual L4/L3/L2 indices — Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from .address import (
    ENTRIES_PER_NODE,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PAGE_TABLE_LEVELS,
    AddressError,
    page_number,
    split_indices,
)


class PageFault(Exception):
    """Raised when a walk reaches a non-present entry."""

    def __init__(self, va: int, level: int) -> None:
        super().__init__(f"page fault at VA 0x{va:x} (level L{level} not present)")
        self.va = va
        self.level = level


@dataclass(frozen=True)
class WalkStep:
    """One memory reference made during a page-table walk.

    ``level`` is 4 for the PML4 read down to 1 for the leaf PTE read (or 2
    for a 2 MB leaf).  ``entry_pa`` is the physical address of the entry
    being read — the tag used by a unified page-table cache (UPTC).
    """

    level: int
    node_pa: int
    index: int

    @property
    def entry_pa(self) -> int:
        """Physical address of the 8-byte entry read by this step."""
        return self.node_pa + 8 * self.index


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a successful page-table walk."""

    va: int
    pfn: int
    page_size: int
    steps: Tuple[WalkStep, ...]

    @property
    def levels_accessed(self) -> int:
        """Number of memory references the full (uncached) walk performs."""
        return len(self.steps)


class _Node:
    """One 512-entry page-table node."""

    __slots__ = ("pa", "entries")

    def __init__(self, pa: int) -> None:
        self.pa = pa
        # index -> child _Node (interior) or leaf payload.
        self.entries: Dict[int, object] = {}


class _Leaf(NamedTuple):
    """A present leaf mapping (NamedTuple: one per mapped page, and the
    C-level constructor keeps bulk mapping cheap)."""

    pfn: int
    page_size: int


class PageTable:
    """A 4-level radix page table supporting mixed 4 KB and 2 MB mappings.

    Page-table nodes are assigned synthetic physical addresses from a bump
    allocator so UPTC tagging (by entry PA) is meaningful.
    """

    def __init__(self, node_region_base: int = 0x1_0000_0000) -> None:
        self._node_pa_cursor = node_region_base
        self._root = self._new_node()
        self._mapped_bytes = 0

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    def _new_node(self) -> _Node:
        node = _Node(self._node_pa_cursor)
        # Each node occupies one 4 KB frame (512 entries x 8 bytes).
        self._node_pa_cursor += PAGE_SIZE_4K
        return node

    def map_page(self, va: int, pfn: int, page_size: int = PAGE_SIZE_4K) -> None:
        """Install a mapping for the page containing ``va``.

        4 KB pages install an L1 leaf; 2 MB pages install an L2 leaf.
        Remapping an already-present page replaces the mapping (this is what
        page migration does in Section V/VI-A).
        """
        if page_size == PAGE_SIZE_4K:
            leaf_level = 1
        elif page_size == PAGE_SIZE_2M:
            leaf_level = 2
            if va & (PAGE_SIZE_2M - 1):
                raise AddressError(f"2 MB mapping for VA 0x{va:x} must be 2 MB aligned")
        else:
            raise AddressError(f"unsupported page size {page_size}")

        indices = split_indices(va)  # (l4, l3, l2, l1)
        node = self._root
        # Descend, creating interior nodes, until the leaf level's parent.
        for level in range(PAGE_TABLE_LEVELS, leaf_level, -1):
            idx = indices[PAGE_TABLE_LEVELS - level]
            child = node.entries.get(idx)
            if child is None:
                child = self._new_node()
                node.entries[idx] = child
            elif isinstance(child, _Leaf):
                raise AddressError(
                    f"VA 0x{va:x}: level L{level} already holds a large-page leaf"
                )
            node = child  # type: ignore[assignment]
        leaf_idx = indices[PAGE_TABLE_LEVELS - leaf_level]
        if leaf_idx not in node.entries:
            self._mapped_bytes += page_size
        node.entries[leaf_idx] = _Leaf(pfn=pfn, page_size=page_size)

    def map_range(
        self, va: int, length: int, first_pfn: int, page_size: int = PAGE_SIZE_4K
    ) -> int:
        """Map ``length`` bytes starting at page-aligned ``va`` to consecutive
        frames starting at ``first_pfn``.  Returns the number of pages mapped.
        """
        if va & (page_size - 1):
            raise AddressError(f"range base 0x{va:x} not {page_size}-byte aligned")
        n_pages = (length + page_size - 1) // page_size
        if page_size == PAGE_SIZE_4K:
            # Bulk fast path: descend to each L1 node once and install its
            # (up to 512) consecutive leaves in a tight loop, instead of a
            # full root-to-leaf descent per page.  Same leaves, same
            # interior-node creation order, same accounting as map_page.
            mapped = 0
            while mapped < n_pages:
                page_va = va + mapped * PAGE_SIZE_4K
                l4, l3, l2, l1 = split_indices(page_va)
                node = self._root
                for idx in (l4, l3, l2):
                    child = node.entries.get(idx)
                    if child is None:
                        child = self._new_node()
                        node.entries[idx] = child
                    elif isinstance(child, _Leaf):
                        raise AddressError(
                            f"VA 0x{page_va:x}: level already holds a "
                            f"large-page leaf"
                        )
                    node = child
                count = min(ENTRIES_PER_NODE - l1, n_pages - mapped)
                entries = node.entries
                pfn = first_pfn + mapped
                for leaf_idx in range(l1, l1 + count):
                    if leaf_idx not in entries:
                        self._mapped_bytes += PAGE_SIZE_4K
                    entries[leaf_idx] = _Leaf(pfn=pfn, page_size=PAGE_SIZE_4K)
                    pfn += 1
                mapped += count
            return n_pages
        for i in range(n_pages):
            self.map_page(va + i * page_size, first_pfn + i, page_size)
        return n_pages

    def unmap_page(self, va: int, page_size: int = PAGE_SIZE_4K) -> None:
        """Remove the mapping for the page containing ``va`` (if present)."""
        leaf_level = 1 if page_size == PAGE_SIZE_4K else 2
        indices = split_indices(va)
        node = self._root
        for level in range(PAGE_TABLE_LEVELS, leaf_level, -1):
            idx = indices[PAGE_TABLE_LEVELS - level]
            child = node.entries.get(idx)
            if not isinstance(child, _Node):
                return
            node = child
        leaf_idx = indices[PAGE_TABLE_LEVELS - leaf_level]
        if isinstance(node.entries.get(leaf_idx), _Leaf):
            del node.entries[leaf_idx]
            self._mapped_bytes -= page_size

    # ------------------------------------------------------------------ #
    # walking                                                            #
    # ------------------------------------------------------------------ #

    def walk(self, va: int) -> WalkResult:
        """Perform a full architectural walk; raises :class:`PageFault` on a
        non-present entry."""
        indices = split_indices(va)
        node = self._root
        steps = []
        for level in range(PAGE_TABLE_LEVELS, 0, -1):
            idx = indices[PAGE_TABLE_LEVELS - level]
            steps.append(WalkStep(level=level, node_pa=node.pa, index=idx))
            entry = node.entries.get(idx)
            if entry is None:
                raise PageFault(va, level)
            if isinstance(entry, _Leaf):
                return WalkResult(
                    va=va, pfn=entry.pfn, page_size=entry.page_size, steps=tuple(steps)
                )
            node = entry  # type: ignore[assignment]
        raise AddressError(f"walk for VA 0x{va:x} descended past L1")

    def resolve(self, va: int) -> Optional[Tuple[int, int, int, Tuple[int, ...]]]:
        """Lean walk: ``(pfn, page_size, levels_accessed, entry_pas)``.

        Same traversal as :meth:`walk`, returning the exact fields the
        timing engine's :class:`~repro.core.walk_info.WalkResolver`
        consumes without materializing per-level :class:`WalkStep` records
        — resolvers walk every distinct page of every context, so the
        object churn is measurable at workload scale.  A non-present
        entry returns None instead of raising :class:`PageFault`: demand
        paging probes unmapped pages on every fault, and an exception per
        probe is the costlier answer.
        """
        indices = split_indices(va)
        node = self._root
        entry_pas = []
        for level in range(PAGE_TABLE_LEVELS, 0, -1):
            idx = indices[PAGE_TABLE_LEVELS - level]
            entry_pas.append(node.pa + 8 * idx)
            entry = node.entries.get(idx)
            if entry is None:
                return None
            if type(entry) is _Leaf:
                return entry.pfn, entry.page_size, len(entry_pas), tuple(entry_pas)
            node = entry
        raise AddressError(f"walk for VA 0x{va:x} descended past L1")

    def translate(self, va: int) -> int:
        """Return the physical address for ``va`` (full functional walk)."""
        result = self.walk(va)
        return result.pfn * result.page_size + (va & (result.page_size - 1))

    def is_mapped(self, va: int) -> bool:
        """True when a walk for ``va`` would succeed.

        Descends the radix tree directly: no :class:`WalkStep` records,
        no :class:`PageFault` for the (common) unmapped answer.
        """
        indices = split_indices(va)
        node = self._root
        for level in range(PAGE_TABLE_LEVELS, 0, -1):
            entry = node.entries.get(indices[PAGE_TABLE_LEVELS - level])
            if entry is None:
                return False
            if type(entry) is _Leaf:
                return True
            node = entry  # type: ignore[assignment]
        raise AddressError(f"walk for VA 0x{va:x} descended past L1")

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def mapped_bytes(self) -> int:
        """Total bytes of VA space currently mapped."""
        return self._mapped_bytes

    def node_count(self) -> int:
        """Number of radix-tree nodes (4 KB frames of page-table storage)."""

        def count(node: _Node) -> int:
            total = 1
            for entry in node.entries.values():
                if isinstance(entry, _Node):
                    total += count(entry)
            return total

        return count(self._root)

    def iter_mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(vpn_base_va, pfn, page_size)`` for every present leaf."""

        def visit(node: _Node, level: int, va_prefix: int) -> Iterator[Tuple[int, int, int]]:
            shift = 12 + 9 * (level - 1)
            for idx, entry in sorted(node.entries.items()):
                va = va_prefix | (idx << shift)
                if isinstance(entry, _Leaf):
                    yield (va, entry.pfn, entry.page_size)
                else:
                    yield from visit(entry, level - 1, va)

        yield from visit(self._root, PAGE_TABLE_LEVELS, 0)
