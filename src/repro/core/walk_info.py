"""Resolved page-table-walk descriptors.

The timing engine needs, per virtual page, everything a hardware walker
would discover: how many levels the walk traverses, the virtual L4/L3/L2
indices (the TPreg/TPC tag, Section IV-C), the physical addresses of the
entries read at each level (the UPTC tag), and the resulting PFN.
:class:`WalkResolver` computes these once per page from the functional page
table and memoizes them, since within a run millions of transactions hit a
much smaller set of pages.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..memory.address import PAGE_SIZE_4K, page_offset_bits, split_indices
from ..memory.page_table import PageTable


class WalkInfo(NamedTuple):
    """Everything known about one page's translation.

    A ``NamedTuple`` rather than a dataclass: resolvers mint one per
    distinct page per context, and the C-level tuple constructor keeps
    that churn off the profile while staying immutable and slotted.

    Attributes
    ----------
    vpn:
        Virtual page number (relative to the *walk's* page size).
    pfn:
        Physical frame number the walk resolves to.
    page_size:
        4 KB or 2 MB.
    levels:
        Memory references of an uncached walk (4 for 4 KB, 3 for 2 MB).
    path:
        Upper-level virtual indices, outermost first.  For a 4 KB page this
        is ``(l4, l3, l2)``; for a 2 MB page ``(l4, l3)`` — the skippable
        prefix of the walk.
    entry_pas:
        Physical address of the entry read at each level, outermost first;
        ``len(entry_pas) == levels``.
    asid:
        Address-space identifier of the context this walk belongs to.
        Single-context simulations leave it at 0; multi-tenant runs use it
        to tag shared translation structures (TLB, PTS, path caches).
    """

    vpn: int
    pfn: int
    page_size: int
    levels: int
    path: Tuple[int, ...]
    entry_pas: Tuple[int, ...]
    asid: int = 0


class WalkResolver:
    """Memoizing functional-walk front-end for the timing engine.

    One resolver serves one address-space context: it wraps that context's
    page table and stamps every :class:`WalkInfo` it produces with the
    context's ``asid``, which is how walk results carry their origin into
    ASID-tagged shared structures.
    """

    def __init__(
        self, page_table: PageTable, page_size: int = PAGE_SIZE_4K, asid: int = 0
    ) -> None:
        self.page_table = page_table
        self.page_size = page_size
        self.asid = asid
        self._offset_bits = page_offset_bits(page_size)
        self._cache: Dict[int, Optional[WalkInfo]] = {}

    def resolve_vpn(self, vpn: int) -> Optional[WalkInfo]:
        """Resolve a virtual page number; None means the walk page-faults."""
        cached = self._cache.get(vpn, _SENTINEL)
        if cached is not _SENTINEL:
            return cached
        va = vpn << self._offset_bits
        resolved = self.page_table.resolve(va)
        if resolved is None:
            self._cache[vpn] = None
            return None
        pfn, page_size, levels, entry_pas = resolved
        l4, l3, l2, _ = split_indices(va)
        if page_size == PAGE_SIZE_4K:
            path: Tuple[int, ...] = (l4, l3, l2)
        else:
            path = (l4, l3)
        info = WalkInfo(
            vpn=vpn,
            pfn=pfn,
            page_size=page_size,
            levels=levels,
            path=path,
            entry_pas=entry_pas,
            asid=self.asid,
        )
        self._cache[vpn] = info
        return info

    def resolve_va(self, va: int) -> Optional[WalkInfo]:
        """Resolve the page containing ``va``."""
        return self.resolve_vpn(va >> self._offset_bits)

    def invalidate(self, vpn: int) -> None:
        """Drop a memoized walk (after remapping/migration)."""
        self._cache.pop(vpn, None)

    def invalidate_all(self) -> None:
        """Drop every memoized walk."""
        self._cache.clear()


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()
