"""MMU assemblies: oracle, baseline IOMMU, and NeuMMU.

An :class:`MMU` wires together the TLB, pending-translation scoreboard,
walker pool, PRMBs and path caches into the translation state machine the
engine drives.  Three canonical configurations reproduce the paper's design
points:

* :func:`oracle_config` — every translation hits with zero latency; the
  normalization baseline for all "normalized performance" results.
* :func:`baseline_iommu_config` — Table I: 2048-entry IOTLB, 8 walkers,
  no PRMB, no MMU cache.
* :func:`neummu_config` — Section IV: 128 walkers, 32 PRMB slots per
  walker, one TPreg per walker.

The ``translate`` protocol: the engine calls :meth:`MMU.translate` with the
request's VPN and issue cycle; the result is either the cycle at which the
translated request is released to the memory system, or ``None`` with a
retry cycle when the request must stall (all walkers and merge capacity
busy — "any further translation requests are blocked until the translation
bandwidth is available", Section IV-A).
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:  # runtime imports are deferred to avoid module cycles
    from ..memory.dram import MainMemory
    from ..memory.tiering import LocalMemoryTier
    from .engine import BurstResult, Transaction
    from .walk_info import WalkInfo

from ..memory.address import ASID_SHIFT, MAX_ASID, PAGE_SIZE_4K, page_offset_bits
from ..memory.page_table import PageTable
from .mmu_cache import (
    NullPathCache,
    PathCache,
    TranslationPathCache,
    UnifiedPageTableCache,
)
from .prefetch import NextPagePrefetcher
from .pts import PendingTranslationScoreboard
from .ptw import WalkerPool
from .qos import SHARE_POLICIES, SharePolicy, make_share_policy
from .stats import RunSummary, TranslationStats
from .tlb import TLB, TwoLevelTLB
from .walk_info import WalkResolver

#: Valid ``path_cache`` settings.
PATH_CACHE_KINDS = ("none", "tpreg", "tpc", "uptc")

#: Valid ``engine_mode`` settings: ``columnar`` is the structure-of-arrays
#: fast representation; ``reference`` is the per-object golden path the
#: columnar engine is bit-identical to (the PR 1/PR 4 switch pattern).
ENGINE_MODES = ("columnar", "reference")


def default_engine_mode() -> str:
    """Engine mode from ``NEUMMU_ENGINE`` (defaults to ``columnar``).

    Invalid values raise here — at config construction — rather than deep
    inside a run, so a typo'd environment variable fails loudly.
    """
    import os

    mode = os.environ.get("NEUMMU_ENGINE", "columnar")
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"NEUMMU_ENGINE must be one of {ENGINE_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class MMUConfig:
    """Knobs spanning the paper's whole design space (Sections III–VI)."""

    name: str = "custom"
    #: Every translation free — the paper's normalization target.
    oracle: bool = False
    tlb_entries: int = 2048
    tlb_hit_latency: int = 5
    n_walkers: int = 8
    #: PRMB mergeable slots per walker; 0 disables merging entirely.
    prmb_slots: int = 0
    walk_latency_per_level: int = 100
    #: One of :data:`PATH_CACHE_KINDS`.
    path_cache: str = "none"
    #: Capacity for the shared "tpc"/"uptc" options.
    path_cache_entries: int = 16
    page_size: int = PAGE_SIZE_4K
    #: When positive, a small L1 TLB fronts the main TLB (the GPU-style
    #: multi-level hierarchy of Section III-C's strawman).
    l1_tlb_entries: int = 0
    l1_tlb_latency: int = 1
    #: When positive, a next-page stream prefetcher issues up to this many
    #: speculative walks per demand miss (extension study; see
    #: :mod:`repro.core.prefetch`).
    prefetch_depth: int = 0
    #: Tenant share policy for the shared translation structures — one of
    #: :data:`~repro.core.qos.SHARE_POLICIES`.  ``full_share`` (the
    #: default) is bit-identical to the pre-QoS engine.
    qos: str = "full_share"
    #: Transaction representation the engine runs on — one of
    #: :data:`ENGINE_MODES`.  ``columnar`` threads structure-of-arrays
    #: streams through DMA/TLB/PRMB/engine; ``reference`` keeps the
    #: per-object path as the bit-identical golden reference.  Defaults
    #: from the ``NEUMMU_ENGINE`` environment variable.
    engine_mode: str = field(default_factory=default_engine_mode)

    def __post_init__(self) -> None:
        if self.engine_mode not in ENGINE_MODES:
            raise ValueError(
                f"engine_mode must be one of {ENGINE_MODES}, got {self.engine_mode!r}"
            )
        if self.path_cache not in PATH_CACHE_KINDS:
            raise ValueError(
                f"path_cache must be one of {PATH_CACHE_KINDS}, got {self.path_cache!r}"
            )
        if self.qos not in SHARE_POLICIES:
            raise ValueError(
                f"unknown QoS share policy {self.qos!r}; "
                f"choose from {', '.join(SHARE_POLICIES)}"
            )
        if not self.oracle:
            if self.tlb_entries <= 0:
                raise ValueError("tlb_entries must be positive")
            if self.tlb_hit_latency < 0:
                raise ValueError("tlb_hit_latency cannot be negative")
            if self.l1_tlb_latency < 0:
                raise ValueError("l1_tlb_latency cannot be negative")
            if self.n_walkers <= 0:
                raise ValueError("n_walkers must be positive")
            if self.walk_latency_per_level <= 0:
                raise ValueError("walk_latency_per_level must be positive")
            if self.prmb_slots < 0:
                raise ValueError("prmb_slots cannot be negative")
            if self.l1_tlb_entries < 0 or self.prefetch_depth < 0:
                raise ValueError("l1_tlb_entries/prefetch_depth cannot be negative")

    def with_page_size(self, page_size: int) -> "MMUConfig":
        """Same design point at a different page size (Section VI-A)."""
        return replace(self, page_size=page_size)


def oracle_config(page_size: int = PAGE_SIZE_4K) -> MMUConfig:
    """An oracular MMU: all translations hit with no added latency."""
    return MMUConfig(name="oracle", oracle=True, page_size=page_size)


def baseline_iommu_config(
    tlb_entries: int = 2048,
    n_walkers: int = 8,
    page_size: int = PAGE_SIZE_4K,
) -> MMUConfig:
    """The GPU-centric strawman of Figure 8 (Table I parameters)."""
    return MMUConfig(
        name="iommu",
        tlb_entries=tlb_entries,
        n_walkers=n_walkers,
        prmb_slots=0,
        path_cache="none",
        page_size=page_size,
    )


def neummu_config(
    n_walkers: int = 128,
    prmb_slots: int = 32,
    tlb_entries: int = 2048,
    path_cache: str = "tpreg",
    page_size: int = PAGE_SIZE_4K,
) -> MMUConfig:
    """The proposed design: PRMB + many walkers + TPreg (Section IV-D)."""
    return MMUConfig(
        name="neummu",
        tlb_entries=tlb_entries,
        n_walkers=n_walkers,
        prmb_slots=prmb_slots,
        path_cache=path_cache,
        page_size=page_size,
    )


class TranslationFault(Exception):
    """A translation reached a non-present page and no fault handler ran."""

    def __init__(self, vpn: int) -> None:
        super().__init__(f"page fault translating VPN 0x{vpn:x}")
        self.vpn = vpn


class MMU:
    """The translation state machine for one NPU device.

    An MMU serves one or more address-space *contexts*, each identified by
    an ASID and owning its own page table (wrapped in a per-context
    :class:`~repro.core.walk_info.WalkResolver`).  The constructor's
    ``page_table`` becomes context 0 — the implicit single-tenant default;
    multi-tenant callers pass ``page_table=None`` and attach each tenant
    with :meth:`register_context`.  All translation state shared between
    contexts (TLB, PTS, TPreg/TPC/UPTC) is ASID-tagged, so contexts can
    never observe each other's translations; :meth:`shootdown` and
    :meth:`destroy_context` are the invalidation primitives page migration
    and context teardown use.
    """

    def __init__(
        self,
        config: MMUConfig,
        page_table: Optional[PageTable],
        share_policy: Optional[SharePolicy] = None,
    ) -> None:
        self.config = config
        #: The QoS layer's tenant share policy; every shared structure
        #: below consults it.  Defaults to the policy named by
        #: ``config.qos`` (``full_share`` unless overridden).
        self.share_policy = (
            share_policy if share_policy is not None else make_share_policy(config.qos)
        )
        self._resolvers: Dict[int, WalkResolver] = {}
        self.resolver: Optional[WalkResolver] = None
        if page_table is not None:
            self.register_context(0, page_table)
        #: Walkers whose in-flight walk was shot down: the walk still
        #: completes (freeing the walker) but must not fill the TLB with
        #: the stale PFN.  Keyed by walker id so a *fresh* post-shootdown
        #: walk for the same page fills normally.
        self._poisoned_walkers: Set[int] = set()
        #: Weak link to the demand-paged memory tier (see
        #: :attr:`paging_tier`).
        self._paging_tier: Optional[weakref.ReferenceType[LocalMemoryTier]] = None
        self.stats = TranslationStats()
        self._vpn_shift = page_offset_bits(config.page_size)
        self._tlb_latency = config.tlb_hit_latency
        self._prmb_slots = config.prmb_slots

        #: All four are None only in oracle mode (free translation); the
        #: non-oracle invariant — tlb/pts/pool present — is asserted by
        #: the hot paths that rely on it.
        self.tlb: Optional[Union[TLB, TwoLevelTLB]]
        self.pts: Optional[PendingTranslationScoreboard]
        self.pool: Optional[WalkerPool]
        self.prefetcher: Optional[NextPagePrefetcher]
        if config.oracle:
            self.tlb = None
            self.pts = None
            self.pool = None
            self.prefetcher = None
            self._two_level = False
            return

        self._two_level = config.l1_tlb_entries > 0
        if self._two_level:
            self.tlb = TwoLevelTLB(
                l1_entries=config.l1_tlb_entries,
                l2_entries=config.tlb_entries,
                l1_latency=config.l1_tlb_latency,
                l2_latency=config.tlb_hit_latency,
                policy=self.share_policy,
            )
        else:
            self.tlb = TLB(config.tlb_entries, policy=self.share_policy)
        self.prefetcher = (
            NextPagePrefetcher(config.prefetch_depth)
            if config.prefetch_depth > 0
            else None
        )
        shared_cache: Optional[PathCache] = None
        use_tpreg = False
        if config.path_cache == "tpreg":
            use_tpreg = True
        elif config.path_cache == "tpc":
            shared_cache = TranslationPathCache(config.path_cache_entries)
        elif config.path_cache == "uptc":
            shared_cache = UnifiedPageTableCache(config.path_cache_entries)
        self.pool = WalkerPool(
            n_walkers=config.n_walkers,
            walk_latency_per_level=config.walk_latency_per_level,
            prmb_slots=config.prmb_slots,
            use_tpreg=use_tpreg,
            shared_path_cache=shared_cache,
            policy=self.share_policy,
        )
        self.pts = PendingTranslationScoreboard(config.n_walkers)

    @property
    def paging_tier(self) -> Optional[LocalMemoryTier]:
        """Optional demand-paged memory tier
        (:class:`~repro.memory.tiering.LocalMemoryTier`) whose fault
        handler drives page migration through this MMU's shootdown path.
        Set by :meth:`LocalMemoryTier.bind`.

        Held weakly: the tier holds this MMU (its shootdown target) and
        the engine holds the tier through its fault handler, so a strong
        link back would make every paged simulation a reference cycle
        that only the cyclic garbage collector frees.  None once the
        tier itself is gone.
        """
        ref = self._paging_tier
        return None if ref is None else ref()

    @paging_tier.setter
    def paging_tier(self, tier: Optional[LocalMemoryTier]) -> None:
        self._paging_tier = None if tier is None else weakref.ref(tier)

    # ------------------------------------------------------------------ #
    # address-space contexts                                             #
    # ------------------------------------------------------------------ #

    def register_context(
        self,
        asid: int,
        page_table: PageTable,
        page_size: Optional[int] = None,
        weight: float = 1.0,
    ) -> WalkResolver:
        """Attach an address space: ``asid`` translates via ``page_table``.

        Returns the context's resolver.  ASID 0 is the single-tenant
        default the constructor registers automatically (when given a page
        table) and is also exposed as :attr:`resolver`.  ``weight`` is the
        context's share weight under the MMU's QoS policy (ignored by
        ``full_share``).
        """
        if not 0 <= asid <= MAX_ASID:
            raise ValueError(f"ASID {asid} outside [0, {MAX_ASID}]")
        if asid in self._resolvers:
            raise ValueError(f"ASID {asid} already has a registered context")
        resolver = WalkResolver(
            page_table, page_size or self.config.page_size, asid=asid
        )
        self._resolvers[asid] = resolver
        self.share_policy.register(asid, weight)
        if asid == 0:
            self.resolver = resolver
        return resolver

    def replace_resolver(self, resolver: WalkResolver, asid: int = 0) -> None:
        """Swap a registered context's resolver (e.g. for a pre-warmed
        memoization cache) — the one supported way to write
        :attr:`resolver`, keeping it in sync with the context table."""
        if asid not in self._resolvers:
            raise KeyError(f"no context registered for ASID {asid}")
        self._resolvers[asid] = resolver
        if asid == 0:
            self.resolver = resolver

    def resolver_for(self, asid: int = 0) -> WalkResolver:
        """The registered context's walk resolver (KeyError when absent)."""
        try:
            return self._resolvers[asid]
        except KeyError:
            raise KeyError(
                f"no context registered for ASID {asid}; call register_context"
            ) from None

    @property
    def contexts(self) -> List[int]:
        """ASIDs with a registered context, in registration order."""
        return list(self._resolvers)

    def shootdown(self, vpn: int, asid: int = 0) -> None:
        """Invalidate one page's translation everywhere it can be cached.

        The TLB-shootdown primitive of page migration and unmapping: drops
        the (ASID, VPN) from the TLB hierarchy and the context's memoized
        walk, so the next access re-walks the (re)mapped page table.  A
        walk already in flight for the page is *poisoned*: it is removed
        from the scoreboard immediately (no later request can merge into
        it) and its eventual completion frees the walker without filling
        the TLB — while a fresh post-shootdown walk for the same page
        proceeds normally.  Safe to call for pages that were never cached.
        """
        resolver = self._resolvers.get(asid)
        if resolver is not None:
            resolver.invalidate(vpn)
        if self.tlb is not None:
            self.tlb.invalidate(vpn, asid)
        if self.pts is not None:
            walkers = self.pts.peek(vpn, asid)
            if walkers:
                for walker in list(walkers):
                    self.pts.release(vpn, walker, asid)
                    self._poisoned_walkers.add(walker)

    def destroy_context(self, asid: int) -> None:
        """Tear down a context: shoot down all its cached translation state.

        In-flight walks are poisoned page by page (scoreboard entries
        removed, TLB fills suppressed), so teardown is safe at any time —
        completing a walk for a dead address space can never resurrect its
        translations, and other contexts' walks are untouched.
        """
        if asid not in self._resolvers:
            raise KeyError(f"no context registered for ASID {asid}")
        if self.pts is not None:
            for vpn in self.pts.vpns_for(asid):
                self.shootdown(vpn, asid)
        if self.tlb is not None:
            self.tlb.invalidate_asid(asid)
        if self.pool is not None:
            self.pool.shootdown_asid(asid)
        if self.prefetcher is not None:
            self.prefetcher.drop_asid(asid)
        del self._resolvers[asid]
        self.share_policy.unregister(asid)
        if asid == 0:
            self.resolver = None

    # ------------------------------------------------------------------ #
    # hot path                                                           #
    # ------------------------------------------------------------------ #

    def vpn_of(self, va: int) -> int:
        """Virtual page number of ``va`` at this MMU's page size."""
        return va >> self._vpn_shift

    def tlb_contains(self, vpn: int, asid: int = 0) -> bool:
        """Non-destructive TLB probe (used by the prefetcher)."""
        if self.tlb is None:
            return True
        return self.tlb.contains(vpn, asid)

    def translate(
        self, vpn: int, cycle: float, asid: int = 0
    ) -> Tuple[Optional[float], float]:
        """Attempt one translation for context ``asid`` at ``cycle``.

        Returns ``(ready_cycle, 0.0)`` on success — the cycle the translated
        request is released toward memory — or ``(None, retry_cycle)`` when
        the request blocks and must be retried at ``retry_cycle`` (after
        calling :meth:`process_completions`).

        Raises :class:`TranslationFault` when the page is unmapped; demand
        paging callers catch this and invoke their fault path.
        """
        stats = self.stats
        stats.requests += 1
        if asid:
            resolver = self.resolver_for(asid)
        else:
            resolver = self.resolver
            if resolver is None:
                resolver = self.resolver_for(0)  # the documented KeyError
        if self.config.oracle:
            # Translation is free, but a non-present page still faults —
            # the oracle of the demand-paging study (Fig. 16) pays the same
            # migrations, just zero translation latency.
            if resolver.resolve_vpn(vpn) is None:
                stats.requests -= 1
                stats.faults += 1
                raise TranslationFault(vpn)
            return (cycle, 0.0)

        tlb, pts, pool = self.tlb, self.pts, self.pool
        assert tlb is not None and pts is not None and pool is not None
        pfn: Optional[int]
        if self._two_level:
            assert isinstance(tlb, TwoLevelTLB)
            pfn, hit_latency = tlb.lookup(vpn, asid)
        else:
            assert not isinstance(tlb, TwoLevelTLB)
            pfn = tlb.lookup(vpn, asid)
            hit_latency = self._tlb_latency
        if pfn is not None:
            stats.tlb_hits += 1
            if self.prefetcher is not None:
                self.prefetcher.on_demand_hit(vpn, asid)
            return (cycle + hit_latency, 0.0)

        walkers = pts.lookup(vpn, asid)
        redundant = walkers is not None
        if redundant and self.prefetcher is not None:
            # The page's walk is already in flight — possibly ours.
            self.prefetcher.on_demand_hit(vpn, asid)
        if walkers is not None and self._prmb_slots and pool.can_merge(asid):
            for walker in walkers:
                ready = pool.merge_into(walker)
                if ready >= 0:
                    stats.merges += 1
                    return (ready, 0.0)

        if pool.can_start(asid):
            walk = resolver.resolve_vpn(vpn)
            if walk is None:
                stats.requests -= 1  # the retried request will recount
                stats.faults += 1
                raise TranslationFault(vpn)
            if redundant:
                stats.redundant_walk_requests += 1
            walker, completion = self.start_walk(walk, cycle, redundant)
            if self.prefetcher is not None and not redundant:
                self.prefetcher.on_demand_walk(self, vpn, cycle, asid)
            return (completion, 0.0)

        # Fully blocked: no merge capacity and no walker (or the context's
        # QoS quotas are exhausted).  Retry when the earliest walk that can
        # unblock *this* context completes.  The retried request will be
        # recounted, so back out this attempt from the request tally.
        stats.requests -= 1
        retry = pool.earliest_retry_for(asid)
        stats.stall_events += 1
        stats.stall_cycles += max(0.0, retry - cycle)
        return (None, retry)

    def start_walk(
        self, walk: WalkInfo, cycle: float, redundant: bool = False
    ) -> Tuple[int, float]:
        """Dispatch a walk and register it with the scoreboard."""
        pool, pts = self.pool, self.pts
        assert pool is not None and pts is not None  # walks never start in oracle mode
        walker, completion = pool.start_walk(walk, cycle, redundant)
        pts.register(walk.vpn, walker, walk.asid)
        return walker, completion

    def process_completions(self, cycle: float) -> None:
        """Retire every walk completing at or before ``cycle``.

        This is the walk-retirement hot loop (one iteration per finished
        walk, millions per run), so the walker-pool bookkeeping of
        :meth:`WalkerPool.complete_until` is fused inline rather than
        consumed through the generator — same operations in the same
        order, without the per-completion suspend/resume and record
        allocation (``tests/test_pts_prmb_ptw.py`` pins the two paths to
        each other).
        """
        if self.config.oracle:
            return
        pool, pts, tlb = self.pool, self.pts, self.tlb
        assert pool is not None and pts is not None and tlb is not None
        heap = pool.heap
        if not heap or heap[0][0] > cycle:
            return
        poisoned = self._poisoned_walkers
        pts_by_vpn = pts._by_vpn
        heappop = heapq.heappop
        walk_of = pool._walk_of
        vpn_of = pool._vpn
        buffers = pool._buffers
        free = pool._free
        tpregs = pool._tpregs
        shared_cache = None if pool._no_path_cache else pool._shared_cache
        policied = pool._policy is not None
        while heap and heap[0][0] <= cycle:
            _, _, walker = heappop(heap)
            walk = walk_of[walker]
            if tpregs is not None:
                tpregs[walker].fill(walk)
            elif shared_cache is not None:
                shared_cache.fill(walk)
            buf = buffers[walker]
            merged = buf._occupied
            buf._occupied = 0
            vpn_of[walker] = None
            walk_of[walker] = None
            if policied:
                busy = pool._busy_by_asid.get(walk.asid)
                if busy is not None:
                    busy.discard(walker)
                if merged:
                    pool._prmb_occ[walk.asid] -= merged
            free.append(walker)
            if poisoned and walker in poisoned:
                # Shot down mid-walk: the scoreboard entry was already
                # released; free the walker without filling the TLB.
                poisoned.discard(walker)
                continue
            # Inlined PTS.release (the walker is always registered here).
            key = walk.vpn | (walk.asid << ASID_SHIFT)
            walkers = pts_by_vpn[key]
            walkers.remove(walker)
            if not walkers:
                del pts_by_vpn[key]
            pts._count -= 1
            tlb.insert(walk.vpn, walk.pfn, walk.asid)

    def earliest_event(self) -> float:
        """Next cycle at which MMU state changes (``inf`` when idle)."""
        if self.config.oracle:
            return float("inf")
        assert self.pool is not None
        return self.pool.earliest_completion()

    def drain(self) -> None:
        """Retire all in-flight walks (end of run)."""
        self.process_completions(float("inf"))

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #

    def summary(self) -> RunSummary:
        """Flattened counter view across all components."""
        stats = self.stats
        if self.config.oracle:
            return RunSummary(
                requests=stats.requests,
                tlb_hits=stats.requests,
                tlb_hit_rate=1.0,
                merges=0,
                walks=0,
                redundant_walks=0,
                walk_level_accesses=0,
                walk_levels_skipped=0,
                stall_events=0,
                stall_cycles=0.0,
                faults=stats.faults,
                tpreg_l4_rate=0.0,
                tpreg_l3_rate=0.0,
                tpreg_l2_rate=0.0,
            )
        assert self.pool is not None and self.tlb is not None
        tpreg = self.pool.collect_tpreg_stats()
        l4, l3, l2 = tpreg.hit_rates()
        return RunSummary(
            requests=stats.requests,
            tlb_hits=stats.tlb_hits,
            tlb_hit_rate=self.tlb.hit_rate,
            merges=stats.merges,
            walks=self.pool.stats.walks,
            redundant_walks=self.pool.stats.redundant_walks,
            walk_level_accesses=self.pool.stats.level_accesses,
            walk_levels_skipped=self.pool.stats.levels_skipped,
            stall_events=stats.stall_events,
            stall_cycles=stats.stall_cycles,
            faults=stats.faults,
            tpreg_l4_rate=l4,
            tpreg_l3_rate=l3,
            tpreg_l2_rate=l2,
            prefetches=self.prefetcher.stats.issued if self.prefetcher else 0,
            prefetch_accuracy=(
                self.prefetcher.stats.accuracy if self.prefetcher else 0.0
            ),
        )


# --------------------------------------------------------------------- #
# multi-tenant sharing                                                  #
# --------------------------------------------------------------------- #


@dataclass
class TenantUsage:
    """Per-tenant share of a :class:`SharedMMU`'s translation activity.

    Counters are exact per-tenant attributions: bursts run to completion,
    so diffing the global counters around each tenant burst assigns every
    request/merge/walk/stall to the context that issued it.
    """

    asid: int
    bursts: int = 0
    transactions: int = 0
    bytes_moved: int = 0
    #: Sum of this tenant's burst memory-phase durations (overlapping
    #: tenants can sum past wall-clock — that is the contention signal).
    busy_cycles: float = 0.0
    requests: int = 0
    tlb_hits: int = 0
    merges: int = 0
    walks: int = 0
    redundant_walks: int = 0
    walk_level_accesses: int = 0
    stall_events: int = 0
    stall_cycles: float = 0.0
    faults: int = 0

    @property
    def tlb_hit_rate(self) -> float:
        """Fraction of this tenant's requests served by the shared TLB."""
        return self.tlb_hits / self.requests if self.requests else 0.0


class SharedMMU:
    """One MMU, walker pool and memory system serving several tenants.

    The multi-tenant regime of the ROADMAP's scale-out serving scenario:
    each tenant model owns a private address space (its own page table,
    registered under its ASID) but *contends* with every other tenant for
    the shared TLB capacity, PTS/walker pool, PRMB slots and memory
    bandwidth.  :meth:`run_bursts` routes one tenant's DMA bursts through
    the shared engine and attributes the translation activity to that
    tenant, giving the per-tenant contention statistics the isolated
    single-tenant runs can then be compared against.
    """

    def __init__(
        self,
        config: MMUConfig,
        memory: Optional[MainMemory] = None,
        issue_interval: float = 1.0,
        share_policy: Optional[SharePolicy] = None,
    ) -> None:
        from ..memory.dram import MainMemory, MemoryConfig
        from .engine import TranslationEngine  # deferred: engine imports mmu

        self.config = config
        self.mmu = MMU(config, page_table=None, share_policy=share_policy)
        self.memory = memory if memory is not None else MainMemory(MemoryConfig())
        self.engine = TranslationEngine(
            self.mmu, self.memory, issue_interval=issue_interval
        )
        self.usage: Dict[int, TenantUsage] = {}
        self._contention_epoch = 0

    @property
    def share_policy(self) -> SharePolicy:
        """The QoS share policy every shared structure consults."""
        return self.mmu.share_policy

    @property
    def paging_tier(self) -> Optional[LocalMemoryTier]:
        """The attached demand-paged memory tier (None without paging)."""
        return self.mmu.paging_tier

    def attach_paging(self, tier: LocalMemoryTier) -> None:
        """Wire a :class:`~repro.memory.tiering.LocalMemoryTier` in.

        Binds the tier to this MMU (evictions route through the
        ASID-tagged shootdown path) and installs its fault handler on
        the shared engine, so every tenant's page faults migrate through
        the one shared fabric.  Idempotent for the same tier.
        """
        tier.bind(self.mmu)
        self.engine.fault_handler = tier.handle_fault

    @property
    def contention_epoch(self) -> int:
        """Monotone fingerprint of the contention regime.

        Bumped whenever the set of active tenants, a tenant's weight, or
        the share-policy state changes (:meth:`add_tenant`,
        :meth:`remove_tenant`, :meth:`set_tenant_weight`,
        :meth:`bump_contention_epoch`).  FAST-fidelity tile timings
        converge *within* one epoch: tenant runs key their converged
        timing caches on it and drop them when it moves, since a timing
        measured against yesterday's tenant mix says nothing about
        today's (``tests/test_multi_tenant_fidelity.py``).
        """
        return self._contention_epoch

    def bump_contention_epoch(self) -> None:
        """Invalidate tenants' converged FAST timings (regime change).

        Called automatically by the tenant-registry mutators; call it
        directly after mutating share-policy state through other means.
        """
        self._contention_epoch += 1

    def add_tenant(
        self, asid: int, page_table: PageTable, weight: float = 1.0
    ) -> TenantUsage:
        """Register a tenant context; returns its usage accumulator.

        ``weight`` is the tenant's share weight under the MMU's QoS policy
        (ignored by ``full_share``).
        """
        self.mmu.register_context(asid, page_table, weight=weight)
        self.usage[asid] = TenantUsage(asid=asid)
        self.bump_contention_epoch()
        return self.usage[asid]

    def set_tenant_weight(self, asid: int, weight: float) -> None:
        """Re-weight a registered tenant's QoS share."""
        if asid not in self.mmu._resolvers:
            raise KeyError(f"no tenant registered for ASID {asid}")
        self.mmu.share_policy.set_weight(asid, weight)
        self.bump_contention_epoch()

    def remove_tenant(self, asid: int) -> TenantUsage:
        """Tear down one tenant's context without disturbing the others.

        The departing tenant's in-flight walks are poisoned in place (see
        :meth:`MMU.destroy_context`) rather than drained, so the remaining
        tenants' walk timing and contention are unaffected.  The tenant's
        usage record is returned (and kept readable) so its statistics
        survive teardown.
        """
        self.mmu.destroy_context(asid)
        self.bump_contention_epoch()
        return self.usage[asid]

    @property
    def tenants(self) -> List[int]:
        """*Currently registered* tenant ASIDs, in registration order.

        Removed tenants drop out of this list (their usage records remain
        readable in :attr:`usage`).
        """
        return [asid for asid in self.usage if asid in self.mmu._resolvers]

    def run_bursts(
        self,
        asid: int,
        bursts: Sequence[Sequence[Transaction]],
        start_cycle: float,
    ) -> Tuple[List[BurstResult], float]:
        """Run one tenant's back-to-back bursts through the shared engine.

        Returns ``(burst_results, data_end_cycle)`` exactly like
        :meth:`~repro.core.engine.TranslationEngine.run_bursts`, while
        accumulating the translation-counter deltas into the tenant's
        :class:`TenantUsage`.
        """
        usage = self.usage[asid]
        stats = self.mmu.stats
        pool_stats = self.mmu.pool.stats if self.mmu.pool is not None else None
        before = (
            stats.requests,
            stats.tlb_hits,
            stats.merges,
            stats.stall_events,
            stats.stall_cycles,
            stats.faults,
        )
        walks_before = (
            (pool_stats.walks, pool_stats.redundant_walks, pool_stats.level_accesses)
            if pool_stats is not None
            else (0, 0, 0)
        )
        results, data_end = self.engine.run_bursts(bursts, start_cycle, asid=asid)
        requests_delta = stats.requests - before[0]
        usage.requests += requests_delta
        if self.config.oracle:
            # RunSummary's oracle convention: every request is a free hit.
            usage.tlb_hits += requests_delta
        else:
            usage.tlb_hits += stats.tlb_hits - before[1]
        usage.merges += stats.merges - before[2]
        usage.stall_events += stats.stall_events - before[3]
        usage.stall_cycles += stats.stall_cycles - before[4]
        usage.faults += stats.faults - before[5]
        if pool_stats is not None:
            usage.walks += pool_stats.walks - walks_before[0]
            usage.redundant_walks += pool_stats.redundant_walks - walks_before[1]
            usage.walk_level_accesses += pool_stats.level_accesses - walks_before[2]
        for result in results:
            usage.bursts += 1
            usage.transactions += result.transactions
            usage.bytes_moved += result.bytes_moved
            usage.busy_cycles += result.duration
        return results, data_end
