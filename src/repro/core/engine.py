"""Cycle-resolved translation/memory-phase engine.

This engine replays one DMA *burst* (all linearized transactions of one
tile fetch, Section III-C) against an MMU model and the shared memory
system:

* the DMA issues one translation request per cycle ("The DMA unit sends a
  single translation each cycle", Figure 7);
* a request either hits the TLB (5 cycles), merges into an in-flight walk's
  PRMB, starts a (possibly redundant) walk, or blocks the issue port until
  translation bandwidth frees up;
* once translated, the transaction's data read is queued on the
  bandwidth-limited memory system;
* the burst's *memory phase* ends when the last data beat returns — the
  implicit barrier before the tile's compute phase (Figure 3).

An oracular MMU makes every translation free, so the same engine computes
the paper's normalization baseline.

Two execution paths
-------------------
``run_burst`` retires transactions either through the *reference* path —
one fully general Python iteration per transaction, routed through
:meth:`MMU.translate` — or through the *batched* fast path (the default),
which exploits the streaming structure of dense tile fetches: a 4 KB page
sees a run of ~16 back-to-back same-page transactions (Section III-C), and
within such a run every transaction resolves the same way (all TLB hits,
or all PRMB merges into the same walker).  The fast path retires those
runs with bulk counter updates — one TLB touch per run, one PRMB occupancy
update per walker — and a tight arithmetic loop over the memory channels.

For fully contiguous uniform 256 B runs (the DMA's streaming output, as
certified by :class:`~repro.npu.dma.TransactionStream` run metadata) a
further *closed form* applies: when no channel queueing can occur, only
the last ``n_channels`` transactions' finish times are observable, so the
bulk of the run reduces to an exact issue-cycle spin.

The two paths are kept *bit-identical*: the batched path performs exactly
the floating-point operation sequence of the reference path for every
observable timing quantity, and interleaves walk retirements with TLB
fills, PRMB drains and LRU updates in reference order (retirements that
provably commute with a run's bulk — other pages' completions during a
merge run — may be deferred to the run boundary).
``tests/test_fastpath_parity.py`` enforces the equivalence.
"""

from __future__ import annotations

import bisect
import heapq
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..memory.address import ASID_SHIFT
from ..memory.dram import MainMemory
from .calendar import CompletionCalendar
from .mmu import MMU, TranslationFault
from .tlb import TLB

#: A DMA transaction: (virtual address, size in bytes).
Transaction = Tuple[int, int]

#: Demand-paging hook: ``(vpn, fault_cycle, asid) -> resolved_cycle``.  The
#: hook must install the mapping (and shoot down the stale translation, e.g.
#: via :meth:`MMU.shootdown`) before returning; the engine retries the
#: translation at ``resolved_cycle``.  The first-class implementation is
#: :meth:`repro.memory.tiering.LocalMemoryTier.handle_fault`, which routes
#: the page move through the shared migration fabric and the ASID-tagged
#: shootdown path.
FaultHandler = Callable[[int, float, int], float]

#: The fused FIFO no-PRMB segment runner built per ASID by
#: :meth:`TranslationEngine._no_prmb_fifo_runner`.  Returns the updated
#: ``(i, cycle, data_end, total_bytes, stall, faulted, rc, run_vpn,
#: run_end, run_streamable)`` segment state.
NoPrmbRunner = Callable[
    ...,
    Tuple[int, float, float, int, float, bool, int, int, int, bool],
]


def _run_bounds(
    va_list: Sequence[int],
    size_list: Sequence[int],
    i: int,
    n: int,
    vpn: int,
    vpn_shift: int,
    meta: Optional[Sequence[Tuple[int, bool]]],
    rc: int,
) -> Tuple[int, bool, int]:
    """Bounds of the same-page run starting at index ``i``.

    Returns ``(j, streamable, rc)``: the run's end index, whether it is
    a contiguous uniform 256 B stream (the closed-form precondition),
    and the advanced cursor into the DMA-provided ``meta`` run list
    (``None`` meta falls back to scanning the column lists).  One
    derivation shared by every batched/contended segment — the copies
    *must* stay operation-identical for the parity contract, so there
    is exactly one.  Callers memoize the result per run
    (``run_vpn``/``run_end``), so this runs once per same-page run, not
    per transaction.
    """
    if meta is not None:
        while meta[rc][0] <= i:
            rc += 1
        j, streamable = meta[rc]
        return j, streamable, rc
    j = i + 1
    while j < n and va_list[j] >> vpn_shift == vpn:
        j += 1
    va0 = va_list[i]
    streamable = (
        j - i >= 2
        and size_list[i] == 256
        and va_list[j - 1] - va0 == (j - 1 - i) * 256
        and all(s == 256 for s in size_list[i:j])
    )
    return j, streamable, rc


def _fault_in_place(
    mmu: MMU,
    fault_handler: FaultHandler,
    vpn: int,
    cycle: float,
    asid: int,
    walkers_registered: bool,
) -> float:
    """:meth:`MMU.translate`'s fault branch for the fused PRMB-less loops.

    Counts the faulting attempt exactly as ``translate`` does — a TLB
    miss, a PTS probe (a hit when walks for the page are registered), a
    fault, and a request that nets to zero — then runs the demand-paging
    handler and returns its retry cycle.  Shared by both loops so their
    fault accounting stays operation-identical.
    """
    tlb = mmu.tlb
    pts = mmu.pts
    assert isinstance(tlb, TLB) and pts is not None
    tlb.misses += 1
    pts.lookups += 1
    if walkers_registered:
        pts.hits += 1
    mmu.stats.faults += 1
    return fault_handler(vpn, cycle, asid)


@dataclass
class BurstResult:
    """Timing of one tile-fetch burst."""

    start_cycle: float
    issue_end_cycle: float
    data_end_cycle: float
    transactions: int
    bytes_moved: int
    stall_cycles: float

    @property
    def duration(self) -> float:
        """Full memory-phase duration of this burst."""
        return self.data_end_cycle - self.start_cycle


class TranslationEngine:
    """Drives an MMU + memory system with DMA transaction streams."""

    def __init__(
        self,
        mmu: MMU,
        memory: MainMemory,
        issue_interval: float = 1.0,
        timeline_window: int = 0,
        fault_handler: Optional[FaultHandler] = None,
        batched: bool = True,
    ) -> None:
        if issue_interval <= 0:
            raise ValueError("issue interval must be positive")
        self.mmu = mmu
        self.memory = memory
        self.issue_interval = issue_interval
        self.timeline_window = timeline_window
        self.fault_handler = fault_handler
        #: Enable the batched same-page fast path (set False to force the
        #: per-transaction golden-reference path).  ``engine_mode=
        #: "reference"`` pins the engine to the per-object golden path
        #: regardless — that mode *is* the reference the columnar
        #: representation is golden-diffed against.
        self.batched = batched and mmu.config.engine_mode != "reference"
        #: window index -> number of translation requests issued in it
        #: (Figure 7's burst histogram).  Populated when timeline_window > 0.
        #: A defaultdict so the per-transaction histogram update is one
        #: indexed increment instead of a get-plus-store.
        self.timeline: Dict[int, int] = defaultdict(int)
        #: asid -> fused FIFO no-PRMB segment runner (closure over the
        #: MMU's stable structures; see :meth:`_no_prmb_fifo_runner`).
        self._np_runners: Dict[int, NoPrmbRunner] = {}

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #

    def _batchable(self) -> bool:
        """Whether a fast path covers this engine's configuration.

        Timeline capture needs a per-transaction histogram update, the
        prefetcher hooks fire per TLB hit, and the two-level TLB's hit
        latency depends on which level hits — all three fall back to the
        reference path, as does an oracular MMU with a demand-paging
        handler (whose faults route through :meth:`MMU.translate`).  A
        non-trivial QoS share policy no longer forces the reference path:
        it selects the *contended* batched path, which enforces every
        quota at segment granularity (see :meth:`_run_burst_contended`).
        """
        if self.timeline_window:
            return False
        mmu = self.mmu
        if mmu.config.oracle:
            return self.fault_handler is None
        return mmu.prefetcher is None and not mmu._two_level

    def run_burst(
        self, transactions: Sequence[Transaction], start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Replay one burst for context ``asid``; returns its timing.

        ``transactions`` are issued in order at one per ``issue_interval``
        cycles, subject to translation-bandwidth blocking.  ``asid`` selects
        the address-space context the burst translates under (0 = the
        single-tenant default); shared-MMU tenants each pass their own.
        """
        if self.batched and self._batchable():
            if self.mmu.config.oracle:
                return self._run_burst_oracle(transactions, start_cycle, asid)
            if self.mmu.share_policy.trivial:
                return self._run_burst_batched(transactions, start_cycle, asid)
            return self._run_burst_contended(transactions, start_cycle, asid)
        return self._run_burst_reference(transactions, start_cycle, asid)

    # ------------------------------------------------------------------ #
    # reference path (golden semantics, one iteration per transaction)   #
    # ------------------------------------------------------------------ #

    def _run_burst_reference(
        self, transactions: Sequence[Transaction], start_cycle: float, asid: int = 0
    ) -> BurstResult:
        mmu = self.mmu
        memory = self.memory
        vpn_shift = mmu._vpn_shift
        window = self.timeline_window
        timeline = self.timeline
        interval = self.issue_interval
        fault_handler = self.fault_handler
        translate = mmu.translate
        process = mmu.process_completions
        heap = None if mmu.pool is None else mmu.pool.heap

        # Memory-channel state is inlined here — this loop runs millions of
        # times per workload and the channel update is pure arithmetic
        # (kept operation-for-operation identical to MainMemory.access).
        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0

        for va, size in transactions:
            if heap is not None and heap and heap[0][0] <= cycle:
                process(cycle)
            vpn = va >> vpn_shift
            while True:
                try:
                    ready, retry = translate(vpn, cycle, asid)
                except TranslationFault:
                    if fault_handler is None:
                        raise
                    resolved = fault_handler(vpn, cycle, asid)
                    stall += resolved - cycle
                    cycle = resolved
                    process(cycle)
                    continue
                if ready is None:
                    stall += retry - cycle
                    cycle = retry
                    process(cycle)
                    continue
                break
            if window:
                timeline[int(cycle // window)] += 1
            # Inlined MainMemory.access (same arithmetic/policy).
            channel = (va >> 8) % n_channels
            free_at = channel_free[channel]
            start = ready if ready > free_at else free_at
            finish = start + size / ch_bw
            channel_free[channel] = finish
            done = finish + mem_latency
            if done > data_end:
                data_end = done
            total_bytes += size
            cycle += interval

        memory.total_bytes += total_bytes
        memory.total_accesses += len(transactions)
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=len(transactions),
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # oracle fast path                                                   #
    # ------------------------------------------------------------------ #

    def _run_burst_oracle(
        self, transactions: Sequence[Transaction], start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Oracle burst: translation is free but non-present pages fault.

        The resolver is probed once per same-page run (its answer cannot
        change mid-burst without a fault handler, and there is none on this
        path), matching :meth:`MMU.translate`'s per-request semantics: an
        unmapped page raises :class:`TranslationFault` and is counted in
        ``stats.faults`` without being counted as a completed request.
        """
        mmu = self.mmu
        memory = self.memory
        stats = mmu.stats
        resolve = mmu.resolver_for(asid).resolve_vpn
        vpn_shift = mmu._vpn_shift
        interval = self.issue_interval

        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles

        # Precomputed service time of the DMA's default 256 B transaction;
        # bit-identical to the reference's per-transaction ``size / ch_bw``
        # because float division is deterministic.
        s_cycles = 256 / ch_bw
        stream_ok = n_channels * interval >= s_cycles

        cycle = start_cycle
        data_end = start_cycle
        total_bytes = 0
        last_vpn = -1
        counted = 0
        n = len(transactions)

        # Column projections (see _run_burst_batched).
        va_list = getattr(transactions, "va_list", None)
        if va_list is not None:
            size_list = transactions.size_list
        else:
            va_list = [t[0] for t in transactions]
            size_list = [t[1] for t in transactions]

        # DMA-provided run metadata (see _run_burst_batched).
        meta = getattr(transactions, "runs", None)
        if meta is not None and (
            not meta
            or getattr(transactions, "page_size", 0) != 1 << vpn_shift
        ):
            meta = None
        rc = 0

        try:
            i = 0
            while i < n:
                va = va_list[i]
                size = size_list[i]
                vpn = va >> vpn_shift
                if vpn != last_vpn:
                    if resolve(vpn) is None:
                        stats.faults += 1
                        raise TranslationFault(vpn)
                    last_vpn = vpn
                channel = (va >> 8) % n_channels
                free_at = channel_free[channel]
                start = cycle if cycle > free_at else free_at
                finish = start + size / ch_bw
                channel_free[channel] = finish
                done = finish + mem_latency
                if done > data_end:
                    data_end = done
                total_bytes += size
                cycle += interval
                counted += 1
                i += 1
                # Same-page continuation (translation already proven
                # present for this page; only the memory arithmetic runs).
                if i >= n or va_list[i] >> vpn_shift != vpn:
                    continue
                if meta is not None:
                    while meta[rc][0] <= i:
                        rc += 1
                    j, streamable = meta[rc]
                else:
                    j = i + 1
                    while j < n and va_list[j] >> vpn_shift == vpn:
                        j += 1
                    va0 = va_list[i]
                    streamable = (
                        j - i >= 2
                        and size_list[i] == 256
                        and va_list[j - 1] - va0 == (j - 1 - i) * 256
                        and all(s == 256 for s in size_list[i:j])
                    )
                span = j - i
                va0 = va_list[i]
                if (
                    span >= 8
                    and streamable
                    and (span <= n_channels or stream_ok)
                ):
                    # Streaming closed form: a contiguous uniform run walks
                    # the channels round-robin, so when every channel is
                    # free by its first arrival (probed below) only the
                    # last ``n_channels`` transactions' finish times are
                    # observable; the rest reduce to the exact cycle spin.
                    base_ch = va0 >> 8
                    lim = span if span < n_channels else n_channels
                    # Cheap dominating probe first: if every channel is
                    # free by the first arrival, no per-channel check is
                    # needed (later arrivals are only later).
                    ok = max(channel_free) <= cycle
                    if not ok:
                        probe = cycle
                        ok = True
                        for k in range(lim):
                            if channel_free[(base_ch + k) % n_channels] > probe:
                                ok = False
                                break
                            probe += interval
                    if ok:
                        for _ in range(span - lim):
                            cycle += interval
                        for k in range(span - lim, span):
                            finish = cycle + s_cycles
                            channel_free[(base_ch + k) % n_channels] = finish
                            cycle += interval
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += span * 256
                        counted += span
                        i = j
                        continue
                for va, size in zip(va_list[i:j], size_list[i:j]):
                    channel = (va >> 8) % n_channels
                    free_at = channel_free[channel]
                    start = cycle if cycle > free_at else free_at
                    finish = start + size / ch_bw
                    channel_free[channel] = finish
                    done = finish + mem_latency
                    if done > data_end:
                        data_end = done
                    total_bytes += size
                    cycle += interval
                counted += span
                i = j
        finally:
            # Successful transactions count even when a later one faults,
            # matching the per-request accounting of MMU.translate.
            stats.requests += counted

        memory.total_bytes += total_bytes
        memory.total_accesses += counted
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=len(transactions),
            bytes_moved=total_bytes,
            stall_cycles=0.0,
        )

    # ------------------------------------------------------------------ #
    # batched fast path                                                  #
    # ------------------------------------------------------------------ #

    def _run_burst_batched(
        self, transactions: Sequence[Transaction], start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Same-page run batching for translated (non-oracle) MMUs.

        Each transaction is first retired exactly as the reference path
        would; if the following transactions stay on the same virtual page,
        the run is consumed in bulk.  A run segment never crosses a
        walker-completion event (``heap[0][0]``), so TLB fills and PRMB
        drains interleave with lookups in reference order, and it ends the
        moment its uniform resolution (TLB hit / PRMB merge) stops holding.

        Shared structures are probed with the ASID-tagged key
        ``vpn | (asid << ASID_SHIFT)``; the tag bits sit above the TLB's
        set mask, so for ASID 0 every probe is bit-identical to the
        untagged engine.
        """
        mmu = self.mmu
        memory = self.memory
        vpn_shift = mmu._vpn_shift
        interval = self.issue_interval
        fault_handler = self.fault_handler
        translate = mmu.translate
        process = mmu.process_completions
        stats = mmu.stats
        tlb = mmu.tlb
        tlb_latency = mmu._tlb_latency
        pool = mmu.pool
        pts = mmu.pts
        # Batched paths only run on translated (non-oracle) single-level
        # TLB configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        heap = pool.heap
        pts_by_vpn = pts._by_vpn
        buffers = pool._buffers
        completion_of = pool._completion_of
        prmb_capacity = mmu._prmb_slots
        prmb_stats = pool.prmb_stats
        inf = float("inf")

        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        # Service time of the DMA's default 256 B transaction, bit-identical
        # to the reference's per-transaction ``size / ch_bw`` (float division
        # is deterministic).  ``stream_ok`` states that the per-channel
        # arrival spacing of a round-robin issue stream covers the service
        # time, so no intra-run queueing can occur.
        s_cycles = 256 / ch_bw
        stream_ok = n_channels * interval >= s_cycles
        merge_stream_ok = n_channels >= s_cycles
        asid_bits = asid << ASID_SHIFT

        # Inlined TLB membership probe: ``key in tlb_sets[key & set_mask]``
        # covers both the fully-associative default (mask 0, one set) and
        # set-associative mode without a method call per transaction.
        tlb_sets = tlb._sets
        tlb_set_mask = tlb._set_mask
        # Whole-run hit batching defers completion retirement past the
        # run's hits, which preserves eviction victims only while the hit
        # page cannot itself be a set's LRU entry — i.e. at >= 2 ways.
        hit_runs_batchable = tlb._ways >= 2

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0
        n = len(transactions)

        # Column projections: a columnar stream hands over its cached
        # plain-list columns; an object stream is projected once per call
        # (same values, so the loop bodies below are representation-blind).
        va_list = getattr(transactions, "va_list", None)
        if va_list is not None:
            size_list = transactions.size_list
        else:
            va_list = [t[0] for t in transactions]
            size_list = [t[1] for t in transactions]

        # Fused leading-transaction dispatch (columnar tentpole): inline
        # MMU.translate for the trivial-policy PRMB design points, probing
        # the same structures with the same counters in the same order.
        resolver = mmu._resolvers.get(asid)
        fused = prmb_capacity and resolver is not None
        pool_stats = pool.stats
        walk_of = pool._walk_of
        vpn_arr = pool._vpn
        free_list = pool._free
        tpregs = pool._tpregs
        shared_cache = None if pool._no_path_cache else pool._shared_cache
        walk_latency = pool.walk_latency_per_level
        heappush_ = heapq.heappush
        if fused:
            resolver_resolve = resolver.resolve_vpn
            r_cache = resolver._cache

        # Slim fused drain: MMU.process_completions with the per-call
        # binding prologue hoisted to burst scope and the TPREG fill /
        # set-MRU-refill fast cases inlined (a resident set-MRU refill
        # with the same PFN is a state no-op; see the runner's guard).
        poisoned = mmu._poisoned_walkers
        busy_by_asid = pool._busy_by_asid
        prmb_occ = pool._prmb_occ
        policied = pool._policy is not None
        tlb_insert = tlb.insert
        heappop_ = heapq.heappop

        def drain(cycle: float) -> None:
            while heap and heap[0][0] <= cycle:
                _, _, walker = heappop_(heap)
                walk = walk_of[walker]
                if tpregs is not None:
                    tp = tpregs[walker]
                    tp._path = walk.path
                    tp._asid = walk.asid
                elif shared_cache is not None:
                    shared_cache.fill(walk)
                buf = buffers[walker]
                merged = buf._occupied
                buf._occupied = 0
                vpn_arr[walker] = None
                walk_of[walker] = None
                w_asid = walk.asid
                if policied:
                    busy = busy_by_asid.get(w_asid)
                    if busy is not None:
                        busy.discard(walker)
                    if merged:
                        prmb_occ[w_asid] -= merged
                free_list.append(walker)
                if poisoned and walker in poisoned:
                    poisoned.discard(walker)
                    continue
                key = walk.vpn | (w_asid << ASID_SHIFT)
                walkers_ = pts_by_vpn[key]
                walkers_.remove(walker)
                if not walkers_:
                    del pts_by_vpn[key]
                pts._count -= 1
                dset = tlb_sets[key & tlb_set_mask]
                if not (
                    dset
                    and next(reversed(dset)) == key
                    and dset[key] == walk.pfn
                ):
                    tlb_insert(walk.vpn, walk.pfn, w_asid)

        process = drain

        # DMA-provided run metadata (TransactionStream): same-page run
        # bounds and streamability known at linearization time, replacing
        # the per-transaction scan below.  Only valid at matching page size.
        meta = getattr(transactions, "runs", None)
        if meta is not None and (
            not meta
            or getattr(transactions, "page_size", 0) != 1 << vpn_shift
        ):
            meta = None
        rc = 0

        # Memoized same-page run bounds: re-entering the batch logic for a
        # partially-consumed run (after a completion-event segment break)
        # must not rescan the stream — 2 MB pages produce runs of ~8k
        # transactions that are revisited once per PRMB refill.
        run_vpn = -1
        run_end = 0
        run_streamable = False

        i = 0
        while i < n:
            va = va_list[i]
            size = size_list[i]
            vpn = va >> vpn_shift
            tkey = vpn | asid_bits
            if not prmb_capacity and tkey not in tlb_sets[tkey & tlb_set_mask]:
                # PRMB-less leading miss: the fused no-PRMB run handles
                # the page's fresh walk and everything after it directly,
                # bypassing the translate dispatch.
                (
                    i, cycle, data_end, total_bytes, stall,
                    rc, run_vpn, run_end, run_streamable, handled,
                ) = self._no_prmb_entry(
                    transactions, va_list, size_list, i, n, vpn, tkey, asid,
                    cycle, data_end, total_bytes, stall, meta, rc, run_vpn,
                    run_end, run_streamable,
                )
                if handled:
                    continue
                # The whole-burst runner may have crossed page boundaries
                # before blocking (or faulting with no handler), so
                # transaction ``i`` is not necessarily the one this
                # iteration derived its locals from: re-derive them before
                # the reference-step replay.
                va = va_list[i]
                size = size_list[i]
                vpn = va >> vpn_shift
                tkey = vpn | asid_bits
            # -- reference step for the run's leading transaction --------
            if heap and heap[0][0] <= cycle:
                process(cycle)
            if fused:
                # Inlined MMU.translate for the trivial-policy PRMB MMU:
                # same probes, same counters, same dispatch order (TLB →
                # PTS/PRMB merge → walker allocation → stall), with the
                # method-call chain flattened against locals.  The
                # request count is settled per branch (translate nets it
                # to zero on the stall and fault branches).
                while True:
                    entry_set = tlb_sets[tkey & tlb_set_mask]
                    if tkey in entry_set:
                        stats.requests += 1
                        entry_set.move_to_end(tkey)
                        tlb.hits += 1
                        stats.tlb_hits += 1
                        ready = cycle + tlb_latency
                        break
                    tlb.misses += 1
                    pts.lookups += 1
                    walkers = pts_by_vpn.get(tkey)
                    if walkers:
                        pts.hits += 1
                        merged = False
                        for walker in walkers:
                            buf = buffers[walker]
                            pos = buf._occupied
                            if pos >= buf.slots:
                                prmb_stats.rejects_full += 1
                                continue
                            pos += 1
                            buf._occupied = pos
                            prmb_stats.merges += 1
                            if pos > prmb_stats.peak_occupancy:
                                prmb_stats.peak_occupancy = pos
                            ready = completion_of[walker] + pos
                            merged = True
                            break
                        if merged:
                            stats.requests += 1
                            stats.merges += 1
                            break
                    if free_list:
                        walk = r_cache.get(vpn)
                        if walk is None:
                            walk = resolver_resolve(vpn)
                        if walk is None:
                            stats.faults += 1
                            if fault_handler is None:
                                raise TranslationFault(vpn)
                            resolved = fault_handler(vpn, cycle, asid)
                            # Post-fault state may be remapped: drop the
                            # memoized same-page-run metadata.
                            run_vpn = -1
                            run_end = 0
                            stall += resolved - cycle
                            cycle = resolved
                            process(cycle)
                            continue
                        stats.requests += 1
                        if walkers:
                            stats.redundant_walk_requests += 1
                        # Inlined WalkerPool.start_walk + PTS.register.
                        walker = free_list.pop()
                        if tpregs is not None:
                            skip = tpregs[walker].lookup(walk)
                        elif shared_cache is not None:
                            skip = shared_cache.lookup(walk)
                        else:
                            skip = 0
                        levels = walk.levels
                        accessed = levels - (
                            skip if skip < levels - 1 else levels - 1
                        )
                        ready = cycle + accessed * walk_latency
                        pool_stats.walks += 1
                        if walkers:
                            pool_stats.redundant_walks += 1
                        pool_stats.level_accesses += accessed
                        pool_stats.levels_skipped += levels - accessed
                        vpn_arr[walker] = vpn
                        walk_of[walker] = walk
                        completion_of[walker] = ready
                        pool._seq += 1
                        heappush_(heap, (ready, pool._seq, walker))
                        if walkers:
                            walkers.append(walker)
                        else:
                            pts_by_vpn[tkey] = [walker]
                        pts._count += 1
                        break
                    # Fully blocked: translate's stall branch (the probe
                    # counters above stand; the retried request recounts).
                    retry = heap[0][0] if heap else inf
                    stats.stall_events += 1
                    stats.stall_cycles += max(0.0, retry - cycle)
                    stall += retry - cycle
                    cycle = retry
                    process(cycle)
            else:
                while True:
                    try:
                        ready, retry = translate(vpn, cycle, asid)
                    except TranslationFault:
                        if fault_handler is None:
                            raise
                        resolved = fault_handler(vpn, cycle, asid)
                        # The handler may have migrated/remapped pages; drop
                        # the memoized same-page-run metadata so the batch
                        # logic re-derives it against post-fault state.
                        run_vpn = -1
                        run_end = 0
                        stall += resolved - cycle
                        cycle = resolved
                        process(cycle)
                        continue
                    if ready is None:
                        stall += retry - cycle
                        cycle = retry
                        process(cycle)
                        continue
                    break
            channel = (va >> 8) % n_channels
            free_at = channel_free[channel]
            start = ready if ready > free_at else free_at
            finish = start + size / ch_bw
            channel_free[channel] = finish
            done = finish + mem_latency
            if done > data_end:
                data_end = done
            total_bytes += size
            cycle += interval
            i += 1

            # -- batched continuation over the same-page run -------------
            # The loop condition is the cheapest possible "next transaction
            # stays on this page" probe; state probes follow only when it
            # holds, so page-divergent streams pay two integer ops per
            # transaction for the fast path's existence.
            while i < n and va_list[i] >> vpn_shift == vpn:
                if tkey in tlb_sets[tkey & tlb_set_mask]:
                    # Bulk TLB hits over the whole run.  Walk completions
                    # that fall inside the run are deferred to its end and
                    # then retired in one ``process`` call: the pops happen
                    # in identical heap order with cycle-independent
                    # effects, eviction victims are unchanged (this page
                    # was bumped by the run's leading lookup, so it is
                    # never a set's LRU entry while ways >= 2), and the
                    # final LRU touch lands after exactly the fills whose
                    # completion precedes the run's last issue — the
                    # reference interleaving.
                    if not hit_runs_batchable:
                        break
                    if run_vpn != vpn or i >= run_end:
                        j, run_streamable, rc = _run_bounds(
                            va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                        )
                        run_vpn = vpn
                        run_end = j
                    else:
                        j = run_end
                    span = j - i
                    closed = False
                    va0 = va_list[i]
                    if (
                        span >= 8
                        and run_streamable
                        and (span <= n_channels or stream_ok)
                    ):
                        # Streaming closed form (see the oracle path): only
                        # the last ``n_channels`` transactions' finishes are
                        # observable once the no-queue probe passes.
                        base_ch = va0 >> 8
                        lim = span if span < n_channels else n_channels
                        ok = max(channel_free) <= cycle + tlb_latency
                        if not ok:
                            probe = cycle
                            ok = True
                            for k in range(lim):
                                if channel_free[(base_ch + k) % n_channels] > (
                                    probe + tlb_latency
                                ):
                                    ok = False
                                    break
                                probe += interval
                        if ok:
                            closed = True
                            for _ in range(span - lim):
                                cycle += interval
                            for k in range(span - lim, span):
                                ready = cycle + tlb_latency
                                finish = ready + s_cycles
                                channel_free[(base_ch + k) % n_channels] = finish
                                last_issue = cycle
                                cycle += interval
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += span * 256
                    if not closed:
                        last_issue = cycle
                        for va, size in zip(va_list[i:j], size_list[i:j]):
                            ready = cycle + tlb_latency
                            channel = (va >> 8) % n_channels
                            free_at = channel_free[channel]
                            start = ready if ready > free_at else free_at
                            finish = start + size / ch_bw
                            channel_free[channel] = finish
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += size
                            last_issue = cycle
                            cycle += interval
                    stats.requests += span
                    stats.tlb_hits += span
                    if heap and heap[0][0] <= last_issue:
                        process(last_issue)
                    tlb.touch(vpn, span, asid)
                    i = j
                    continue

                if not prmb_capacity:
                    (
                        i, cycle, data_end, total_bytes, stall,
                        rc, run_vpn, run_end, run_streamable, handled,
                    ) = self._no_prmb_entry(
                        transactions, va_list, size_list, i, n, vpn, tkey,
                        asid, cycle, data_end, total_bytes, stall, meta,
                        rc, run_vpn, run_end, run_streamable,
                    )
                    if not handled:
                        break  # the reference step raises / re-evaluates
                    continue  # re-dispatch: TLB hits, or a new page
                walkers = pts_by_vpn.get(tkey)
                if not walkers:
                    break
                # Bulk PRMB merges: requests park in the first in-flight
                # walker with a free slot; request r's data is released at
                # the walk's completion plus r's drain position.
                #
                # Unlike TLB hits, merges commute with *other* pages' walk
                # completions: a merge touches only this page's walker
                # buffer and monotone counters, never the TLB's LRU state
                # or the walker free list.  Deferring those retirements to
                # the next reference step (which processes the whole
                # backlog in identical heap order, with cycle-independent
                # effects) is therefore exactly equivalent — so a merge
                # segment only has to break when one of *this page's*
                # walks completes and flips the run to TLB hits.
                if len(walkers) == 1:
                    h_mine = completion_of[walkers[0]]
                else:
                    h_mine = min(completion_of[w] for w in walkers)
                if cycle >= h_mine:
                    # This page's own walk completes now: retire the
                    # backlog and re-dispatch (the run flips to TLB hits).
                    process(cycle)
                    continue
                if run_vpn != vpn or i >= run_end:
                    j, run_streamable, rc = _run_bounds(
                        va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                    )
                    run_vpn = vpn
                    run_end = j
                else:
                    j = run_end
                merged_total = 0
                full_skips = 0
                exhausted = False
                for walker in walkers:
                    buf = buffers[walker]
                    pos = buf._occupied
                    cap = buf.slots
                    if pos >= cap:
                        full_skips += 1
                        continue
                    comp = completion_of[walker]
                    room = cap - pos
                    avail = j - i
                    span = avail if avail < room else room
                    # simlint: disable=cyc-true-div -- horizon/interval live in the float cycle domain; int() truncation is the reference semantics and // floors differently at float boundaries, breaking bit-identity
                    t = int((h_mine - cycle) / interval) - 1
                    if t < span:
                        span = t
                    if span > 0:
                        closed = False
                        va0 = va_list[i]
                        if (
                            span >= 8
                            and run_streamable
                            and (span <= n_channels or merge_stream_ok)
                        ):
                            # Streaming closed form: merged requests drain
                            # one per cycle after the walk completes, so a
                            # contiguous uniform run again touches channels
                            # round-robin with unit spacing.
                            base_ch = va0 >> 8
                            lim = span if span < n_channels else n_channels
                            ok = max(channel_free) <= comp + (pos + 1)
                            if not ok:
                                for k in range(lim):
                                    if channel_free[(base_ch + k) % n_channels] > (
                                        comp + (pos + 1 + k)
                                    ):
                                        ok = False
                                        break
                                else:
                                    ok = True
                            if ok:
                                closed = True
                                for _ in range(span):
                                    cycle += interval
                                for k in range(span - lim, span):
                                    ready = comp + (pos + 1 + k)
                                    finish = ready + s_cycles
                                    channel_free[
                                        (base_ch + k) % n_channels
                                    ] = finish
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += span * 256
                                pos += span
                        if not closed:
                            for va, size in zip(
                                va_list[i:i + span], size_list[i:i + span]
                            ):
                                pos += 1
                                ready = comp + pos
                                channel = (va >> 8) % n_channels
                                free_at = channel_free[channel]
                                start = ready if ready > free_at else free_at
                                finish = start + size / ch_bw
                                channel_free[channel] = finish
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += size
                                cycle += interval
                        k = i + span
                    else:
                        k = i
                    # Residual guarded loop: finishes whatever the bulk
                    # span left over (the conservative trip count stops up
                    # to one interval short of the completion event), so a
                    # walker is only ever abandoned because its buffer is
                    # truly full, the run ended, or this page's walk is due.
                    while k < j and pos < cap and cycle < h_mine:
                        va = va_list[k]
                        size = size_list[k]
                        pos += 1
                        ready = comp + pos
                        channel = (va >> 8) % n_channels
                        free_at = channel_free[channel]
                        start = ready if ready > free_at else free_at
                        finish = start + size / ch_bw
                        channel_free[channel] = finish
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += size
                        cycle += interval
                        k += 1
                    count = k - i
                    if count:
                        buf._occupied = pos
                        mb_stats = buf.stats
                        mb_stats.merges += count
                        if pos > mb_stats.peak_occupancy:
                            mb_stats.peak_occupancy = pos
                        # Each merged request first probed every already-
                        # full walker ahead of this one in the PTS list.
                        mb_stats.rejects_full += full_skips * count
                        merged_total += count
                        i = k
                    if i >= j or cycle >= h_mine:
                        break
                    full_skips += 1  # this walker is now truly full
                else:
                    exhausted = True
                if merged_total:
                    stats.requests += merged_total
                    stats.merges += merged_total
                    # Each merged request was one TLB miss + one PTS hit.
                    tlb.misses += merged_total
                    pts.lookups += merged_total
                    pts.hits += merged_total
                if exhausted:
                    # Every in-flight walker's PRMB is full: the next
                    # transaction launches a redundant walk or stalls.
                    h = heap[0][0] if heap else inf
                    if h <= cycle:
                        # Deferred completions are due; they may free a
                        # walker or finish this page's walk.
                        process(cycle)
                        continue
                    if pool._free:
                        break  # a redundant walk can start: reference path
                    # Fully blocked — MMU.translate's stall branch inlined:
                    # the attempt probes the TLB, hits the PTS, is rejected
                    # by every full PRMB, then blocks until the earliest
                    # in-flight walk completes.  The retried request is
                    # recounted by whichever path retires it.
                    retry = h
                    tlb.misses += 1
                    pts.lookups += 1
                    pts.hits += 1
                    prmb_stats.rejects_full += len(walkers)
                    stats.stall_events += 1
                    stats.stall_cycles += retry - cycle
                    stall += retry - cycle
                    cycle = retry
                    process(cycle)
                    continue

        # Catch deferred retirements up to the reference path's end-of-burst
        # point (the final transaction's issue cycle).  Within a burst the
        # next reference step replays the backlog identically, but the next
        # *burst* may start at an earlier cycle — multi-tenant tenants run
        # on independent clocks — where a stale backlog would desynchronize
        # walker allocation between the two paths.
        if n:
            last_cycle = cycle - interval
            if heap and heap[0][0] <= last_cycle:
                process(last_cycle)

        memory.total_bytes += total_bytes
        memory.total_accesses += n
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=n,
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # no-PRMB continuation (shared by batched and contended paths)       #
    # ------------------------------------------------------------------ #

    def _no_prmb_run(
        self,
        va_list: Sequence[int],
        size_list: Sequence[int],
        i: int,
        j: int,
        vpn: int,
        tkey: int,
        asid: int,
        cycle: float,
        data_end: float,
        total_bytes: int,
        stall: float,
    ) -> Tuple[int, float, float, int, float, bool]:
        """Fused same-page continuation for PRMB-less MMUs (the
        baseline-IOMMU regime).

        While this page's walk is in flight, every transaction either
        launches a redundant walk or stalls on translation bandwidth —
        the reference loop pays two :meth:`MMU.translate` dispatches per
        transaction (the stalled probe and its post-retry replay) plus a
        :meth:`MMU.process_completions` call per stall.  This method
        replays that exact sequence — same probes, same counters, same
        retry policy, same retirement points — with walk dispatch and
        walk retirement inlined against locals bound once per run, and
        is called once per same-page segment (``transactions[i:j]``, the
        caller's memoized run bounds) so its own setup amortizes over
        the run.  Integer counters accumulate in locals and flush once
        on exit (integer addition is exact and order-independent); float
        accumulators keep the reference's per-transaction addition
        order, to which floating-point rounding is sensitive.  A page
        fault calls the engine's ``fault_handler`` in place, with
        :meth:`MMU.translate`'s fault-branch counters, and the loop
        carries on at the handler's retry point.  Returns
        ``(i, cycle, data_end, total_bytes, stall, faulted)``; the
        caller re-dispatches (the run typically flipped to TLB hits) or,
        on ``faulted`` (a fault with no handler installed), replays the
        transaction through the reference step, which raises it.
        """
        mmu = self.mmu
        pool = mmu.pool
        pts = mmu.pts
        tlb = mmu.tlb
        # Fused FIFO paths only run on translated single-level TLB
        # configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        stats = mmu.stats
        pool_stats = pool.stats
        heap = pool.heap
        interval = self.issue_interval
        memory = self.memory
        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        tlb_set = tlb._sets[tkey & tlb._set_mask]
        pts_by_vpn = pts._by_vpn
        walk_of = pool._walk_of
        vpn_arr = pool._vpn
        free_list = pool._free
        completion_of = pool._completion_of
        heappush_ = heapq.heappush
        heappop_ = heapq.heappop
        poisoned = mmu._poisoned_walkers
        #: None while the page has no walk in flight (fresh mode): the
        #: first dispatched walk is then non-redundant and its PTS probe
        #: was a miss — the probe/stat deltas differ from the redundant
        #: steady state and are tracked separately below.
        my_walkers = pts_by_vpn.get(tkey)
        tpregs = pool._tpregs
        shared_cache = None if pool._no_path_cache else pool._shared_cache
        walk_latency = pool.walk_latency_per_level
        policied = pool._policy is not None
        busy_by_asid = pool._busy_by_asid
        tlb_insert = tlb.insert
        resolver = mmu._resolvers[asid]
        fault_handler = self.fault_handler
        walk = None
        faulted = False
        inf = float("inf")
        if policied:
            # Policy answers are constant until the policy's own event
            # horizon (next_event_for contract), so the tenant's walker
            # quota — and every other tenant's, with its busy set — binds
            # once per segment; the can_start / retry logic below
            # replicates WalkerPool.can_start / earliest_retry_for
            # against them operation for operation.
            policy = pool._policy
            my_quota = pool._walker_quota(asid)
            work_conserving = policy.work_conserving
            my_busy = busy_by_asid.setdefault(asid, set())
            horizon = policy.next_event_for(asid, cycle)
            others = [
                (oq, busy_by_asid.get(other))
                for other in policy.asids
                if other != asid
                and (oq := pool._walker_quota(other)) is not None
            ]
        else:
            horizon = inf
        walks_n = 0
        stalls_n = 0
        fresh_walk_n = 0
        fresh_stall_n = 0
        levels_sum = 0
        skipped_sum = 0

        while i < j:
            if heap and heap[0][0] <= cycle:
                # Inlined walk retirement (PRMB-less: nothing to drain) —
                # operation-for-operation MMU.process_completions.
                while heap and heap[0][0] <= cycle:
                    _, _, walker = heappop_(heap)
                    done_walk = walk_of[walker]
                    if tpregs is not None:
                        tpregs[walker].fill(done_walk)
                    elif shared_cache is not None:
                        shared_cache.fill(done_walk)
                    vpn_arr[walker] = None
                    walk_of[walker] = None
                    if policied:
                        busy = busy_by_asid.get(done_walk.asid)
                        if busy is not None:
                            busy.discard(walker)
                    free_list.append(walker)
                    if poisoned and walker in poisoned:
                        poisoned.discard(walker)
                        continue
                    # Inlined PTS.release (always registered here).
                    key = done_walk.vpn | (done_walk.asid << ASID_SHIFT)
                    registered = pts_by_vpn[key]
                    registered.remove(walker)
                    if not registered:
                        del pts_by_vpn[key]
                    pts._count -= 1
                    tlb_insert(done_walk.vpn, done_walk.pfn, done_walk.asid)
                if tkey in tlb_set:
                    break  # the run flips to TLB hits
                my_walkers = pts_by_vpn.get(tkey)
            if cycle >= horizon:
                break  # policy answers may change: re-consult via caller
            if not free_list:
                startable = False
            elif not policied or my_quota is None or len(my_busy) < my_quota:
                startable = True
            elif not work_conserving:
                startable = False
            else:
                reserved_unmet = 0
                for other_quota, other_busy in others:
                    shortfall = other_quota - (
                        len(other_busy) if other_busy else 0
                    )
                    if shortfall > 0:
                        reserved_unmet += shortfall
                startable = len(free_list) > reserved_unmet
            if startable:
                if walk is None:
                    walk = resolver.resolve_vpn(vpn)
                    if walk is None:
                        if fault_handler is None:
                            faulted = True
                            break  # the reference step raises it
                        resolved = _fault_in_place(
                            mmu, fault_handler, vpn, cycle, asid,
                            bool(my_walkers),
                        )
                        stall += resolved - cycle
                        cycle = resolved
                        # The handler's shootdowns may have changed this
                        # page's scoreboard entry; the loop top retires
                        # what completed by ``resolved``.
                        my_walkers = pts_by_vpn.get(tkey)
                        continue
                if my_walkers is None:
                    fresh_walk_n += 1  # PTS missed: a non-redundant walk
                    my_walkers = pts_by_vpn.setdefault(tkey, [])
                else:
                    walks_n += 1
                # Inlined WalkerPool.start_walk + PTS.register.
                walker = free_list.pop()
                if tpregs is not None:
                    skip = tpregs[walker].lookup(walk)
                elif shared_cache is not None:
                    skip = shared_cache.lookup(walk)
                else:
                    skip = 0
                levels = walk.levels
                accessed = levels - (skip if skip < levels - 1 else levels - 1)
                ready = cycle + accessed * walk_latency
                levels_sum += accessed
                skipped_sum += levels - accessed
                vpn_arr[walker] = vpn
                walk_of[walker] = walk
                completion_of[walker] = ready
                if policied:
                    my_busy.add(walker)
                pool._seq += 1
                heappush_(heap, (ready, pool._seq, walker))
                my_walkers.append(walker)
                va = va_list[i]
                size = size_list[i]
                channel = (va >> 8) % n_channels
                free_at = channel_free[channel]
                start = ready if ready > free_at else free_at
                finish = start + size / ch_bw
                channel_free[channel] = finish
                done = finish + mem_latency
                if done > data_end:
                    data_end = done
                total_bytes += size
                cycle += interval
                i += 1
                continue
            # Fully blocked: one stall attempt (probes counted, the
            # request recounted on retry), then retire whatever unblocks
            # this context at the loop top and re-attempt.  The retry
            # point replicates WalkerPool.earliest_retry_for: a tenant
            # hard-blocked by its quota waits for its own earliest walk;
            # everyone else waits for the pool-wide earliest completion.
            if (
                policied
                and not work_conserving
                and my_busy
                and my_quota is not None
                and len(my_busy) >= my_quota
            ):
                # simlint: disable=det-set-iter -- min() over completion cycles is order-independent: floats are totally ordered and ties yield the same value, so hash order cannot leak into timing
                retry = min(completion_of[w] for w in my_busy)
            else:
                retry = heap[0][0] if heap else inf
            if my_walkers is None:
                fresh_stall_n += 1  # the blocked probe missed the PTS too
            else:
                stalls_n += 1
            stats.stall_cycles += retry - cycle if retry > cycle else 0.0
            stall += retry - cycle
            cycle = retry

        # Deferred integer-counter flush (nothing inside the loop reads
        # these; the retire loop's pts._count decrements commute with the
        # walk starts' deferred increments).  Fresh-mode attempts probed
        # an empty scoreboard (no PTS hit, walk not redundant); redundant
        # attempts hit it.
        started = walks_n + fresh_walk_n
        if started:
            stats.requests += started
            pool_stats.walks += started
            pool_stats.level_accesses += levels_sum
            pool_stats.levels_skipped += skipped_sum
            pts._count += started
        if walks_n:
            stats.redundant_walk_requests += walks_n
            pool_stats.redundant_walks += walks_n
        probes = started + stalls_n + fresh_stall_n
        if probes:
            tlb.misses += probes
            pts.lookups += probes
            pts.hits += walks_n + stalls_n
        if stalls_n or fresh_stall_n:
            stats.stall_events += stalls_n + fresh_stall_n
        return i, cycle, data_end, total_bytes, stall, faulted

    def _no_prmb_fifo_runner(self, asid: int) -> NoPrmbRunner:
        """Build (and cache) the fused FIFO no-PRMB segment runner for one
        address space.

        Without path caches every walk accesses all of its page depth's
        levels, so walks complete in start order and the completion heap
        is (nearly) a FIFO: the heappush/heappop pair per walk becomes a
        cursor over one sorted snapshot of the heap.  The saturated
        baseline-IOMMU regime (Figure 8) then advances analytically.
        Three things make this the fast path the columnar engine leans
        on for the contended scenarios:

        * **Closure binding.**  Every stable structure (heap, free list,
          scoreboard, TLB sets, channel table ...) binds once when the
          runner is built, not once per ~5-transaction segment; per-call
          setup reduces to the policy block the event-horizon contract
          requires.
        * **Persistent snapshot.**  The sorted heap image survives
          between calls; it is revalidated by an O(1) identity check
          (length + head/tail object identity).  Removals always take
          the heap minimum — the cursor here, ``heappop`` elsewhere —
          so if the head object survived with the length and tail
          unchanged, no pop and hence no push happened: the snapshot is
          exact.  Sorting amortizes over a burst instead of being paid
          per segment.
        * **Order-preserving insertion.**  A start whose completion
          lands before the snapshot tail (heterogeneous page depths
          across tenants) is insorted instead of bailing to the general
          event loop: a sorted list is a valid min-heap and every
          ``(ready, seq, walker)`` key is distinct, so pop order — the
          only observable — is unchanged.

        The inner loop carries a *saturated steady-state* fast path:
        when the pool is fully busy and the next completion is strictly
        ahead, each transaction is exactly one stall, one retirement and
        one (redundant) walk start, so the loop collapses to that
        sequence with the segment-invariant checks hoisted.  Consecutive
        retirements of the same walk object collapse to one TLB insert:
        with nothing interleaved the repeats are bare present-key LRU
        bumps (stamp renumbering is monotone, so victim choices and
        final LRU order are preserved).  Counters, probes, retry policy
        and float accumulation order are the general loop's, operation
        for operation; ``heap[:]`` is restored from the live suffix on
        every exit.

        A page fault in the miss phase calls the ``fault_handler`` the
        caller passes (the engine's, which may be installed after the
        runner is built) and carries on at its retry point, so a
        demand-paged burst never leaves the runner to fault.  The
        closure holds no reference to the engine itself: the runner
        cache would otherwise make every engine a reference cycle.
        """
        runner = self._np_runners.get(asid)
        if runner is not None:
            return runner
        mmu = self.mmu
        pool = mmu.pool
        pts = mmu.pts
        tlb = mmu.tlb
        # Fused FIFO paths only run on translated single-level TLB
        # configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        stats = mmu.stats
        pool_stats = pool.stats
        heap = pool.heap
        interval = self.issue_interval
        memory = self.memory
        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        tlb_sets = tlb._sets
        tlb_set_mask = tlb._set_mask
        pts_by_vpn = pts._by_vpn
        walk_of = pool._walk_of
        vpn_arr = pool._vpn
        free_list = pool._free
        completion_of = pool._completion_of
        poisoned = mmu._poisoned_walkers
        walk_latency = pool.walk_latency_per_level
        busy_by_asid = pool._busy_by_asid
        tlb_insert = tlb.insert
        resolvers = mmu._resolvers
        walker_quota = pool._walker_quota
        insort = bisect.insort
        inf = float("inf")

        run_bounds = _run_bounds
        vpn_shift = mmu._vpn_shift
        tlb_touch = tlb.touch
        tlb_lookup = tlb.lookup
        tlb_latency = mmu._tlb_latency
        s_cycles = 256 / ch_bw
        stream_ok = n_channels * interval >= s_cycles
        asid_bits = asid << ASID_SHIFT

        # Batched walker-completion calendar (ROADMAP lever (d)): whole
        # saturated multi-run stretches retire as one planned bucket.
        # ``NEUMMU_CALENDAR=0`` forces the per-event path (benchmarking
        # and differential-fuzz granularity); bit-identity either way.
        calendar = CompletionCalendar(mmu, memory, asid, interval)
        use_calendar = os.environ.get("NEUMMU_CALENDAR", "1") != "0"

        # Persistent completion snapshot: ``order[idx:]`` mirrors the heap
        # between calls (see the revalidation check below).
        order: List[Tuple[float, int, int]] = []
        idx = 0

        # Policy block memo, invalidated by ``SharePolicy.version`` (every
        # quota-changing event bumps it) or a policy swap.  Busy sets are
        # created eagerly so the memoized ``others`` rows track the live
        # sets; an empty set behaves exactly like an absent one at every
        # enforcement site.
        pol_obj = None
        pol_ver = -1
        my_quota = None
        work_conserving = True
        my_busy = None
        others = ()

        def run(
            va_list: Sequence[int],
            size_list: Sequence[int],
            i: int,
            j: int,
            n: int,
            vpn: int,
            tkey: int,
            cycle: float,
            data_end: float,
            total_bytes: int,
            stall: float,
            meta: Optional[Sequence[Tuple[int, bool]]],
            rc: int,
            run_streamable: bool,
            fault_handler: Optional[FaultHandler],
            vas_col: Any = None,
            sizes_col: Any = None,
            uniform_size: Optional[int] = None,
        ) -> Tuple[int, float, float, int, float, bool, int, int, int, bool]:
            nonlocal order, idx
            nonlocal pol_obj, pol_ver, my_quota, work_conserving, my_busy, others
            live = len(order) - idx
            if len(heap) != live or (
                live
                and (heap[0] is not order[idx] or heap[-1] is not order[-1])
            ):
                order = sorted(heap)
                idx = 0
            elif idx > 2048:
                del order[:idx]
                idx = 0
            policy = pool._policy
            policied = policy is not None
            if policied:
                if policy is not pol_obj or pol_ver != policy.version:
                    pol_obj = policy
                    pol_ver = policy.version
                    my_quota = walker_quota(asid)
                    work_conserving = policy.work_conserving
                    my_busy = busy_by_asid.setdefault(asid, set())
                    others = [
                        (oq, busy_by_asid.setdefault(other, set()))
                        for other in policy.asids
                        if other != asid
                        and (oq := walker_quota(other)) is not None
                    ]
                next_event = policy.next_event_for
                horizon = next_event(asid, cycle)
            else:
                next_event = None
                horizon = inf
            order_append = order.append
            tlb_set = tlb_sets[tkey & tlb_set_mask]
            my_walkers = pts_by_vpn.get(tkey)
            resolver = resolvers[asid]
            r_cache = resolver._cache
            r_resolve = resolver.resolve_vpn
            run_vpn = vpn
            run_end = j
            seq = pool._seq
            sc = stats.stall_cycles
            walk = None
            dur = 0.0
            levels = 0
            faulted = False
            blocked = False
            walks_n = 0
            stalls_n = 0
            fresh_walk_n = 0
            fresh_stall_n = 0
            levels_sum = 0
            released_n = 0
            prev_walk = None
            cal_skip = 0  # plan-failure hysteresis: retry at the next run
            cal_fails = 0  # consecutive declines this burst (backoff gate)

            while True:
                if tkey in tlb_set:
                    # ------------- hit phase (page resident) -------------
                    # Operation-for-operation the caller's leading
                    # reference step plus its bulk hit segments, with
                    # ``process_completions`` consumed through the cursor.
                    prev_walk = None
                    while i < j:
                        if tkey not in tlb_set:
                            break  # a fill evicted the page: walk again
                        h = order[idx][0] if idx < len(order) else inf
                        if h <= cycle:
                            # process_completions(cycle), cursor-inlined
                            # (no PRMB drains, no path-cache fills).
                            n_ord = len(order)
                            while idx < n_ord:
                                entry = order[idx]
                                if entry[0] > cycle:
                                    break
                                idx += 1
                                walker = entry[2]
                                done_walk = walk_of[walker]
                                vpn_arr[walker] = None
                                walk_of[walker] = None
                                if policied:
                                    busy = busy_by_asid.get(done_walk.asid)
                                    if busy is not None:
                                        busy.discard(walker)
                                free_list.append(walker)
                                if poisoned and walker in poisoned:
                                    poisoned.discard(walker)
                                    continue
                                dkey = done_walk.vpn | (
                                    done_walk.asid << ASID_SHIFT
                                )
                                registered = pts_by_vpn[dkey]
                                registered.remove(walker)
                                if not registered:
                                    del pts_by_vpn[dkey]
                                released_n += 1
                                dset = tlb_sets[dkey & tlb_set_mask]
                                if not (
                                    dset
                                    and next(reversed(dset)) == dkey
                                    and dset[dkey] == done_walk.pfn
                                ):
                                    # A resident set-MRU refill with the
                                    # same PFN is a state no-op (the LRU
                                    # bump lands on the tail; mirror
                                    # order and all same-set stamp
                                    # orderings are preserved).
                                    tlb_insert(
                                        done_walk.vpn, done_walk.pfn,
                                        done_walk.asid,
                                    )
                            continue
                        if policied:
                            horizon = next_event(asid, cycle)
                            if horizon < h:
                                h = horizon
                        # simlint: disable=cyc-true-div -- horizon/interval live in the float cycle domain; int() truncation is the reference semantics and // floors differently at float boundaries, breaking bit-identity
                        t = int((h - cycle) / interval) - 1 if h != inf else n
                        if t <= 0:
                            # Horizon-boundary transaction: one reference
                            # hit (no completion is due at this cycle).
                            stats.requests += 1
                            stats.tlb_hits += 1
                            tlb_lookup(vpn, asid)
                            ready = cycle + tlb_latency
                            va = va_list[i]
                            size = size_list[i]
                            channel = (va >> 8) % n_channels
                            free_at = channel_free[channel]
                            start = ready if ready > free_at else free_at
                            finish = start + size / ch_bw
                            channel_free[channel] = finish
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += size
                            cycle += interval
                            i += 1
                            continue
                        span = j - i
                        if span > t:
                            span = t
                        closed = False
                        va0 = va_list[i]
                        if (
                            span >= 8
                            and run_streamable
                            and (span <= n_channels or stream_ok)
                        ):
                            base_ch = va0 >> 8
                            lim = span if span < n_channels else n_channels
                            ok = max(channel_free) <= cycle + tlb_latency
                            if not ok:
                                probe = cycle
                                ok = True
                                for k in range(lim):
                                    if channel_free[
                                        (base_ch + k) % n_channels
                                    ] > (probe + tlb_latency):
                                        ok = False
                                        break
                                    probe += interval
                            if ok:
                                closed = True
                                for _ in range(span - lim):
                                    cycle += interval
                                for k in range(span - lim, span):
                                    ready = cycle + tlb_latency
                                    finish = ready + s_cycles
                                    channel_free[
                                        (base_ch + k) % n_channels
                                    ] = finish
                                    cycle += interval
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += span * 256
                        if not closed:
                            for va, size in zip(
                                va_list[i:i + span], size_list[i:i + span]
                            ):
                                ready = cycle + tlb_latency
                                channel = (va >> 8) % n_channels
                                free_at = channel_free[channel]
                                start = ready if ready > free_at else free_at
                                finish = start + size / ch_bw
                                channel_free[channel] = finish
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += size
                                cycle += interval
                        stats.requests += span
                        stats.tlb_hits += span
                        tlb_touch(vpn, span, asid)
                        i += span
                    if i >= n:
                        break
                    if i >= j:
                        # Next page.
                        vpn = va_list[i] >> vpn_shift
                        tkey = vpn | asid_bits
                        tlb_set = tlb_sets[tkey & tlb_set_mask]
                        j, run_streamable, rc = run_bounds(
                            va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                        )
                        run_vpn = vpn
                        run_end = j
                        walk = None
                        my_walkers = pts_by_vpn.get(tkey)
                        continue
                    # Evicted mid-run: walk the same page again.
                    my_walkers = pts_by_vpn.get(tkey)

                # ------------- miss phase (walk the page) ----------------
                prev_walk = None
                flip = False
                while i < j:
                    n_ord = len(order)
                    if idx < n_ord and order[idx][0] <= cycle:
                        # Inlined walk retirement in FIFO order (PRMB-less
                        # and path-cache-less: nothing to drain or fill).
                        while idx < n_ord:
                            entry = order[idx]
                            if entry[0] > cycle:
                                break
                            idx += 1
                            walker = entry[2]
                            done_walk = walk_of[walker]
                            d_asid = done_walk.asid
                            vpn_arr[walker] = None
                            walk_of[walker] = None
                            if policied:
                                busy = (
                                    my_busy if d_asid == asid
                                    else busy_by_asid.get(d_asid)
                                )
                                if busy is not None:
                                    busy.discard(walker)
                            free_list.append(walker)
                            if poisoned and walker in poisoned:
                                poisoned.discard(walker)
                                continue
                            # Inlined PTS.release (always registered).
                            dkey = done_walk.vpn | (d_asid << ASID_SHIFT)
                            registered = pts_by_vpn[dkey]
                            registered.remove(walker)
                            if not registered:
                                del pts_by_vpn[dkey]
                            released_n += 1
                            if done_walk is prev_walk:
                                # Same mapping as the insert just made,
                                # nothing interleaved: a bare present-key
                                # LRU bump.
                                continue
                            dset = tlb_sets[dkey & tlb_set_mask]
                            if not (
                                dset
                                and next(reversed(dset)) == dkey
                                and dset[dkey] == done_walk.pfn
                            ):
                                # Set-MRU same-PFN refill: state no-op.
                                tlb_insert(
                                    done_walk.vpn, done_walk.pfn, d_asid
                                )
                            prev_walk = done_walk
                        if tkey in tlb_set:
                            break  # the run flips to TLB hits
                        my_walkers = pts_by_vpn.get(tkey)
                    if cycle >= horizon:
                        blocked = True
                        break  # policy answers may change: re-consult
                    if not free_list:
                        startable = False
                    elif (
                        not policied
                        or my_quota is None
                        or len(my_busy) < my_quota
                    ):
                        startable = True
                    elif not work_conserving:
                        startable = False
                    else:
                        reserved_unmet = 0
                        for other_quota, other_busy in others:
                            shortfall = other_quota - len(other_busy)
                            if shortfall > 0:
                                reserved_unmet += shortfall
                        startable = len(free_list) > reserved_unmet
                    if startable:
                        if walk is None:
                            walk = r_cache.get(vpn)
                            if walk is None:
                                # Cold page (or a memoized fault): one
                                # full resolve decides which.
                                walk = r_resolve(vpn)
                                if walk is None:
                                    if fault_handler is None:
                                        faulted = True
                                        break  # the reference step raises it
                                    resolved = _fault_in_place(
                                        mmu, fault_handler, vpn, cycle,
                                        asid, bool(my_walkers),
                                    )
                                    stall += resolved - cycle
                                    cycle = resolved
                                    # The handler's shootdowns may have
                                    # dropped TLB entries and poisoned
                                    # walks: the same-walk insert memo
                                    # and this page's scoreboard view
                                    # are stale.  The loop top retires
                                    # what completed by ``resolved``.
                                    prev_walk = None
                                    my_walkers = pts_by_vpn.get(tkey)
                                    continue
                            levels = walk.levels
                            dur = levels * walk_latency
                        ready = cycle + dur
                        if my_walkers is None:
                            fresh_walk_n += 1  # PTS miss: non-redundant
                            my_walkers = pts_by_vpn.setdefault(tkey, [])
                        else:
                            walks_n += 1
                        walker = free_list.pop()
                        levels_sum += levels
                        vpn_arr[walker] = vpn
                        walk_of[walker] = walk
                        completion_of[walker] = ready
                        if policied:
                            my_busy.add(walker)
                        seq += 1
                        entry = (ready, seq, walker)
                        if order and ready < order[-1][0]:
                            # In-flight walks span page depths: keep the
                            # snapshot sorted (pop order is unchanged; an
                            # equal-ready entry has the larger seq and
                            # belongs at the tail).
                            insort(order, entry, idx)
                        else:
                            order_append(entry)
                        my_walkers.append(walker)
                        va = va_list[i]
                        size = size_list[i]
                        channel = (va >> 8) % n_channels
                        free_at = channel_free[channel]
                        start = ready if ready > free_at else free_at
                        finish = start + size / ch_bw
                        channel_free[channel] = finish
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += size
                        cycle += interval
                        i += 1
                        # -- saturated steady state: stall, retire, start --
                        # Preconditions per iteration: pool fully busy,
                        # next completion strictly ahead, not hard-blocked.
                        # Each transaction is then exactly the general
                        # loop's stall attempt + single retirement +
                        # redundant start, with the checks those imply
                        # already decided.
                        # The retired walker is restarted in place, so
                        # the free-list round trip, the walker-array
                        # clears and an own-tenant busy discard/add pair
                        # are deferred; every break materializes them
                        # (the freed walker, cleared arrays, busy set)
                        # before the general loop resumes.
                        while i < j:
                            if idx >= len(order):
                                break
                            entry = order[idx]
                            c = entry[0]
                            if c <= cycle or free_list:
                                break
                            if cycle >= horizon:
                                break
                            if (
                                policied
                                and not work_conserving
                                and my_quota is not None
                                and len(my_busy) >= my_quota
                            ):
                                break  # hard-block: waits on own walks
                            # Stall attempt (c > cycle here).
                            stalls_n += 1
                            sc += c - cycle
                            stall += c - cycle
                            cycle = c
                            idx += 1
                            # Retire exactly this completion.
                            walker = entry[2]
                            done_walk = walk_of[walker]
                            d_asid = done_walk.asid
                            own = d_asid == asid
                            if policied and not own:
                                busy = busy_by_asid.get(d_asid)
                                if busy is not None:
                                    busy.discard(walker)
                            if poisoned and walker in poisoned:
                                poisoned.discard(walker)
                                vpn_arr[walker] = None
                                walk_of[walker] = None
                                free_list.append(walker)
                                if policied and own:
                                    my_busy.discard(walker)
                                break  # rare: let the general loop restart
                            dkey = done_walk.vpn | (d_asid << ASID_SHIFT)
                            registered = pts_by_vpn[dkey]
                            registered.remove(walker)
                            if not registered:
                                del pts_by_vpn[dkey]
                            released_n += 1
                            if done_walk is not prev_walk:
                                dset = tlb_sets[dkey & tlb_set_mask]
                                if not (
                                    dset
                                    and next(reversed(dset)) == dkey
                                    and dset[dkey] == done_walk.pfn
                                ):
                                    # Set-MRU same-PFN refill: state no-op.
                                    tlb_insert(
                                        done_walk.vpn, done_walk.pfn, d_asid
                                    )
                                prev_walk = done_walk
                            if dkey == tkey:
                                # Our own earlier walk retired: the run
                                # may flip to TLB hits (unless the
                                # policied fill dropped the entry).
                                vpn_arr[walker] = None
                                walk_of[walker] = None
                                free_list.append(walker)
                                if policied and own:
                                    my_busy.discard(walker)
                                if tkey in tlb_set:
                                    flip = True
                                my_walkers = pts_by_vpn.get(tkey)
                                break
                            if (
                                (idx < len(order) and order[idx][0] <= cycle)
                                or cycle >= horizon
                            ):
                                vpn_arr[walker] = None
                                walk_of[walker] = None
                                free_list.append(walker)
                                if policied and own:
                                    my_busy.discard(walker)
                                break  # coincident dues / horizon: general
                            if policied and my_quota is not None:
                                busy_n = len(my_busy) - 1 if own else len(my_busy)
                                if busy_n >= my_quota:
                                    # Work-conserving borrow check with
                                    # exactly one free walker.
                                    reserved_unmet = 0
                                    for other_quota, other_busy in others:
                                        shortfall = (
                                            other_quota - len(other_busy)
                                        )
                                        if shortfall > 0:
                                            reserved_unmet += shortfall
                                    if reserved_unmet >= 1:
                                        vpn_arr[walker] = None
                                        walk_of[walker] = None
                                        free_list.append(walker)
                                        if policied and own:
                                            my_busy.discard(walker)
                                        break  # blocked: general stall
                            # Redundant start on the just-freed walker.
                            ready = cycle + dur
                            walks_n += 1
                            levels_sum += levels
                            vpn_arr[walker] = vpn
                            walk_of[walker] = walk
                            completion_of[walker] = ready
                            if policied and not own:
                                my_busy.add(walker)
                            seq += 1
                            entry = (ready, seq, walker)
                            if order and ready < order[-1][0]:
                                insort(order, entry, idx)
                            else:
                                order_append(entry)
                            my_walkers.append(walker)
                            va = va_list[i]
                            size = size_list[i]
                            channel = (va >> 8) % n_channels
                            free_at = channel_free[channel]
                            start = ready if ready > free_at else free_at
                            finish = start + size / ch_bw
                            channel_free[channel] = finish
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += size
                            cycle += interval
                            i += 1
                        if flip:
                            break
                        continue
                    # Fully blocked at a fresh page: try to plan a whole
                    # calendar stretch (stall + head retire + redundant
                    # restart per transaction, across run boundaries) and
                    # retire it as one bucket.  Integral accumulators are
                    # required so the bucket's telescoped stall sums are
                    # reassociation-free (see ``core/calendar.py``).
                    if (
                        use_calendar
                        and horizon == inf
                        and i >= cal_skip
                        and my_walkers is None
                        and meta is not None
                        and vas_col is not None
                        and not poisoned
                        and cycle.is_integer()
                        and sc.is_integer()
                        and stall.is_integer()
                    ):
                        planned = calendar.plan_stretch(
                            order, idx, i, j, n, cycle, vpn, tkey, walk,
                            run_streamable, meta, rc, vas_col, sizes_col,
                            uniform_size, policied, my_quota,
                            work_conserving, my_busy, others,
                        )
                        if planned:
                            (
                                i, cycle, data_end, total_bytes, stall, sc,
                                seq, vpn, tkey, j, run_streamable, rc, walk,
                                levels, cal_m, cal_fresh_pages, cal_stalls,
                                cal_fresh_stalls,
                            ) = calendar.drain_stretch(
                                order, idx, i, cycle, data_end, total_bytes,
                                stall, sc, seq, prev_walk,
                            )
                            dur = levels * walk_latency
                            tlb_set = tlb_sets[tkey & tlb_set_mask]
                            my_walkers = pts_by_vpn.get(tkey)
                            run_vpn = vpn
                            run_end = j
                            stalls_n += cal_stalls - cal_fresh_stalls
                            walks_n += cal_m - cal_fresh_pages
                            fresh_stall_n += cal_fresh_stalls
                            fresh_walk_n += cal_fresh_pages
                            levels_sum += cal_m * levels
                            released_n += cal_m
                            cal_fails = 0
                            break
                        # Declines are pure overhead: skipping an attempt
                        # is always bit-identical (per-event fallback), so
                        # after a streak of failures stop planning for the
                        # rest of this burst.  Under quota regimes nearly
                        # every attempt declines (W > quota with a mixed
                        # window, or cross-tenant channel skew breaks the
                        # no-queueing hypothesis), and without the backoff
                        # the futile plans cost more than the calendar
                        # saves.
                        cal_fails += 1
                        cal_skip = n if cal_fails >= 6 else j
                    # Fully blocked: one stall attempt, FIFO retry point
                    # (the pool-wide earliest completion is the cursor
                    # head); a hard-partitioned tenant at quota waits for
                    # its own earliest walk instead.
                    if (
                        policied
                        and not work_conserving
                        and my_busy
                        and my_quota is not None
                        and len(my_busy) >= my_quota
                    ):
                        # simlint: disable=det-set-iter -- min() over completion cycles is order-independent: floats are totally ordered and ties yield the same value, so hash order cannot leak into timing
                        retry = min(completion_of[w] for w in my_busy)
                    else:
                        retry = order[idx][0] if idx < len(order) else inf
                    if my_walkers is None:
                        fresh_stall_n += 1  # the blocked probe missed PTS
                    else:
                        stalls_n += 1
                    sc += retry - cycle if retry > cycle else 0.0
                    stall += retry - cycle
                    cycle = retry
                if faulted or blocked or i >= n:
                    break
                if i >= j:
                    # Next page.
                    vpn = va_list[i] >> vpn_shift
                    tkey = vpn | asid_bits
                    tlb_set = tlb_sets[tkey & tlb_set_mask]
                    j, run_streamable, rc = run_bounds(
                        va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                    )
                    run_vpn = vpn
                    run_end = j
                    walk = None
                    my_walkers = pts_by_vpn.get(tkey)
                # else: flipped to TLB hits; the loop top re-dispatches.

            # Restore the live completion suffix (sorted == valid heap) and
            # flush deferred counters, exactly as the general loop.
            heap[:] = order[idx:]
            pool._seq = seq
            stats.stall_cycles = sc
            started = walks_n + fresh_walk_n
            if started:
                stats.requests += started
                pool_stats.walks += started
                pool_stats.level_accesses += levels_sum
            if started != released_n:
                pts._count += started - released_n
            if walks_n:
                stats.redundant_walk_requests += walks_n
                pool_stats.redundant_walks += walks_n
            probes = started + stalls_n + fresh_stall_n
            if probes:
                tlb.misses += probes
                pts.lookups += probes
                pts.hits += walks_n + stalls_n
            if stalls_n or fresh_stall_n:
                stats.stall_events += stalls_n + fresh_stall_n
            return (
                i, cycle, data_end, total_bytes, stall, faulted,
                rc, run_vpn, run_end, run_streamable,
            )

        self._np_runners[asid] = run
        return run

    def _no_prmb_entry(
        self,
        transactions: Sequence[Transaction],
        va_list: Sequence[int],
        size_list: Sequence[int],
        i: int,
        n: int,
        vpn: int,
        tkey: int,
        asid: int,
        cycle: float,
        data_end: float,
        total_bytes: int,
        stall: float,
        meta: Optional[Sequence[Tuple[int, bool]]],
        rc: int,
        run_vpn: int,
        run_end: int,
        run_streamable: bool,
    ) -> Tuple[int, float, float, int, float, int, int, int, bool, bool]:
        """Run-bounds memoization + :meth:`_no_prmb_run` dispatch.

        The single entry shared by the batched and contended paths (they
        must stay operation-identical for the parity contract, exactly
        like :func:`_run_bounds`): refresh the caller's memoized
        same-page run bounds, hand the run to the fused no-PRMB loop,
        and decide the fall-through.  Returns the updated ``(i, cycle,
        data_end, total_bytes, stall, rc, run_vpn, run_end,
        run_streamable, handled)``; ``handled`` is False when the caller
        must replay transaction ``i`` through its fully general
        reference step: a fault with no handler installed (the reference
        step raises it; with a handler, both fused loops take faults in
        place), or no progress was possible (e.g. a policy event
        horizon), so the reference step re-evaluates everything.
        """
        if run_vpn != vpn or i >= run_end:
            j, run_streamable, rc = _run_bounds(
                va_list, size_list, i, n, vpn, self.mmu._vpn_shift, meta, rc
            )
            run_vpn = vpn
            run_end = j
        else:
            j = run_end
        before = i
        pool = self.mmu.pool
        assert pool is not None  # batched entry is never reached in oracle mode
        if pool._no_path_cache:
            runner = self._np_runners.get(asid)
            if runner is None:
                runner = self._no_prmb_fifo_runner(asid)
            # Columnar streams feed the completion calendar's vectorized
            # planning; per-object streams simply run without stretches.
            vas_col = getattr(transactions, "vas", None)
            if vas_col is not None:
                sizes_col = getattr(transactions, "sizes", None)
                uniform_size = getattr(transactions, "uniform_size", None)
            else:
                sizes_col = None
                uniform_size = None
            (
                i, cycle, data_end, total_bytes, stall, faulted,
                rc, run_vpn, run_end, run_streamable,
            ) = runner(
                va_list, size_list, i, j, n, vpn, tkey, cycle, data_end,
                total_bytes, stall, meta, rc, run_streamable,
                self.fault_handler, vas_col, sizes_col, uniform_size,
            )
        else:
            i, cycle, data_end, total_bytes, stall, faulted = self._no_prmb_run(
                va_list, size_list, i, j, vpn, tkey, asid, cycle, data_end,
                total_bytes, stall,
            )
        tlb = self.mmu.tlb
        assert isinstance(tlb, TLB)
        handled = not faulted and (
            i > before or tkey in tlb._sets[tkey & tlb._set_mask]
        )
        return (
            i, cycle, data_end, total_bytes, stall,
            rc, run_vpn, run_end, run_streamable, handled,
        )

    # ------------------------------------------------------------------ #
    # contended batched path (non-trivial QoS share policies)            #
    # ------------------------------------------------------------------ #

    def _run_burst_contended(
        self, transactions: Sequence[Transaction], start_cycle: float, asid: int = 0
    ) -> BurstResult:
        """Same-page run batching under a non-trivial QoS share policy.

        Not all of :meth:`_run_burst_batched`'s deferral arguments
        survive quotas, so this path re-derives them per branch:

        * **Hit runs** never extend past a walk completion: a policied
          TLB fill selects victims from per-tenant LRU state, and in the
          corner where the run's tenant holds a single entry in the
          target set a deferred fill could evict the run page itself —
          so fills are retired exactly when the reference loop would,
          and a hit segment is bounded by the earliest in-flight
          completion.  Between two completions a resident page stays
          resident, so the segment is ``span`` identical lookups: one
          MRU bump, bulk counters, the reference's channel arithmetic.
        * **Merge runs** are bounded by this page's *own* earliest walk
          completion (which flips the run to TLB hits) and by the
          tenant's remaining PRMB-quota room.  Other pages' retirements
          commute exactly as on the full-share path — they touch neither
          this page's walkers nor the merge arithmetic — and the quota
          room they release is recovered at the segment break, where the
          next leading reference step retires the backlog at the same
          cycle the reference loop would admit the freed capacity.
        * Both segment kinds additionally respect the policy's
          self-reported :meth:`~repro.core.qos.SharePolicy.next_event_for`
          horizon, so a future time-varying policy is consulted at or
          before every cycle its answers may change.

        Boundary transactions (the last couple before an event,
        quota-exhausted merges, walk starts, stalls) fall back to one
        fully general reference step each, keeping this path
        bit-identical to :meth:`_run_burst_reference` under every share
        policy (``tests/test_fastpath_parity.py``).
        """
        mmu = self.mmu
        memory = self.memory
        vpn_shift = mmu._vpn_shift
        interval = self.issue_interval
        fault_handler = self.fault_handler
        translate = mmu.translate
        process = mmu.process_completions
        stats = mmu.stats
        tlb = mmu.tlb
        tlb_latency = mmu._tlb_latency
        pool = mmu.pool
        pts = mmu.pts
        # Batched paths only run on translated (non-oracle) single-level
        # TLB configurations; make the invariant explicit for narrowing.
        assert isinstance(tlb, TLB) and pool is not None and pts is not None
        heap = pool.heap
        pts_by_vpn = pts._by_vpn
        buffers = pool._buffers
        completion_of = pool._completion_of
        prmb_capacity = mmu._prmb_slots
        prmb_occ = pool._prmb_occ
        prmb_total = pool.n_walkers * pool.prmb_slots
        policy = mmu.share_policy
        policy_next_event = policy.next_event_for
        prmb_quota_of = policy.prmb_quota
        inf = float("inf")

        mem_cfg = memory.config
        channel_free = memory._channel_free
        n_channels = mem_cfg.channels
        ch_bw = mem_cfg.channel_bandwidth
        mem_latency = mem_cfg.access_latency_cycles
        s_cycles = 256 / ch_bw
        stream_ok = n_channels * interval >= s_cycles
        merge_stream_ok = n_channels >= s_cycles
        asid_bits = asid << ASID_SHIFT

        tlb_sets = tlb._sets
        tlb_set_mask = tlb._set_mask

        cycle = start_cycle
        data_end = start_cycle
        stall = 0.0
        total_bytes = 0
        n = len(transactions)

        # Column projections (see _run_burst_batched).
        va_list = getattr(transactions, "va_list", None)
        if va_list is not None:
            size_list = transactions.size_list
        else:
            va_list = [t[0] for t in transactions]
            size_list = [t[1] for t in transactions]

        # DMA-provided run metadata (see _run_burst_batched).
        meta = getattr(transactions, "runs", None)
        if meta is not None and (
            not meta
            or getattr(transactions, "page_size", 0) != 1 << vpn_shift
        ):
            meta = None
        rc = 0

        # Memoized same-page run bounds (re-entered per segment break).
        run_vpn = -1
        run_end = 0
        run_streamable = False

        i = 0
        while i < n:
            va = va_list[i]
            size = size_list[i]
            vpn = va >> vpn_shift
            tkey = vpn | asid_bits
            if not prmb_capacity and tkey not in tlb_sets[tkey & tlb_set_mask]:
                # PRMB-less leading miss: the fused no-PRMB run handles
                # the page's fresh walk and everything after it directly,
                # bypassing the translate dispatch.
                (
                    i, cycle, data_end, total_bytes, stall,
                    rc, run_vpn, run_end, run_streamable, handled,
                ) = self._no_prmb_entry(
                    transactions, va_list, size_list, i, n, vpn, tkey, asid,
                    cycle, data_end, total_bytes, stall, meta, rc, run_vpn,
                    run_end, run_streamable,
                )
                if handled:
                    continue
                # The whole-burst runner may have crossed page boundaries
                # before blocking (or faulting with no handler), so
                # transaction ``i`` is not necessarily the one this
                # iteration derived its locals from: re-derive them before
                # the reference-step replay.
                va = va_list[i]
                size = size_list[i]
                vpn = va >> vpn_shift
                tkey = vpn | asid_bits
            # -- reference step for the segment's leading transaction ----
            if heap and heap[0][0] <= cycle:
                process(cycle)
            while True:
                try:
                    ready, retry = translate(vpn, cycle, asid)
                except TranslationFault:
                    if fault_handler is None:
                        raise
                    resolved = fault_handler(vpn, cycle, asid)
                    run_vpn = -1
                    run_end = 0
                    stall += resolved - cycle
                    cycle = resolved
                    process(cycle)
                    continue
                if ready is None:
                    stall += retry - cycle
                    cycle = retry
                    process(cycle)
                    continue
                break
            channel = (va >> 8) % n_channels
            free_at = channel_free[channel]
            start = ready if ready > free_at else free_at
            finish = start + size / ch_bw
            channel_free[channel] = finish
            done = finish + mem_latency
            if done > data_end:
                data_end = done
            total_bytes += size
            cycle += interval
            i += 1

            # -- bulk continuation between interaction points ------------
            while i < n and va_list[i] >> vpn_shift == vpn:
                if tkey in tlb_sets[tkey & tlb_set_mask]:
                    # Bulk TLB hits, bounded by the next walk completion:
                    # fills are retired exactly where the reference loop
                    # would retire them (a deferred policied fill could
                    # in principle evict this very page).  Within the
                    # segment no fill can land, so every transaction is a
                    # plain resident lookup: one MRU bump and ``span``
                    # hits, with the reference's channel arithmetic.
                    h = heap[0][0] if heap else inf
                    if h <= cycle:
                        process(cycle)
                        continue
                    horizon = policy_next_event(asid, cycle)
                    if horizon < h:
                        h = horizon
                    # Conservative count of transactions that issue
                    # strictly before the horizon.
                    # simlint: disable=cyc-true-div -- horizon/interval live in the float cycle domain; int() truncation is the reference semantics and // floors differently at float boundaries, breaking bit-identity
                    t = int((h - cycle) / interval) - 1 if h != inf else n
                    if t <= 0:
                        # Horizon-boundary transaction: exactly one
                        # reference hit, inlined (no completion is due at
                        # *this* cycle — ``h > cycle`` — so the reference
                        # step would be a bare lookup; dense completion
                        # traffic would otherwise push every such hit
                        # through the full translate dispatch).
                        stats.requests += 1
                        stats.tlb_hits += 1
                        tlb.lookup(vpn, asid)
                        ready = cycle + tlb_latency
                        va = va_list[i]
                        size = size_list[i]
                        channel = (va >> 8) % n_channels
                        free_at = channel_free[channel]
                        start = ready if ready > free_at else free_at
                        finish = start + size / ch_bw
                        channel_free[channel] = finish
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += size
                        cycle += interval
                        i += 1
                        continue
                    if run_vpn != vpn or i >= run_end:
                        j, run_streamable, rc = _run_bounds(
                            va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                        )
                        run_vpn = vpn
                        run_end = j
                    else:
                        j = run_end
                    span = j - i
                    if span > t:
                        span = t
                    closed = False
                    va0 = va_list[i]
                    if (
                        span >= 8
                        and run_streamable
                        and (span <= n_channels or stream_ok)
                    ):
                        base_ch = va0 >> 8
                        lim = span if span < n_channels else n_channels
                        ok = max(channel_free) <= cycle + tlb_latency
                        if not ok:
                            probe = cycle
                            ok = True
                            for k in range(lim):
                                if channel_free[(base_ch + k) % n_channels] > (
                                    probe + tlb_latency
                                ):
                                    ok = False
                                    break
                                probe += interval
                        if ok:
                            closed = True
                            for _ in range(span - lim):
                                cycle += interval
                            for k in range(span - lim, span):
                                ready = cycle + tlb_latency
                                finish = ready + s_cycles
                                channel_free[(base_ch + k) % n_channels] = finish
                                cycle += interval
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += span * 256
                    if not closed:
                        for va, size in zip(
                            va_list[i:i + span], size_list[i:i + span]
                        ):
                            ready = cycle + tlb_latency
                            channel = (va >> 8) % n_channels
                            free_at = channel_free[channel]
                            start = ready if ready > free_at else free_at
                            finish = start + size / ch_bw
                            channel_free[channel] = finish
                            done = finish + mem_latency
                            if done > data_end:
                                data_end = done
                            total_bytes += size
                            cycle += interval
                    stats.requests += span
                    stats.tlb_hits += span
                    tlb.touch(vpn, span, asid)
                    i += span
                    continue

                if not prmb_capacity:
                    # Delegates to the fused FIFO runner (and its
                    # calendar stretches); the PRMB arm below has no FIFO
                    # stall/retire chain to batch.
                    (
                        i, cycle, data_end, total_bytes, stall,
                        rc, run_vpn, run_end, run_streamable, handled,
                    ) = self._no_prmb_entry(
                        transactions, va_list, size_list, i, n, vpn, tkey,
                        asid, cycle, data_end, total_bytes, stall, meta,
                        rc, run_vpn, run_end, run_streamable,
                    )
                    if not handled:
                        break  # the reference step raises / re-evaluates
                    continue  # re-dispatch: TLB hits, or a new page
                walkers = pts_by_vpn.get(tkey)
                if not walkers:
                    break
                # Bulk PRMB merges.  Like the full-share path, a merge
                # segment only breaks when one of *this page's* walks
                # completes (flipping the run to TLB hits) — other pages'
                # retirements commute and are deferred to the next
                # reference step — but it is additionally bounded by the
                # tenant's merge-quota room, which only shrinks inside a
                # segment (the drains that would grow it are themselves
                # completions the next leading step retires first).
                if len(walkers) == 1:
                    h_mine = completion_of[walkers[0]]
                else:
                    h_mine = min(completion_of[w] for w in walkers)
                if cycle >= h_mine:
                    # This page's own walk completes now: retire the
                    # backlog and re-dispatch (the run flips to TLB hits).
                    process(cycle)
                    continue
                horizon = policy_next_event(asid, cycle)
                if horizon < h_mine:
                    h_mine = horizon
                # Merge-quota room: how many merges this tenant can park
                # before its PRMB reservation binds — the same
                # ``prmb_quota`` the per-event ``WalkerPool.can_merge``
                # check reads.
                quota = prmb_quota_of(asid, prmb_total)
                if quota is None:
                    room = n
                else:
                    room = quota - prmb_occ.get(asid, 0)
                    if room <= 0:
                        break
                if run_vpn != vpn or i >= run_end:
                    j, run_streamable, rc = _run_bounds(
                        va_list, size_list, i, n, vpn, vpn_shift, meta, rc
                    )
                    run_vpn = vpn
                    run_end = j
                else:
                    j = run_end
                merged_total = 0
                full_skips = 0
                for walker in walkers:
                    buf = buffers[walker]
                    pos = buf._occupied
                    cap = buf.slots
                    if pos >= cap:
                        full_skips += 1
                        continue
                    comp = completion_of[walker]
                    room_w = cap - pos
                    avail = j - i
                    span = avail if avail < room_w else room_w
                    if room < span:
                        span = room
                    # simlint: disable=cyc-true-div -- horizon/interval live in the float cycle domain; int() truncation is the reference semantics and // floors differently at float boundaries, breaking bit-identity
                    t = int((h_mine - cycle) / interval) - 1
                    if t < span:
                        span = t
                    if span > 0:
                        closed = False
                        va0 = va_list[i]
                        if (
                            span >= 8
                            and run_streamable
                            and (span <= n_channels or merge_stream_ok)
                        ):
                            base_ch = va0 >> 8
                            lim = span if span < n_channels else n_channels
                            ok = max(channel_free) <= comp + (pos + 1)
                            if not ok:
                                for k in range(lim):
                                    if channel_free[(base_ch + k) % n_channels] > (
                                        comp + (pos + 1 + k)
                                    ):
                                        ok = False
                                        break
                                else:
                                    ok = True
                            if ok:
                                closed = True
                                for _ in range(span):
                                    cycle += interval
                                for k in range(span - lim, span):
                                    ready = comp + (pos + 1 + k)
                                    finish = ready + s_cycles
                                    channel_free[
                                        (base_ch + k) % n_channels
                                    ] = finish
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += span * 256
                                pos += span
                        if not closed:
                            for va, size in zip(
                                va_list[i:i + span], size_list[i:i + span]
                            ):
                                pos += 1
                                ready = comp + pos
                                channel = (va >> 8) % n_channels
                                free_at = channel_free[channel]
                                start = ready if ready > free_at else free_at
                                finish = start + size / ch_bw
                                channel_free[channel] = finish
                                done = finish + mem_latency
                                if done > data_end:
                                    data_end = done
                                total_bytes += size
                                cycle += interval
                        k = i + span
                    else:
                        k = i
                    # Residual guarded loop: finishes whatever the bulk
                    # span left over (the conservative trip count stops up
                    # to one interval short of the completion horizon),
                    # bounded per transaction by the quota room.
                    while k < j and pos < cap and cycle < h_mine and k - i < room:
                        va = va_list[k]
                        size = size_list[k]
                        pos += 1
                        ready = comp + pos
                        channel = (va >> 8) % n_channels
                        free_at = channel_free[channel]
                        start = ready if ready > free_at else free_at
                        finish = start + size / ch_bw
                        channel_free[channel] = finish
                        done = finish + mem_latency
                        if done > data_end:
                            data_end = done
                        total_bytes += size
                        cycle += interval
                        k += 1
                    count = k - i
                    if count:
                        buf._occupied = pos
                        mb_stats = buf.stats
                        mb_stats.merges += count
                        if pos > mb_stats.peak_occupancy:
                            mb_stats.peak_occupancy = pos
                        # Each merged request first probed every already-
                        # full walker ahead of this one in the PTS list.
                        mb_stats.rejects_full += full_skips * count
                        merged_total += count
                        room -= count
                        i = k
                    if i >= j or cycle >= h_mine or room <= 0:
                        break
                    full_skips += 1  # this walker is now truly full
                if merged_total:
                    stats.requests += merged_total
                    stats.merges += merged_total
                    # Each merged request was one TLB miss + one PTS hit.
                    tlb.misses += merged_total
                    pts.lookups += merged_total
                    pts.hits += merged_total
                    prmb_occ[asid] = prmb_occ.get(asid, 0) + merged_total
                    continue
                # Nothing merged (walkers full / quota / horizon): the
                # next transaction takes the full reference step.
                break

        # Catch retirements deferred past merge segments up to the
        # reference path's end-of-burst point (the final transaction's
        # issue cycle) — see the matching catch-up in _run_burst_batched.
        if n:
            last_cycle = cycle - interval
            if heap and heap[0][0] <= last_cycle:
                process(last_cycle)

        memory.total_bytes += total_bytes
        memory.total_accesses += n
        return BurstResult(
            start_cycle=start_cycle,
            issue_end_cycle=cycle,
            data_end_cycle=data_end,
            transactions=n,
            bytes_moved=total_bytes,
            stall_cycles=stall,
        )

    # ------------------------------------------------------------------ #
    # multi-burst driver                                                 #
    # ------------------------------------------------------------------ #

    def run_bursts(
        self,
        bursts: Sequence[Sequence[Transaction]],
        start_cycle: float,
        asid: int = 0,
    ) -> Tuple[List[BurstResult], float]:
        """Run several back-to-back bursts (e.g. a tile's IA then W fetch).

        Burst *n+1*'s translations start as soon as burst *n*'s last
        translation issued (the DMA does not interleave IA and W but need
        not wait for data return); the combined memory phase ends when all
        data has returned.
        """
        results: List[BurstResult] = []
        cycle = start_cycle
        data_end = start_cycle
        for burst in bursts:
            result = self.run_burst(burst, cycle, asid)
            results.append(result)
            cycle = result.issue_end_cycle
            if result.data_end_cycle > data_end:
                data_end = result.data_end_cycle
        return results, data_end

    def timeline_series(self) -> List[Tuple[int, int]]:
        """Sorted ``(window_start_cycle, request_count)`` pairs (Figure 7)."""
        window = self.timeline_window or 1
        return [(idx * window, count) for idx, count in sorted(self.timeline.items())]
