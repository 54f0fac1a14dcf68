"""Differential fuzzing: columnar engine mode vs the per-object reference.

The columnar path (``MMUConfig.engine_mode="columnar"``) threads a
structure-of-arrays transaction representation from the DMA through
TLB/PRMB/engine; the object path (``engine_mode="reference"``) is the
bit-identical golden reference.  Hypothesis drives random bursts spanning
multiple ASIDs, page sizes, QoS share policies and injected translation
faults through both modes and requires identical service order and
statistics — the same ``BurstResult`` sequences, ``RunSummary``, channel
state, TLB contents *in LRU order*, PTS counters and PRMB statistics.

Two layers are fuzzed:

* representation: :class:`ColumnarTransactionStream` must project the
  exact ``(va, size)`` tuples and run metadata the scalar DMA loop
  derives, for arbitrary streams;
* engine: full translation runs must retire bit-identically whether the
  engine consumes columns in columnar mode or objects in reference mode.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import TranslationEngine
from repro.core.mmu import (
    ENGINE_MODES,
    MMU,
    MMUConfig,
    baseline_iommu_config,
    neummu_config,
)
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES, WeightedShare
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.memory.dram import MainMemory
from repro.memory.page_table import PageTable
from repro.npu.dma import ColumnarTransactionStream, TransactionStream
from repro.npu.simulator import NPUSimulator
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer

BASE = 0x7F00_0000_0000
#: 4 KB pages mapped per context; VAs beyond the span fault.
N_PAGES = 96
#: Disjoint never-mapped region used for fault injection — far enough
#: from ``BASE`` that no 2 MB VPN straddles mapped and unmapped space.
FAULT_BASE = BASE + (1 << 40)

#: Design points spanning the engine's dispatch paths: the fused no-PRMB
#: runner (baseline IOMMU), the merge-heavy NeuMMU point, and a
#: walker/slot-starved point that exercises stall recycling.
FUZZ_CONFIGS = [
    baseline_iommu_config(),
    neummu_config(),
    MMUConfig(name="w2s4", n_walkers=2, prmb_slots=4),
]

#: Fault-handling paths: NeuMMU's fused PRMB dispatch, the baseline
#: IOMMU's fused FIFO runner, and the PRMB-less loop used when a path
#: cache is on.
FAULT_CONFIGS = [
    neummu_config(),
    baseline_iommu_config(),
    MMUConfig(name="iommu_tpreg", n_walkers=4, path_cache="tpreg"),
]


def build_table(first_pfn=10):
    table = PageTable()
    table.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

#: One transaction: (page index, 256 B slot, size).  Negative page index
#: selects an unmapped fault page in the disjoint FAULT_BASE region.
_tx = st.tuples(
    st.one_of(
        st.integers(0, N_PAGES - 1),
        st.integers(-8, -1),
    ),
    st.integers(0, (PAGE_SIZE_4K // 256) - 2),
    st.sampled_from([64, 128, 256, 256, 256]),
)

_burst = st.lists(_tx, min_size=1, max_size=60)

#: Schedules interleave up to three address spaces (ASIDs 0, 5, 9).
_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _burst), min_size=1, max_size=4
)

_qos = st.sampled_from(["full_share", "static_partition", "weighted"])

#: Saturated miss storm: (start page, page count, txns per page).  The
#: 1-per-page arms chain fresh pages that keep every walker in flight, so
#: the blocked issue port runs the FIFO stall/retire/restart chain; the
#: 16- and 200-per-page arms hold hit runs open while walks come due.
_storm_segment = st.tuples(
    st.integers(0, N_PAGES - 48),
    st.integers(1, 48),
    st.sampled_from([1, 1, 1, 2, 16, 200]),
)


def _storm_triples(chunks):
    """Storm chunks -> (page, slot, size) triples; an int is a fault page."""
    triples = []
    for chunk in chunks:
        if isinstance(chunk, int):
            triples.append((-chunk, 0, 256))
            continue
        start, pages, per_page = chunk
        # Cap a chunk near 600 transactions: the reference leg is the
        # per-object path, and long hit runs need only a few pages.
        pages = min(pages, max(1, 600 // per_page))
        for p in range(start, start + pages):
            triples.extend((p, (p + k) % 15, 256) for k in range(per_page))
    return triples


_storm_burst = st.lists(
    st.one_of(_storm_segment, st.integers(1, 6)), min_size=1, max_size=6
).map(_storm_triples)

_storm_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _storm_burst),
    min_size=1,
    max_size=4,
)


class PrmbQuotaOneShare(WeightedShare):
    """Weighted share that caps only the PRMB: one parked merge per tenant,
    while TLB and walker quotas keep the weighted answers."""

    def prmb_quota(self, asid, total_slots):
        return 1


class PeriodicEventShare(WeightedShare):
    """Weighted share with a finite event horizon every ``period`` cycles
    but constant quotas: bulk segments must stop and re-consult the
    policy at each boundary."""

    def __init__(self, period=4096.0, weights=None):
        super().__init__(weights)
        self._period = float(period)

    def next_event_for(self, asid, cycle):
        return (cycle // self._period + 1.0) * self._period


def materialize(burst):
    """(page, slot, size) triples -> (va, size) transactions."""
    txs = []
    for page, slot, size in burst:
        if page < 0:
            base = FAULT_BASE + (-page) * PAGE_SIZE_2M
        else:
            base = BASE + page * PAGE_SIZE_4K
        txs.append((base + slot * 256, size))
    return txs


def golden_runs(txs, page_size):
    """The scalar DMA loop's run metadata, re-derived independently."""
    runs = []
    mask = ~(page_size - 1)
    run_page, streamable, prev_end = -1, True, -1
    for idx, (va, size) in enumerate(txs):
        page = va & mask
        if page != run_page:
            if run_page >= 0:
                runs.append((idx, streamable))
            run_page, streamable = page, True
        elif va != prev_end:
            streamable = False
        if size != 256:
            streamable = False
        prev_end = va + size
    if run_page >= 0:
        runs.append((len(txs), streamable))
    return runs


# --------------------------------------------------------------------- #
# representation parity
# --------------------------------------------------------------------- #


class TestColumnarRepresentation:
    @given(_burst, st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M]))
    @settings(max_examples=60, deadline=None)
    def test_columns_project_golden_tuples_and_runs(self, burst, page_size):
        txs = materialize(burst)
        stream = ColumnarTransactionStream.from_pairs(txs, page_size)
        assert list(stream) == txs
        assert len(stream) == len(txs)
        assert stream[len(txs) // 2] == txs[len(txs) // 2]
        assert stream[1:] == txs[1:]
        assert stream.runs == golden_runs(txs, page_size)

    @given(_burst)
    @settings(max_examples=30, deadline=None)
    def test_derived_columns_match_scalars(self, burst):
        txs = materialize(burst)
        stream = ColumnarTransactionStream.from_pairs(txs, PAGE_SIZE_4K)
        assert stream.offsets().tolist() == [
            va & (PAGE_SIZE_4K - 1) for va, _ in txs
        ]
        starts = [0] + [end for end, _ in stream.runs[:-1]]
        assert stream.run_vpns().tolist() == [
            txs[s][0] >> 12 for s in starts
        ]

    def test_uniform_size_collapses_column(self):
        txs = [(BASE + k * 256, 256) for k in range(32)]
        stream = ColumnarTransactionStream.from_pairs(txs)
        assert stream.sizes is None and stream.uniform_size == 256
        assert stream.size_list == [256] * 32
        mixed = ColumnarTransactionStream.from_pairs(txs + [(BASE, 64)])
        assert mixed.sizes is not None and mixed.uniform_size == 0


# --------------------------------------------------------------------- #
# engine differential fuzzing
# --------------------------------------------------------------------- #


def run_mode(
    mode, config, qos, schedule, page_size, evict=False, epoch_ops=None,
    policy_factory=None,
):
    """One full multi-ASID run in ``mode``; returns comparable state.

    With ``evict`` the fault handler also unmaps and shoots down one
    other mapped page per fault, preferring a page with a walk in
    flight, so faults poison in-flight walks mid-burst.  ``epoch_ops``
    maps a schedule index to a mutation applied after that burst:
    ``("weight", asid, w)`` re-weights a tenant (a ``SharePolicy.version``
    bump), ``("remove", asid)`` destroys its context (poisoning its
    in-flight walks; later bursts of that ASID are skipped).
    ``policy_factory`` builds a fresh custom share policy per run.
    """
    cfg = replace(config, engine_mode=mode, qos=qos, page_size=page_size)
    policy = policy_factory() if policy_factory is not None else None
    mmu = MMU(cfg, None, share_policy=policy)
    tables = {
        0: build_table(first_pfn=10),
        5: build_table(first_pfn=500_000),
        9: build_table(first_pfn=900_000),
    }
    mmu.register_context(0, tables[0], weight=2.0)
    mmu.register_context(5, tables[5], weight=1.0)
    mmu.register_context(9, tables[9], weight=1.5)
    memory = MainMemory()
    engine = TranslationEngine(mmu, memory)
    assert engine._batchable() == (mode != "reference")

    page_bits = page_size.bit_length() - 1

    def demand_map(vpn, cycle, asid):
        # Deterministic demand-paging stand-in: map the faulting page at
        # a fixed cost so the burst continues identically in both modes.
        tables[asid].map_range(
            vpn << page_bits, page_size,
            first_pfn=2_000_000 + (vpn & 0xFFFF) * 512 + asid,
        )
        # Shoot down the negative-result caches so the retry resolves
        # (mirrors LocalMemoryTier.handle_fault).
        mmu.shootdown(vpn, asid)
        if evict:
            evict_one(vpn, asid)
        return cycle + 2500.0

    def evict_one(vpn, asid):
        # Unmap + shootdown, as LocalMemoryTier's budget eviction does,
        # but aimed at in-flight pages (the tier itself skips those).
        first = (BASE >> page_bits) + vpn % N_PAGES
        candidates = [
            c for c in range(first, first + N_PAGES)
            if c != vpn and tables[asid].is_mapped(c << page_bits)
        ]
        in_flight = [c for c in candidates if mmu.pts.peek(c, asid)]
        victims = in_flight or candidates
        if victims:
            tables[asid].unmap_page(victims[0] << page_bits, page_size)
            mmu.shootdown(victims[0], asid)

    engine.fault_handler = demand_map
    removed = set()
    results = []
    for i, (asid, burst) in enumerate(schedule):
        if asid not in removed:
            txs = materialize(burst)
            if mode == "columnar":
                txs = ColumnarTransactionStream.from_pairs(txs, page_size)
            results.append(engine.run_burst(txs, float(i * 7), asid))
        op = (epoch_ops or {}).get(i)
        if op and op[0] == "weight":
            mmu.share_policy.set_weight(op[1], op[2])
        elif op:
            mmu.destroy_context(op[1])
            removed.add(op[1])
    mmu.drain()
    state = {
        "results": results,
        "summary": mmu.summary(),
        "channels": tuple(memory._channel_free),
        "mem": (memory.total_bytes, memory.total_accesses),
    }
    if mmu.pool is not None:
        state["prmb"] = dict(mmu.pool.prmb_stats.__dict__)
        state["pts"] = (mmu.pts.lookups, mmu.pts.hits, mmu.pts.in_flight)
        # Items in order capture the exact service/insertion sequence.
        state["tlb_sets"] = [list(s.items()) for s in mmu.tlb._sets]
        state["occupancy"] = dict(mmu.tlb._asid_occupancy)
    return state


class TestEngineDifferential:
    @pytest.mark.parametrize(
        "config", FUZZ_CONFIGS, ids=lambda c: c.name
    )
    @given(schedule=_schedule, qos=_qos)
    @settings(max_examples=25, deadline=None)
    def test_columnar_matches_reference(self, config, schedule, qos):
        columnar = run_mode("columnar", config, qos, schedule, PAGE_SIZE_4K)
        reference = run_mode("reference", config, qos, schedule, PAGE_SIZE_4K)
        assert columnar == reference

    @given(schedule=_schedule)
    @settings(max_examples=15, deadline=None)
    def test_large_pages_match(self, schedule):
        config = baseline_iommu_config()
        columnar = run_mode(
            "columnar", config, "weighted", schedule, PAGE_SIZE_2M
        )
        reference = run_mode(
            "reference", config, "weighted", schedule, PAGE_SIZE_2M
        )
        assert columnar == reference

    @given(_burst)
    @settings(max_examples=20, deadline=None)
    def test_faults_counted_identically(self, burst):
        """Injected faults retire with the same count and service order,
        on the fused PRMB dispatch and on both PRMB-less runners (which
        take faults in place), with and without fault-time evictions."""
        schedule = [(0, burst)]
        n_faulting = sum(1 for page, _, _ in burst if page < 0)
        for config in FAULT_CONFIGS:
            for evict in (False, True):
                columnar = run_mode(
                    "columnar", config, "full_share", schedule,
                    PAGE_SIZE_4K, evict,
                )
                reference = run_mode(
                    "reference", config, "full_share", schedule,
                    PAGE_SIZE_4K, evict,
                )
                assert columnar == reference, (config.name, evict)
                if n_faulting:
                    assert columnar["summary"].faults > 0

    @pytest.mark.parametrize(
        "config", FUZZ_CONFIGS, ids=lambda c: c.name
    )
    @given(schedule=_storm_schedule, qos=_qos)
    @settings(max_examples=15, deadline=None)
    def test_miss_storms_match(self, config, schedule, qos):
        """Saturated fresh-page storms with interleaved hit runs and
        mid-storm faults: the calendar stretches and the quota-regime
        stall/retire chains must retire bit-identically."""
        columnar = run_mode("columnar", config, qos, schedule, PAGE_SIZE_4K)
        reference = run_mode("reference", config, qos, schedule, PAGE_SIZE_4K)
        assert columnar == reference

    @given(schedule=_storm_schedule, qos=_qos)
    @settings(max_examples=10, deadline=None)
    def test_epoch_bumps(self, schedule, qos):
        """Re-weight ASID 5 after the first burst and remove ASID 9 after
        the second: quota memos must follow the version bump, and the
        poisoned in-flight walks must retire without filling the TLB."""
        ops = {0: ("weight", 5, 3.0), 1: ("remove", 9)}
        for config in (baseline_iommu_config(), FUZZ_CONFIGS[2]):
            columnar = run_mode(
                "columnar", config, qos, schedule, PAGE_SIZE_4K,
                epoch_ops=ops,
            )
            reference = run_mode(
                "reference", config, qos, schedule, PAGE_SIZE_4K,
                epoch_ops=ops,
            )
            assert columnar == reference, config.name

    @pytest.mark.parametrize(
        "factory", [PrmbQuotaOneShare, PeriodicEventShare],
        ids=["prmb_quota_only", "periodic_event"],
    )
    @pytest.mark.parametrize(
        "config", FUZZ_CONFIGS, ids=lambda c: c.name
    )
    @given(schedule=_storm_schedule)
    # Three sub-page transactions to one page: under PrmbQuotaOneShare
    # only the second may merge, in the columnar bulk-merge segment as in
    # the per-event ``WalkerPool.can_merge`` check.
    @example(schedule=[(0, [(0, 0, 64), (0, 1, 64), (0, 2, 64)])])
    @settings(max_examples=10, deadline=None)
    def test_custom_policies_match(self, factory, config, schedule):
        """Custom policies reach the quota and horizon checks the built-in
        ones never differentiate: a PRMB-only cap and a finite event
        horizon with constant quotas."""
        columnar = run_mode(
            "columnar", config, "weighted", schedule, PAGE_SIZE_4K,
            policy_factory=factory,
        )
        reference = run_mode(
            "reference", config, "weighted", schedule, PAGE_SIZE_4K,
            policy_factory=factory,
        )
        assert columnar == reference

    def test_faulting_iommu_burst_skips_translate(self):
        """The fused FIFO runner handles faults itself: a faulting
        baseline-IOMMU burst never dispatches through MMU.translate."""
        cfg = replace(baseline_iommu_config(), engine_mode="columnar")
        table = build_table()
        mmu = MMU(cfg, table)
        engine = TranslationEngine(mmu, MainMemory())
        faults = []

        def demand_map(vpn, cycle, asid):
            faults.append(vpn)
            table.map_range(vpn << 12, PAGE_SIZE_4K, first_pfn=2_000_000 + len(faults))
            mmu.shootdown(vpn, asid)
            return cycle + 2500.0

        engine.fault_handler = demand_map
        calls = []
        translate = mmu.translate

        def spy(*args):
            calls.append(args)
            return translate(*args)

        mmu.translate = spy
        burst = [(p, s, 256) for p in (0, -1, 1, -2, -3, 2) for s in range(8)]
        txs = ColumnarTransactionStream.from_pairs(materialize(burst), PAGE_SIZE_4K)
        engine.run_burst(txs, 0.0)
        assert len(faults) == 3 and mmu.stats.faults == 3
        assert calls == []


# --------------------------------------------------------------------- #
# multi-tenant: share policy x arbitration, columnar vs reference
# --------------------------------------------------------------------- #


def _tenant_cell(qos, arbitration, mode):
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    return run_multi_tenant(
        DenseWorkloadFactory("RNN-2", 1),
        replace(baseline_iommu_config(), engine_mode=mode),
        2,
        arbitration=arbitration,
        qos=qos,
        weights=(2.0, 1.0),
    )


class TestTenantCombos:
    def test_contended_cell_identical(self):
        """Fast tier: the deepest quota regime on the baseline IOMMU."""
        columnar = _tenant_cell("static_partition", "round_robin", "columnar")
        reference = _tenant_cell(
            "static_partition", "round_robin", "reference"
        )
        assert columnar == reference

    @pytest.mark.slow
    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("arbitration", ARBITRATION_POLICIES)
    def test_all_nine_combos_identical(self, qos, arbitration):
        columnar = _tenant_cell(qos, arbitration, "columnar")
        reference = _tenant_cell(qos, arbitration, "reference")
        assert columnar == reference


# --------------------------------------------------------------------- #
# full-pipeline mode parity
# --------------------------------------------------------------------- #


class TestPipelineModes:
    def test_engine_mode_validation(self):
        assert set(ENGINE_MODES) == {"columnar", "reference"}
        with pytest.raises(ValueError):
            MMUConfig(name="bad", engine_mode="rowwise")

    @pytest.mark.parametrize("base", [baseline_iommu_config, neummu_config])
    def test_simulator_modes_bit_identical(self, base):
        """engine_mode only changes the data path, never any figure."""
        workload = Workload(
            name="mode_fc",
            batch=1,
            layers=(
                DenseLayer("fc1", 1, 2048, 1024),
                DenseLayer("fc2", 1, 1024, 512),
            ),
        )
        results = {}
        for mode in ENGINE_MODES:
            sim = NPUSimulator(workload, replace(base(), engine_mode=mode))
            assert sim.dma.emit_columns == (mode == "columnar")
            results[mode] = sim.run()
        ref, col = results["reference"], results["columnar"]
        assert col.total_cycles == ref.total_cycles
        assert col.mmu_summary == ref.mmu_summary
        assert [l.cycles for l in col.layers] == [l.cycles for l in ref.layers]

    def test_columnar_dma_emits_columns(self):
        workload = Workload(
            name="col_fc",
            batch=1,
            layers=(DenseLayer("fc", 1, 512, 256),),
        )
        sim = NPUSimulator(workload, neummu_config())
        step = sim._schedules[0].steps[0]
        stream = sim.dma.transactions(step.fetches[0])
        assert isinstance(stream, ColumnarTransactionStream)
        obj = TransactionStream(stream.page_size)
        obj.extend(iter(stream))
        assert list(obj) == list(stream)
