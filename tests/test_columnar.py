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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TranslationEngine
from repro.core.mmu import (
    ENGINE_MODES,
    MMU,
    MMUConfig,
    baseline_iommu_config,
    neummu_config,
)
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


def run_mode(mode, config, qos, schedule, page_size, evict=False):
    """One full multi-ASID run in ``mode``; returns comparable state.

    With ``evict`` the fault handler also unmaps and shoots down one
    other mapped page per fault, preferring a page with a walk in
    flight, so faults poison in-flight walks mid-burst.
    """
    cfg = replace(config, engine_mode=mode, qos=qos, page_size=page_size)
    mmu = MMU(cfg, None)
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
    assert engine.batched == (mode != "reference")

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
    results = []
    for i, (asid, burst) in enumerate(schedule):
        txs = materialize(burst)
        if mode == "columnar":
            txs = ColumnarTransactionStream.from_pairs(txs, page_size)
        results.append(engine.run_burst(txs, float(i * 7), asid))
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
