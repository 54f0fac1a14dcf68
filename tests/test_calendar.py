"""Differential fuzz: walker-completion calendar vs the per-event heap.

The batched completion calendar (:mod:`repro.core.calendar`) retires
whole saturated stretches of the fused no-PRMB runner as one planned
bucket; ``NEUMMU_CALENDAR=0`` forces the per-event path (the heap-based
``WalkerPool`` discipline the calendar replaces).  Both paths must be
*bit-identical*: same burst results, same ``RunSummary``, same channel
state, same TLB contents in LRU order, same PTS map — across multi-ASID
bursts, every QoS policy × arbitration combo, and mid-segment faults.

Coverage is asserted, not hoped for: the deterministic cases drive both
drain disciplines — full-window retirement (``m >= W``, the qos_sweep
regime) *and* partial-window retirement (``m < W``, short fresh miss
clusters on wide walker pools, which the figure sweeps never reach) —
and verify via a drain spy that the calendar actually fired.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import CompletionCalendar
from repro.core.engine import TranslationEngine
from repro.core.mmu import MMU, MMUConfig, baseline_iommu_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.dram import MainMemory
from repro.memory.page_table import PageTable
from repro.npu.dma import ColumnarTransactionStream

BASE = 0x7F00_0000_0000
N_PAGES = 256
#: Disjoint never-mapped region used for mid-segment fault injection.
FAULT_BASE = BASE + (1 << 40)

#: No-PRMB design points spanning the calendar's regimes: the paper's
#: 8-walker IOMMU (full-window retirement dominates) and wider pools
#: where short fresh clusters retire partial windows (m < W).
CAL_CONFIGS = [
    baseline_iommu_config(),
    MMUConfig(name="w16", n_walkers=16, prmb_slots=0),
    MMUConfig(name="w32", n_walkers=32, prmb_slots=0),
]


def build_table(first_pfn=10):
    table = PageTable()
    table.map_range(BASE, N_PAGES * PAGE_SIZE_4K, first_pfn=first_pfn)
    return table


# --------------------------------------------------------------------- #
# strategies: streaming segments, not single transactions — the calendar
# only engages on saturated multi-page miss stretches
# --------------------------------------------------------------------- #

#: One streaming segment: (start page, page count, 256 B txns per page).
#: Single-transaction pages outrun the walker pool (the calendar's
#: saturated regime); 16-per-page runs serialize on the in-flight walk
#: and exercise the per-event fallback between stretches.
_segment = st.tuples(
    st.integers(0, N_PAGES - 48),
    st.integers(1, 48),
    st.sampled_from([1, 1, 2, 16]),
)

#: A mid-segment faulting page (never mapped until the handler maps it).
_fault = st.integers(1, 6)

_chunk = st.one_of(_segment, _fault)

_burst = st.lists(_chunk, min_size=1, max_size=6)

#: Schedules interleave up to three address spaces (ASIDs 0, 5, 9).
_schedule = st.lists(
    st.tuples(st.sampled_from([0, 5, 9]), _burst), min_size=1, max_size=4
)

_qos = st.sampled_from(SHARE_POLICIES)


def materialize(burst):
    """Chunks -> (va, size) transactions (streaming 256 B runs).

    Intra-page offsets rotate with the page index so page-head
    transactions stripe across DRAM channels (``(va >> 8) % channels``)
    the way a real DMA tile walk does; a fixed offset would alias every
    head onto one channel and starve the calendar's feasibility check.
    """
    txs = []
    for chunk in burst:
        if isinstance(chunk, int):  # fault page
            txs.append((FAULT_BASE + chunk * PAGE_SIZE_4K, 256))
            continue
        start, pages, per_page = chunk
        pages = min(pages, N_PAGES - start)
        for p in range(start, start + pages):
            base = BASE + p * PAGE_SIZE_4K
            txs.extend(
                (base + ((p + k) % 16) * 256, 256) for k in range(per_page)
            )
    return txs


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #


def run_calendar_mode(calendar_on, config, qos, schedule, spy=None):
    """One multi-ASID columnar run with NEUMMU_CALENDAR pinned."""
    before = os.environ.get("NEUMMU_CALENDAR")
    os.environ["NEUMMU_CALENDAR"] = "1" if calendar_on else "0"
    try:
        cfg = replace(config, engine_mode="columnar", qos=qos)
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

        def demand_map(vpn, cycle, asid):
            tables[asid].map_range(
                vpn << 12, PAGE_SIZE_4K,
                first_pfn=2_000_000 + (vpn & 0xFFFF) * 8 + asid,
            )
            mmu.shootdown(vpn, asid)
            return cycle + 2500.0

        engine.fault_handler = demand_map
        results = []
        for i, (asid, burst) in enumerate(schedule):
            txs = ColumnarTransactionStream.from_pairs(
                materialize(burst), PAGE_SIZE_4K
            )
            results.append(engine.run_burst(txs, float(i * 7), asid))
        mmu.drain()
        state = {
            "results": results,
            "summary": mmu.summary(),
            "channels": tuple(memory._channel_free),
            "mem": (memory.total_bytes, memory.total_accesses),
            "pts": (mmu.pts.lookups, mmu.pts.hits, mmu.pts.in_flight),
            "tlb_sets": [list(s.items()) for s in mmu.tlb._sets],
            "occupancy": dict(mmu.tlb._asid_occupancy),
        }
        return state
    finally:
        if before is None:
            os.environ.pop("NEUMMU_CALENDAR", None)
        else:
            os.environ["NEUMMU_CALENDAR"] = before


def assert_modes_identical(config, qos, schedule):
    on = run_calendar_mode(True, config, qos, schedule)
    off = run_calendar_mode(False, config, qos, schedule)
    assert on == off


class _DrainSpy:
    """Records every (stretch length m, window width W) drain pair."""

    def __init__(self, monkeypatch):
        self.drains = []
        original = CompletionCalendar.drain_stretch
        spy = self

        def wrapped(cal, *args, **kwargs):
            spy.drains.append(
                (cal._plan_m, len(cal._plan_inflight_walks))
            )
            return original(cal, *args, **kwargs)

        monkeypatch.setattr(CompletionCalendar, "drain_stretch", wrapped)


# --------------------------------------------------------------------- #
# engine-level differential fuzz
# --------------------------------------------------------------------- #


class TestCalendarDifferential:
    @pytest.mark.parametrize("config", CAL_CONFIGS, ids=lambda c: c.name)
    @given(schedule=_schedule, qos=_qos)
    @settings(max_examples=20, deadline=None)
    def test_calendar_matches_heap(self, config, schedule, qos):
        assert_modes_identical(config, qos, schedule)

    @given(schedule=_schedule)
    @settings(max_examples=10, deadline=None)
    def test_mid_segment_faults(self, schedule):
        """Every burst gets a guaranteed mid-segment fault injected."""
        faulted = [
            (asid, burst[: len(burst) // 2] + [3] + burst[len(burst) // 2:])
            for asid, burst in schedule
        ]
        assert_modes_identical(
            baseline_iommu_config(), "static_partition", faulted
        )


# --------------------------------------------------------------------- #
# deterministic retire-discipline coverage
# --------------------------------------------------------------------- #


class TestRetireDiscipline:
    def test_full_window_retirement_fires(self, monkeypatch):
        """Saturated 1-txn/page stream on 8 walkers: bulk (m >= W) drains."""
        spy = _DrainSpy(monkeypatch)
        schedule = [(0, [(0, 200, 1)])]
        state = run_calendar_mode(
            True, baseline_iommu_config(), "full_share", schedule
        )
        assert any(m >= w for m, w in spy.drains), spy.drains
        assert state == run_calendar_mode(
            False, baseline_iommu_config(), "full_share", schedule
        )

    def test_partial_window_retirement_fires(self, monkeypatch):
        """Short fresh cluster on a 32-walker pool: m < W drains.

        One transaction per page exhausts the pool before the first
        completion; the remaining fresh pages form a cluster shorter
        than the in-flight window, driving the partial-drain replay the
        figure sweeps never exercise (the paper's 8-walker IOMMU can
        never see it: W <= 8 < the minimum planning stretch of 12).
        """
        spy = _DrainSpy(monkeypatch)
        config = MMUConfig(name="w32", n_walkers=32, prmb_slots=0)
        schedule = [(0, [(0, 48, 1)])]
        state = run_calendar_mode(True, config, "full_share", schedule)
        assert any(m < w for m, w in spy.drains), spy.drains
        assert state == run_calendar_mode(False, config, "full_share", schedule)


# --------------------------------------------------------------------- #
# multi-tenant: all 9 QoS policy × arbitration combos
# --------------------------------------------------------------------- #


def _tenant_cell(qos, arbitration, calendar_on):
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    before = os.environ.get("NEUMMU_CALENDAR")
    os.environ["NEUMMU_CALENDAR"] = "1" if calendar_on else "0"
    try:
        return run_multi_tenant(
            DenseWorkloadFactory("RNN-2", 1),
            baseline_iommu_config(),
            2,
            arbitration=arbitration,
            qos=qos,
            weights=(2.0, 1.0),
        )
    finally:
        if before is None:
            os.environ.pop("NEUMMU_CALENDAR", None)
        else:
            os.environ["NEUMMU_CALENDAR"] = before


class TestTenantCombos:
    def test_contended_cell_identical(self):
        """Fast tier: the deepest quota regime, calendar on vs off."""
        on = _tenant_cell("static_partition", "round_robin", True)
        off = _tenant_cell("static_partition", "round_robin", False)
        assert on == off

    @pytest.mark.slow
    @pytest.mark.parametrize("qos", SHARE_POLICIES)
    @pytest.mark.parametrize("arbitration", ARBITRATION_POLICIES)
    def test_all_nine_combos_identical(self, qos, arbitration):
        on = _tenant_cell(qos, arbitration, True)
        off = _tenant_cell(qos, arbitration, False)
        assert on == off
