"""Quota regimes in the hit phase: columnar engine mode vs the reference.

Under a partitioning or weighted share policy, long TLB-hit runs retire
while a tenant's walks come due and its quota binds.  Both engine modes
step these regimes per event and must stay *bit-identical*: same burst
results, ``RunSummary``, channel state, TLB contents in LRU order, PTS
counters and per-ASID occupancy.  This file drives hit-heavy schedules
and multi-tenant runs through a small-PRMB pool (the contended runner)
and the paper's no-PRMB IOMMU (the fused runner), reusing the
``run_mode`` harness of ``test_columnar.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mmu import MMUConfig, baseline_iommu_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.memory.address import PAGE_SIZE_4K

from test_columnar import N_PAGES, _storm_triples, run_mode

#: A small PRMB pool: weighted bursts go through the contended runner.
PRMB4 = MMUConfig(name="prmb4", n_walkers=8, prmb_slots=4)

#: Hit-heavy segments: (start page, page count, txns per page).  The
#: 200-per-page arms hold one page's hit run open while several walks
#: come due inside it; the 1-per-page arm keeps the walkers busy.
_hit_segment = st.tuples(
    st.integers(0, N_PAGES - 48),
    st.integers(1, 48),
    st.sampled_from([1, 16, 200, 200]),
)

_hit_schedule = st.lists(
    st.tuples(
        st.sampled_from([0, 5, 9]),
        st.lists(
            st.one_of(_hit_segment, st.integers(1, 6)),
            min_size=1,
            max_size=6,
        ).map(_storm_triples),
    ),
    min_size=1,
    max_size=4,
)


class TestQuotaBatchDifferential:
    @given(schedule=_hit_schedule, qos=st.sampled_from(SHARE_POLICIES))
    @settings(max_examples=10, deadline=None)
    def test_epoch_bumps(self, schedule, qos):
        """Re-weight ASID 5 after the first burst, remove ASID 9 after the
        second: the hit phase must follow the ``SharePolicy.version``
        bump, and poisoned in-flight walks must retire without filling
        the TLB, on both runners."""
        ops = {0: ("weight", 5, 3.0), 1: ("remove", 9)}
        for config in (baseline_iommu_config(), PRMB4):
            columnar = run_mode(
                "columnar", config, qos, schedule, PAGE_SIZE_4K,
                epoch_ops=ops,
            )
            reference = run_mode(
                "reference", config, qos, schedule, PAGE_SIZE_4K,
                epoch_ops=ops,
            )
            assert columnar == reference, config.name


# --------------------------------------------------------------------- #
# multi-tenant: share policy x arbitration on the PRMB pool
# --------------------------------------------------------------------- #


def _tenant_cell(qos, arbitration, mode):
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    return run_multi_tenant(
        DenseWorkloadFactory("RNN-2", 1),
        replace(PRMB4, engine_mode=mode),
        2,
        arbitration=arbitration,
        qos=qos,
        weights=(2.0, 1.0),
    )


class TestTenantCombos:
    def test_contended_cell_identical(self):
        """Fast tier: the deepest quota regime on the PRMB pool."""
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
