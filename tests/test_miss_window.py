"""Quota regimes in the miss phase: columnar engine mode vs the reference.

Saturated fresh-page storms keep every walker in flight, so the blocked
issue port runs the stall/retire/restart chain while quotas bind.  Both
engine modes step it per event and must stay *bit-identical*: same burst
results, ``RunSummary``, channel state, TLB contents in LRU order, PTS
counters and per-ASID occupancy.  This file drives the storms under a
policy with a finite event horizon plus between-burst policy mutations,
and multi-tenant runs on the paper's NeuMMU design point, reusing the
``run_mode`` harness of ``test_columnar.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.mmu import baseline_iommu_config, neummu_config
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.memory.address import PAGE_SIZE_4K

from test_columnar import PeriodicEventShare, _storm_schedule, run_mode


class TestMissWindowDifferential:
    @given(schedule=_storm_schedule)
    @settings(max_examples=10, deadline=None)
    def test_epoch_bumps(self, schedule):
        """Re-weight ASID 5 after the first burst, remove ASID 9 after the
        second, under a policy whose event horizon ticks every 4096
        cycles: storms must stop at each boundary and after each
        ``SharePolicy.version`` bump, in both modes alike."""
        ops = {0: ("weight", 5, 3.0), 1: ("remove", 9)}
        for config in (baseline_iommu_config(), neummu_config()):
            columnar = run_mode(
                "columnar", config, "weighted", schedule, PAGE_SIZE_4K,
                epoch_ops=ops, policy_factory=PeriodicEventShare,
            )
            reference = run_mode(
                "reference", config, "weighted", schedule, PAGE_SIZE_4K,
                epoch_ops=ops, policy_factory=PeriodicEventShare,
            )
            assert columnar == reference, config.name


# --------------------------------------------------------------------- #
# multi-tenant: share policy x arbitration on NeuMMU
# --------------------------------------------------------------------- #


def _tenant_cell(qos, arbitration, mode):
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    return run_multi_tenant(
        DenseWorkloadFactory("RNN-2", 1),
        replace(neummu_config(), engine_mode=mode),
        2,
        arbitration=arbitration,
        qos=qos,
        weights=(2.0, 1.0),
    )


class TestTenantCombos:
    def test_contended_cell_identical(self):
        """Fast tier: the deepest quota regime on NeuMMU."""
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
