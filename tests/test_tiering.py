"""The first-class memory-tier subsystem (``repro.memory.tiering``).

Covers the shared :class:`MigrationFabric` (slot admission under every
share policy, exact byte conservation, queueing), the
:class:`LocalMemoryTier` (budgets, pluggable eviction, and the
ASID-tagged shootdown regression: eviction must sweep the *owning*
context's cached translations — and only that context's), and the
demand-paged simulator modes wired through it, including the fast-tier
multi-tenant paging-contention smoke that CI runs on every push.
"""

import pytest

from repro.core.mmu import MMU, MMUConfig, baseline_iommu_config, neummu_config
from repro.core.qos import make_share_policy
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.allocator import AddressSpace
from repro.memory.tiering import (
    EVICTION_POLICIES,
    LocalMemoryTier,
    MigrationFabric,
    TieringConfig,
)
from repro.npu.simulator import (
    Fidelity,
    MultiTenantSimulator,
    NPUSimulator,
    _TenantRun,
    run_multi_tenant,
)
from repro.workloads.cnn import Workload
from repro.workloads.layers import DenseLayer

MB = 1024 * 1024
PAGE = PAGE_SIZE_4K


class FixedLink:
    """Deterministic duck-typed link: latency + bytes/bandwidth."""

    def __init__(self, latency=100.0, bandwidth=64.0):
        self.latency = latency
        self.bandwidth = bandwidth

    def bulk_transfer_cycles(self, nbytes):
        return self.latency + nbytes / self.bandwidth


def tiny_workload(tag, batch=1, layers=2, width=256):
    return Workload(
        name=f"paged_{tag}_b{batch:02d}",
        batch=batch,
        layers=tuple(
            DenseLayer(f"fc{i}", batch, width, width) for i in range(layers)
        ),
    )


class TestMigrationFabric:
    def test_uncontended_completion_math(self):
        link = FixedLink(latency=100.0, bandwidth=64.0)
        fabric = MigrationFabric(link, slots=1)
        done = fabric.migrate(0, PAGE, 500.0)
        assert done == 500.0 + link.bulk_transfer_cycles(PAGE)
        assert fabric.usage[0].queue_cycles == 0.0

    def test_single_slot_serializes_overlapping_tenants(self):
        link = FixedLink(latency=100.0, bandwidth=64.0)
        fabric = MigrationFabric(link, slots=1)
        duration = link.bulk_transfer_cycles(PAGE)
        first = fabric.migrate(0, PAGE, 0.0)
        second = fabric.migrate(1, PAGE, 1.0)  # overlaps the first
        assert first == duration
        assert second == first + duration  # queued behind tenant 0
        assert fabric.usage[1].queue_cycles == pytest.approx(first - 1.0)

    def test_parallel_slots_overlap(self):
        fabric = MigrationFabric(FixedLink(), slots=2)
        duration = FixedLink().bulk_transfer_cycles(PAGE)
        fabric.migrate(0, PAGE, 0.0)
        second = fabric.migrate(1, PAGE, 1.0)
        assert second == 1.0 + duration  # streamed on the second lane
        assert fabric.in_flight_at(10.0) == 2

    def test_exact_byte_conservation(self):
        fabric = MigrationFabric(FixedLink(), slots=3)
        cycle = 0.0
        for i in range(60):
            cycle = fabric.migrate(i % 4, PAGE, cycle + 1.0)
        per_tenant = {a: u.bytes_moved for a, u in fabric.usage.items()}
        assert sum(per_tenant.values()) == fabric.total_bytes
        assert fabric.total_bytes == 60 * PAGE
        assert fabric.total_migrations == 60
        assert sum(u.migrations for u in fabric.usage.values()) == 60

    def test_static_partition_blocks_on_own_quota(self):
        """A hard-partitioned tenant at quota waits for its *own* slot,
        even while another lane idles."""
        policy = make_share_policy("static_partition", {0: 1.0, 1: 1.0})
        fabric = MigrationFabric(FixedLink(), slots=2, policy=policy)
        duration = FixedLink().bulk_transfer_cycles(PAGE)
        first = fabric.migrate(0, PAGE, 0.0)  # tenant 0's reserved slot
        second = fabric.migrate(0, PAGE, 1.0)  # at quota (1 of 2 slots)
        assert second == first + duration  # waited despite the idle lane
        # Tenant 1's reservation was untouched: it streams immediately.
        third = fabric.migrate(1, PAGE, 2.0)
        assert third == 2.0 + duration

    def test_full_share_uses_idle_lane(self):
        policy = make_share_policy("full_share", {0: 1.0, 1: 1.0})
        fabric = MigrationFabric(FixedLink(), slots=2, policy=policy)
        duration = FixedLink().bulk_transfer_cycles(PAGE)
        fabric.migrate(0, PAGE, 0.0)
        second = fabric.migrate(0, PAGE, 1.0)
        assert second == 1.0 + duration  # no quota: the idle lane serves

    def test_weighted_borrows_beyond_unmet_reservations(self):
        policy = make_share_policy("weighted", {0: 1.0, 1: 1.0})
        fabric = MigrationFabric(FixedLink(), slots=5, policy=policy)
        duration = FixedLink().bulk_transfer_cycles(PAGE)
        fabric.migrate(0, PAGE, 0.0)
        fabric.migrate(0, PAGE, 0.0)  # tenant 0 now at its quota of 2
        # 3 lanes free, tenant 1's unmet reservation is 2: borrowing OK.
        third = fabric.migrate(0, PAGE, 1.0)
        assert third == 1.0 + duration

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            MigrationFabric(FixedLink(), slots=0)
        fabric = MigrationFabric(FixedLink(), slots=1)
        with pytest.raises(ValueError):
            fabric.migrate(0, 0, 0.0)


def two_context_tier(budget_pages_0=64, budget_pages_1=64, eviction="lru"):
    """One MMU serving two contexts, one tier, unmapped 8-page segments."""
    spaces = []
    mmu = MMU(MMUConfig(name="x", n_walkers=8, prmb_slots=0), None)
    fabric = MigrationFabric(FixedLink(), slots=2)
    tier = LocalMemoryTier(
        fabric, page_size=PAGE, fault_overhead_cycles=10.0, eviction=eviction
    )
    tier.bind(mmu)
    for asid, budget in ((0, budget_pages_0), (1, budget_pages_1)):
        space = AddressSpace(page_size=PAGE)
        space.alloc_segment("emb", 8 * PAGE, populate=False)
        mmu.register_context(asid, space.page_table)
        tier.register_tenant(asid, space, budget * PAGE)
        spaces.append(space)
    return mmu, tier, spaces


def fill_tlb(mmu, vpn, asid):
    """Walk one page to completion so its translation is TLB-resident."""
    ready, _ = mmu.translate(vpn, 0.0, asid)
    assert ready is not None
    mmu.drain()
    assert mmu.tlb.contains(vpn, asid)


class TestLocalMemoryTier:
    def test_fault_maps_page_and_charges_fabric(self):
        mmu, tier, spaces = two_context_tier()
        seg = spaces[0].segments()[0]
        vpn = seg.va >> 12
        resolved = tier.handle_fault(vpn, 100.0, asid=0)
        assert spaces[0].page_table.is_mapped(seg.va)
        assert resolved == 110.0 + FixedLink().bulk_transfer_cycles(PAGE)
        assert tier.tenants[0].faults == 1
        assert tier.fabric.usage[0].bytes_moved == PAGE

    def test_fault_for_unregistered_asid_raises(self):
        mmu, tier, _ = two_context_tier()
        with pytest.raises(KeyError):
            tier.handle_fault(0x123, 0.0, asid=7)

    def test_bind_rejects_second_mmu(self):
        mmu, tier, _ = two_context_tier()
        other = MMU(MMUConfig(name="y", n_walkers=8), None)
        with pytest.raises(ValueError):
            tier.bind(other)
        tier.bind(mmu)  # same MMU: idempotent
        assert mmu.paging_tier is tier

    def test_mmu_links_back_to_tier_weakly(self):
        """The tier owns its MMU (the shootdown target); the MMU's link
        back is weak, so the pair forms no reference cycle and the MMU
        reports no tier once the tier is gone."""
        mmu, tier, _ = two_context_tier()
        assert mmu.paging_tier is tier
        del tier
        assert mmu.paging_tier is None

    def test_eviction_respects_budget_and_unmaps(self):
        mmu, tier, spaces = two_context_tier(budget_pages_1=2)
        seg = spaces[1].segments()[0]
        vpns = [(seg.va + i * PAGE) >> 12 for i in range(4)]
        cycle = 0.0
        for vpn in vpns:
            cycle = tier.handle_fault(vpn, cycle, asid=1)
        tenant = tier.tenants[1]
        assert tenant.resident_bytes <= 2 * PAGE
        assert tenant.evictions == 2
        # Oldest two migrated pages were unmapped again.
        assert not spaces[1].page_table.is_mapped(vpns[0] << 12)
        assert not spaces[1].page_table.is_mapped(vpns[1] << 12)
        assert spaces[1].page_table.is_mapped(vpns[3] << 12)

    def test_eviction_shoots_down_owning_context_only(self):
        """Stale-PFN regression (ASID-tagged shootdown on eviction).

        Both tenants map the same VA range, so the evicted page's VPN is
        TLB-resident for *both* contexts.  Evicting tenant 1's copy must
        sweep tenant 1's cached translation everywhere — and leave
        tenant 0's alias for the same VPN untouched.
        """
        mmu, tier, spaces = two_context_tier(budget_pages_1=2)
        seg0 = spaces[0].segments()[0]
        seg1 = spaces[1].segments()[0]
        shared_vpn = seg1.va >> 12
        assert (seg0.va >> 12) == shared_vpn  # genuine cross-ASID alias

        tier.handle_fault(shared_vpn, 0.0, asid=0)
        fill_tlb(mmu, shared_vpn, asid=0)
        tier.handle_fault(shared_vpn, 1000.0, asid=1)
        fill_tlb(mmu, shared_vpn, asid=1)

        # Two more tenant-1 faults push tenant 1 past its 2-page budget,
        # evicting its copy of shared_vpn (the oldest resident page).
        cycle = 2000.0
        for i in (1, 2):
            cycle = tier.handle_fault(shared_vpn + i, cycle, asid=1)
        assert shared_vpn not in tier.tenants[1].resident

        # Tenant 1: unmapped, TLB swept, memoized walk dropped.
        assert not spaces[1].page_table.is_mapped(seg1.va)
        assert not mmu.tlb.contains(shared_vpn, asid=1)
        assert mmu.resolver_for(1).resolve_vpn(shared_vpn) is None
        # Tenant 0's alias of the very same VPN is untouched.
        assert spaces[0].page_table.is_mapped(seg0.va)
        assert mmu.tlb.contains(shared_vpn, asid=0)
        assert mmu.resolver_for(0).resolve_vpn(shared_vpn) is not None

        # A re-fault installs a fresh frame — never the stale PFN.
        tier.handle_fault(shared_vpn, cycle, asid=1)
        walk = mmu.resolver_for(1).resolve_vpn(shared_vpn)
        assert walk is not None
        assert walk.pfn == spaces[1].page_table.walk(seg1.va).pfn

    def test_eviction_policies_pick_opposite_victims(self):
        victims = {}
        for policy in EVICTION_POLICIES:
            mmu, tier, spaces = two_context_tier(
                budget_pages_0=2, eviction=policy
            )
            seg = spaces[0].segments()[0]
            vpns = [(seg.va + i * PAGE) >> 12 for i in range(3)]
            cycle = 0.0
            for vpn in vpns:
                cycle = tier.handle_fault(vpn, cycle, asid=0)
            victims[policy] = [
                vpn for vpn in vpns if vpn not in tier.tenants[0].resident
            ]
        assert victims["lru"] == [vpns[0]]  # oldest migrated page
        # MRU evicts the most recent *previously*-resident page: the
        # just-faulted page itself is protected (evicting it would make
        # the engine's retry refault the same VPN forever).
        assert victims["mru"] == [vpns[1]]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LocalMemoryTier(
                MigrationFabric(FixedLink()), PAGE, eviction="bogus"
            )
        with pytest.raises(ValueError):
            TieringConfig(eviction="bogus")
        with pytest.raises(ValueError):
            TieringConfig(fabric_slots=0)
        mmu, tier, _ = two_context_tier()
        with pytest.raises(ValueError):
            tier.register_tenant(5, None, budget_bytes=0)
        with pytest.raises(ValueError, match="at least one"):
            # A sub-page budget could never keep the faulting page
            # resident — the fault loop would livelock.
            tier.register_tenant(5, None, budget_bytes=PAGE - 1)


class TestPagedNPUSimulator:
    def test_pages_fault_in_once_and_budget_holds(self):
        fabric = MigrationFabric(FixedLink(), slots=2)
        tier = LocalMemoryTier(fabric, page_size=PAGE)
        sim = NPUSimulator(
            tiny_workload("solo"),
            neummu_config(),
            paging_tier=tier,
            memory_budget=64 * MB,
        )
        result = sim.run()
        assert result.total_cycles > 0
        tenant = tier.tenants[0]
        # Budget >> footprint: every distinct page faulted exactly once.
        expected_pages = sum(
            (seg.length + PAGE - 1) // PAGE
            for seg in sim.address_space.segments()
        )
        assert tenant.faults == expected_pages
        assert tenant.evictions == 0
        assert fabric.total_bytes == expected_pages * PAGE
        assert tenant.resident_bytes <= 64 * MB

    @pytest.mark.parametrize("eviction", EVICTION_POLICIES)
    def test_thrashing_budget_terminates(self, eviction):
        """Livelock regression: a budget far below the footprint thrashes
        (evict + refault) but must always make forward progress.  MRU
        order used to pick the just-faulted page as its first victim,
        refaulting the same VPN forever."""
        fabric = MigrationFabric(FixedLink(), slots=2)
        tier = LocalMemoryTier(fabric, page_size=PAGE, eviction=eviction)
        sim = NPUSimulator(
            tiny_workload("thrash"),
            neummu_config(),
            paging_tier=tier,
            memory_budget=2 * PAGE,
        )
        result = sim.run()
        assert result.total_cycles > 0
        tenant = tier.tenants[0]
        assert tenant.evictions > 0  # the run genuinely thrashed
        assert tenant.resident_bytes <= 2 * PAGE

    def test_paging_costs_cycles(self):
        fabric = MigrationFabric(FixedLink(), slots=2)
        tier = LocalMemoryTier(fabric, page_size=PAGE)
        paged = NPUSimulator(
            tiny_workload("p"), neummu_config(), paging_tier=tier
        ).run()
        mapped = NPUSimulator(tiny_workload("p"), neummu_config()).run()
        assert paged.total_cycles > mapped.total_cycles

    def test_inflight_migration_is_an_interaction_point(self):
        fabric = MigrationFabric(FixedLink(), slots=1)
        tier = LocalMemoryTier(fabric, page_size=PAGE)
        sim = NPUSimulator(
            tiny_workload("ip"), neummu_config(), paging_tier=tier
        )
        run = _TenantRun(sim)
        # A migration in flight past this run's clock pins the scheduler
        # to stepwise advances (no hoisted quiet stretch)...
        fabric._free_at[0] = run.clock + 1e9
        assert run.advance_quiet() == 0
        # ...and an idle fabric restores quiet-stretch batching.
        fabric._free_at[0] = 0.0
        while not run.done:
            if not run.advance_quiet():
                run.advance()
        assert run.done

    def test_run_multi_tenant_accepts_heterogeneous_lists(self):
        workloads = [tiny_workload("a"), tiny_workload("b", batch=2)]
        result = run_multi_tenant(workloads, neummu_config())
        assert [t.workload for t in result.tenants] == [
            "paged_a_b01",
            "paged_b_b02",
        ]
        # Factories in the list are called once each.
        result = run_multi_tenant(
            [lambda: tiny_workload("c"), lambda: tiny_workload("d")],
            neummu_config(),
        )
        assert [t.workload for t in result.tenants] == [
            "paged_c_b01",
            "paged_d_b01",
        ]

    def test_run_multi_tenant_validates_counts(self):
        with pytest.raises(ValueError, match="n_tenants is required"):
            run_multi_tenant(lambda: tiny_workload("x"), neummu_config())
        with pytest.raises(ValueError, match="does not match"):
            run_multi_tenant(
                [tiny_workload("x")], neummu_config(), n_tenants=2
            )
        with pytest.raises(ValueError, match="at least one"):
            run_multi_tenant([], neummu_config())

    def test_budget_validation(self):
        workloads = [tiny_workload("a"), tiny_workload("b")]
        with pytest.raises(ValueError, match="memory budgets"):
            MultiTenantSimulator(
                workloads, neummu_config(), memory_budgets=[MB]
            )
        with pytest.raises(ValueError, match="positive"):
            MultiTenantSimulator(
                workloads, neummu_config(), memory_budgets=[MB, 0]
            )

    @pytest.mark.parametrize("qos", ["full_share", "static_partition", "weighted"])
    def test_paging_contention_smoke(self, qos):
        """Fast-tier CI smoke: paged tenants over one shared fabric.

        Exact fabric byte conservation, per-tenant attribution, and the
        shared run never beating the isolated paged run.
        """
        config = baseline_iommu_config()
        workloads = [tiny_workload("a"), tiny_workload("b", batch=2)]
        budgets = [4 * MB, 4 * MB]
        isolated = []
        for workload, budget in zip(workloads, budgets):
            fabric = MigrationFabric(FixedLink(), slots=2)
            tier = LocalMemoryTier(fabric, page_size=PAGE)
            isolated.append(
                NPUSimulator(
                    workload, config, paging_tier=tier, memory_budget=budget
                ).run()
            )
        sim = MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b", batch=2)],
            config,
            qos=qos,
            arbitration="weighted_quantum",
            weights=[2.0, 1.0],
            memory_budgets=budgets,
        )
        result = sim.run()
        tier = sim.paging
        fabric = tier.fabric
        per_tenant = {a: tier.migrated_bytes_of(a) for a in tier.tenants}
        assert sum(per_tenant.values()) == fabric.total_bytes
        assert fabric.total_bytes == fabric.total_migrations * PAGE
        assert all(bytes_moved > 0 for bytes_moved in per_tenant.values())
        for tenant, iso in zip(result.tenants, isolated):
            assert tenant.total_cycles >= iso.total_cycles * 0.99

    def test_mid_run_teardown_with_paging(self):
        """Removing a paged tenant leaves the survivor's tier state and
        the fabric's attribution intact."""
        sim = MultiTenantSimulator(
            [tiny_workload("a"), tiny_workload("b")],
            neummu_config(),
            memory_budgets=[8 * MB, 8 * MB],
        )
        runs = [_TenantRun(t) for t in sim.tenants]
        for _ in range(3):
            for run in runs:
                if not run.done:
                    run.advance()
        departed_bytes = sim.paging.migrated_bytes_of(1)
        sim.shared.remove_tenant(1)
        sim.paging.unregister_tenant(1)
        while not runs[0].done:
            if not runs[0].advance_quiet():
                runs[0].advance()
        sim.shared.mmu.drain()
        assert 1 not in sim.paging.tenants
        # The departed tenant's fabric attribution survives teardown.
        assert sim.paging.fabric.usage[1].bytes_moved == departed_bytes
        assert runs[0].done


class TestResidencyEpoch:
    """The per-tenant residency epoch (FAST timing-cache regime stamp)."""

    def test_unregistered_asid_reads_zero(self):
        mmu, tier, _ = two_context_tier()
        assert tier.residency_epoch(7) == 0

    def test_evictions_move_the_epoch_but_migrations_in_do_not(self):
        mmu, tier, spaces = two_context_tier(budget_pages_1=2)
        seg = spaces[1].segments()[0]
        vpns = [(seg.va + i * PAGE) >> 12 for i in range(4)]
        assert tier.residency_epoch(1) == 0
        cycle = 0.0
        for vpn in vpns[:2]:
            cycle = tier.handle_fault(vpn, cycle, asid=1)
        # Within budget: pages joined the resident set, nothing left it,
        # so earlier-measured timings are still valid.
        assert tier.residency_epoch(1) == 0
        tier.handle_fault(vpns[2], cycle, asid=1)
        # Over budget: the eviction is what can stale a cached timing.
        assert tier.residency_epoch(1) == 1
        assert tier.tenants[1].evictions == 1
        # The other tenant's regime never moved.
        assert tier.residency_epoch(0) == 0
