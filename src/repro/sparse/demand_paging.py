"""Demand-paging execution model for sparse embedding layers (Figure 16).

Instead of gathering remote embeddings in place (the NUMA mode of
Figure 15), the NPU page-faults on a missing vector and *migrates* the
enclosing page into local physical memory over the NPU↔NPU fabric,
then retries the access locally (Section VI-A).  The experiment's levers:

* **page size** — a 4 KB migration moves 16 vectors' worth of data for one
  256-byte vector; a 2 MB migration moves 8192 vectors' worth.  The paper's
  point: large pages are "no silver bullet" — redundant prefetch traffic
  and memory bloat make them catastrophically slow for sparse access.
* **MMU design** — the fault/translation *bursts* of a gather hammer the
  translation machinery; the baseline IOMMU's 8 walkers throttle both the
  gather and the (dense) MLP phases, while NeuMMU tracks the oracle.

The embedding gather runs through the real
:class:`~repro.core.engine.TranslationEngine` driven by the first-class
memory-tier subsystem (:mod:`repro.memory.tiering`): a
:class:`~repro.memory.tiering.LocalMemoryTier` tracks residency against
the local budget and a :class:`~repro.memory.tiering.MigrationFabric`
charges each page move; popularity-skewed (Zipfian) lookups give migrated
hot pages genuine reuse; the bounded budget forces eviction (thrash) when
migrations outpace reuse.

Everything is normalized against the 4 KB-page oracular MMU, matching the
paper's presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from ..core.engine import TranslationEngine
from ..core.mmu import MMU, MMUConfig
from ..core.stats import RunSummary
from ..memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K, page_offset_bits
from ..memory.allocator import AddressSpace, Segment
from ..memory.dram import MainMemory
from ..memory.tiering import LocalMemoryTier, MigrationFabric
from ..npu.config import NPUConfig
from ..npu.simulator import NPUSimulator, run_workload
from ..workloads.cnn import Workload
from ..workloads.embedding import EmbeddingTableSpec, RecSysModel, ZipfSampler
from ..workloads.layers import DenseLayer
from .multi_npu import shard_model
from .numa import nvlink_link
from .recsys import RecSysSystem

MB = 1024 * 1024

#: MLP workloads of the dense phase, interned by value.  The simulator's
#: construction cache keys on workload identity (see
#: ``repro.workloads.registry``), so a fresh but equal ``Workload`` per
#: run would add a never-reused entry holding a whole address space.
_MLP_WORKLOADS: Dict[Workload, Workload] = {}


@dataclass(frozen=True)
class DemandPagingConfig:
    """Parameters of the Figure 16 experiment."""

    n_npus: int = 4
    #: Batches simulated; statistics are taken after ``warm_batches``.
    batches: int = 40
    warm_batches: int = 15
    #: Popularity skew of embedding lookups (production recsys traffic is
    #: strongly skewed; 0 degenerates to uniform).
    zipf_s: float = 1.2
    seed: int = 7
    #: Local-memory budget for migrated remote pages.
    local_budget_bytes: int = 256 * MB
    #: Runtime cost of taking one fault (driver + queueing), before the
    #: page transfer itself.
    fault_overhead_cycles: float = 500.0
    #: Scaled-down table rows (full production tables would only slow the
    #: simulation; hot-set-to-budget ratios are preserved — see DESIGN.md).
    table_rows: int = 1_000_000


@dataclass
class DemandPagingResult:
    """Measured behaviour of one (model, MMU, page size) cell."""

    model: str
    mmu_name: str
    page_size: int
    batch: int
    embedding_cycles_per_batch: float
    dense_cycles_per_batch: float
    faults_per_batch: float
    migrated_bytes_per_batch: float
    evictions_per_batch: float
    mmu_summary: RunSummary

    @property
    def total_cycles_per_batch(self) -> float:
        return self.embedding_cycles_per_batch + self.dense_cycles_per_batch


class DemandPagingSimulator:
    """Simulates NPU0's per-batch embedding gather under demand paging."""

    def __init__(
        self,
        model: RecSysModel,
        mmu_config: MMUConfig,
        batch: int,
        system: Optional[DemandPagingConfig] = None,
        npu_config: Optional[NPUConfig] = None,
    ):
        self.system = system or DemandPagingConfig()
        self.npu_config = npu_config or NPUConfig()
        self.batch = batch
        self.mmu_config = mmu_config
        self.model = _scaled_model(model, self.system.table_rows)
        self.sharded = shard_model(self.model, self.system.n_npus)
        self.page_size = mmu_config.page_size
        self._vpn_shift = page_offset_bits(self.page_size)
        self._link = nvlink_link(self.npu_config.interconnect)

        # Virtual memory: local tables are fully mapped; remote tables are
        # reserved but unmapped — first touch faults and migrates.
        self.space = AddressSpace(
            memory_bytes=64 * 1024**3, page_size=self.page_size
        )
        local_names = {t.name for t in self.sharded.local_tables(0)}
        self._segments: List[Tuple[EmbeddingTableSpec, Segment, bool]] = []
        for table in self.model.tables:
            local = table.name in local_names
            seg = self.space.alloc_segment(
                f"emb.{table.name}", table.nbytes, populate=local
            )
            self._segments.append((table, seg, local))

        self.mmu = MMU(mmu_config, self.space.page_table)
        self.memory = MainMemory(self.npu_config.memory)
        # The first-class paging tier: residency + budget + eviction live
        # in repro.memory.tiering; this simulator is its single tenant
        # (ASID 0) on a one-lane fabric.  Faults and evictions route
        # through MMU.shootdown, so no cached translation can ever serve
        # a stale remote PFN; the engine drops its batched-run memo on
        # every fault for the same reason.
        self.fabric = MigrationFabric(self._link, slots=1)
        self.tier = LocalMemoryTier(
            self.fabric,
            page_size=self.page_size,
            fault_overhead_cycles=self.system.fault_overhead_cycles,
        )
        self.tier.bind(self.mmu)
        self._tenant = self.tier.register_tenant(
            0, self.space, self.system.local_budget_bytes
        )
        self.engine = TranslationEngine(
            self.mmu, self.memory, fault_handler=self.tier.handle_fault
        )
        self.sampler = ZipfSampler(self.system.zipf_s, seed=self.system.seed)

    # ------------------------------------------------------------------ #
    # tier views (historical attribute names)                            #
    # ------------------------------------------------------------------ #

    @property
    def faults(self) -> int:
        """Page faults taken so far."""
        return self._tenant.faults

    @property
    def evictions(self) -> int:
        """Budget evictions performed so far."""
        return self._tenant.evictions

    @property
    def migrated_bytes(self) -> int:
        """Bytes migrated over the fabric so far."""
        return self.tier.migrated_bytes_of(0)

    @property
    def _resident(self):
        return self._tenant.resident

    @property
    def _resident_bytes(self) -> int:
        return self._tenant.resident_bytes

    # ------------------------------------------------------------------ #
    # gather                                                             #
    # ------------------------------------------------------------------ #

    def _batch_transactions(self) -> List[Tuple[int, int]]:
        """One batch slice's embedding lookups as DMA transactions."""
        slice_samples = max(1, self.batch // self.system.n_npus)
        txs: List[Tuple[int, int]] = []
        for table, seg, _local in self._segments:
            count = slice_samples * self.model.lookups_per_table
            rows = self.sampler.sample(table.rows, count)
            vector_bytes = table.vector_bytes
            # 48-bit VAs: exact in int64.
            vas = rows * vector_bytes + seg.va
            txs.extend(zip(vas.tolist(), repeat(vector_bytes, count)))
        return txs

    def run(self) -> DemandPagingResult:
        """Run the batch stream; return post-warmup per-batch averages."""
        cycle = 0.0
        measured: List[float] = []
        faults_before = evict_before = migrated_before = 0
        for batch_index in range(self.system.batches):
            if batch_index == self.system.warm_batches:
                faults_before = self.faults
                evict_before = self.evictions
                migrated_before = self.migrated_bytes
            txs = self._batch_transactions()
            # Touched pages' reuse spans batches, so keep MMU/memory state.
            result = self.engine.run_burst(txs, cycle)
            duration = result.data_end_cycle - cycle
            if batch_index >= self.system.warm_batches:
                measured.append(duration)
            cycle = result.data_end_cycle + 1

        n_measured = max(1, len(measured))
        dense = self._dense_cycles_per_batch()
        return DemandPagingResult(
            model=self.model.name,
            mmu_name=self.mmu_config.name,
            page_size=self.page_size,
            batch=self.batch,
            embedding_cycles_per_batch=sum(measured) / n_measured,
            dense_cycles_per_batch=dense,
            faults_per_batch=(self.faults - faults_before) / n_measured,
            migrated_bytes_per_batch=(self.migrated_bytes - migrated_before)
            / n_measured,
            evictions_per_batch=(self.evictions - evict_before) / n_measured,
            mmu_summary=self.mmu.summary(),
        )

    # ------------------------------------------------------------------ #
    # dense phase                                                        #
    # ------------------------------------------------------------------ #

    def _dense_cycles_per_batch(self) -> float:
        """MLP + interaction phase under the *same* MMU design.

        The dense phase streams MLP weights through the very same
        translation machinery, so the IOMMU's dense-workload slowdown
        (Figure 8) applies here too.  We simulate the model's MLP stacks
        as a dense workload with the run's MMU configuration.
        """
        batch_slice = max(1, self.batch // self.system.n_npus)
        layers = []
        if self.model.bottom_mlp is not None:
            for i, (in_w, out_w) in enumerate(self.model.bottom_mlp.layer_dims):
                layers.append(DenseLayer(f"bot{i}", batch_slice, in_w, out_w))
        for i, (in_w, out_w) in enumerate(self.model.top_mlp.layer_dims):
            layers.append(DenseLayer(f"top{i}", batch_slice, in_w, out_w))
        workload = Workload(
            name=f"{self.model.name.lower()}_mlp_b{batch_slice:02d}",
            batch=batch_slice,
            layers=tuple(layers),
        )
        workload = _MLP_WORKLOADS.setdefault(workload, workload)
        mlp_result = run_workload(workload, self.mmu_config, self.npu_config)

        recsys = RecSysSystem(
            self.model, n_npus=self.system.n_npus, config=self.npu_config
        )
        interaction = recsys.interaction_cycles(batch_slice)
        return mlp_result.total_cycles + interaction


def _scaled_model(model: RecSysModel, rows: int) -> RecSysModel:
    """The same model with every table resized to ``rows``."""
    tables = tuple(replace(t, rows=rows) for t in model.tables)
    return replace(model, tables=tables)


def demand_paging_cell(
    model: RecSysModel,
    mmu_config: MMUConfig,
    batch: int,
    system: Optional[DemandPagingConfig] = None,
    npu_config: Optional[NPUConfig] = None,
) -> DemandPagingResult:
    """One Figure 16 bar: run a (model, MMU, page size, batch) cell."""
    sim = DemandPagingSimulator(model, mmu_config, batch, system, npu_config)
    return sim.run()
