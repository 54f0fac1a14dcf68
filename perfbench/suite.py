"""The benchmark's three workloads: inputs from a seed, set-up, cells, digests.

Each workload is a list of *cells*: independent simulations that run one
at a time in this process (``jobs=1``, no worker pool, no result cache).
A cell returns the simulated results it produced; :func:`digest` hashes
every simulated statistic in them, and :func:`translations` counts the
translation requests they retired.

The seed drives every input the benchmark generates and nothing else:

* ``dense_sweep`` -- the order of the networks, and of the designs within
  each network.  The networks and designs are the paper's fixed inputs,
  so its digests do not depend on the seed.
* ``tenant_qos`` -- the two tenants' share weights.  ``DEFAULT_SEED``
  gives the 2:1 weights of ``benchmarks/bench_perf.py``'s ``qos_sweep``.
* ``paged_sparse`` -- the Zipf embedding-lookup stream of the two DLRM
  cells.  The two-tenant paged run has no random input.

``build(name, seed)`` is the set-up: it builds the workloads, allocates
their address spaces, populates page tables, plans tiles and
materialises the DMA streams the timed phase will replay, all through
public entry points of ``repro``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.parallel import ParallelRunner, RunRequest, TenantRunRequest
from repro.analysis.runner import ExperimentRunner
from repro.core.mmu import (
    MMUConfig,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
from repro.memory.address import PAGE_SIZE_4K
from repro.memory.tiering import TieringConfig
from repro.npu.simulator import NPUSimulator
from repro.sparse.demand_paging import DemandPagingConfig, demand_paging_cell
from repro.workloads.embedding import dlrm
from repro.workloads.registry import (
    DENSE_WORKLOADS,
    DenseWorkloadFactory,
    mix_factories,
)

WORKLOADS = ("dense_sweep", "tenant_qos", "paged_sparse")

#: The seed the recorded digests were taken at (also Figure 16's Zipf
#: seed, ``DemandPagingConfig.seed``).
DEFAULT_SEED = 7

#: FAST-fidelity warm-up of every cell: the number of instances of each
#: tile-step signature a run simulates before replaying converged timings.
WARMUP = 4

MB = 1024 * 1024

#: The paper's NeuMMU overhead over the oracle (Section V), in percent.
PAPER_NEUMMU_OVERHEAD_PCT = 0.06


def dense_designs() -> Tuple[MMUConfig, ...]:
    """NeuMMU and the PRMB-less 8- and 128-walker pools (Figs. 8, 12a).

    The oracle, the fourth design, joins through
    ``ExperimentRunner.normalized_many``.
    """
    return (
        neummu_config(),
        baseline_iommu_config(),
        MMUConfig(name="ptw128", n_walkers=128, prmb_slots=0, path_cache="none"),
    )


#: The first ``tenant_qos`` tenant's weight is drawn from these (the
#: second's is 1).  Across 1.75-2.1 a pass makes the same number of
#: TLB, page-table and share-policy calls to within 0.01%; at 1.5 it makes
#: 18% more policy calls, and at 3 the weighted cells run 13% faster, so
#: the draw stays near 2:1 to keep the seed from moving throughput.
TENANT_WEIGHTS = (1.75, 1.875, 2.0, 2.125)


def tenant_weights(seed: int) -> Tuple[float, float]:
    """Share weights of the two ``tenant_qos`` tenants."""
    if seed == DEFAULT_SEED:
        return (2.0, 1.0)
    return (random.Random(seed).choice(TENANT_WEIGHTS), 1.0)


def paging_system(seed: int) -> DemandPagingConfig:
    """Figure 16's system with 1M-row tables and a 64 MB local budget."""
    return DemandPagingConfig(
        table_rows=1_000_000, local_budget_bytes=64 * MB, seed=seed
    )


@dataclass(frozen=True)
class Cell:
    """One independent simulation of a workload's pass."""

    name: str
    #: Runs the simulation; returns its results.  Configs are built per
    #: call, so ``NEUMMU_ENGINE`` selects the engine mode.
    run: Callable[[], object]
    #: The generated inputs the cell simulates, as text ("" for none):
    #: recorded digests are keyed by it.
    inputs: str = ""


# --------------------------------------------------------------------- #
# cells                                                                  #
# --------------------------------------------------------------------- #


def _dense_cells(network: str, order: Sequence[int]) -> List[Cell]:
    """One network: its oracle cell, then one cell per design in ``order``.

    The oracle cell starts the pass's ``ExperimentRunner`` for the
    network, so each design cell's ``normalized_many`` finds its oracle
    cached and simulates only the design.  The cells of a network run in
    this order within every pass.
    """
    factory = DenseWorkloadFactory(network, 1)
    runners: List[ExperimentRunner] = []

    def oracle() -> object:
        runners[:] = [ExperimentRunner(jobs=1, warmup=WARMUP)]
        return runners[0].oracle(network, factory)

    def design(index: int) -> Callable[[], object]:
        def run() -> object:
            request = RunRequest(network, factory, dense_designs()[index])
            [(normalized, result)] = runners[0].normalized_many([request])
            return {"normalized": normalized, "result": result}

        return run

    names = [config.name for config in dense_designs()]
    return [Cell(f"dense_sweep/{network}/oracle", oracle)] + [
        Cell(f"dense_sweep/{network}/{names[i]}", design(i))
        for i in order
    ]


def _tenant_cell(qos: str, arbitration: str, mmu: str,
                 weights: Tuple[float, float]) -> Cell:
    factory = DenseWorkloadFactory("RNN-2", 1)

    def run() -> object:
        request = TenantRunRequest(
            label=f"tenant_qos/{mmu}/{qos}/{arbitration}",
            factories=(factory, factory),
            mmu_config=(
                neummu_config() if mmu == "neummu" else baseline_iommu_config()
            ),
            arbitration=arbitration,
            qos=qos,
            weights=weights,
        )
        return ParallelRunner(jobs=1, warmup=WARMUP).run_many([request])[0]

    return Cell(f"tenant_qos/{mmu}/{qos}/{arbitration}", run,
                inputs=f"weights={weights}")


def _dlrm_cell(mmu: str, system: DemandPagingConfig) -> Cell:
    def run() -> object:
        config = (
            neummu_config(page_size=PAGE_SIZE_4K)
            if mmu == "neummu"
            else baseline_iommu_config(page_size=PAGE_SIZE_4K)
        )
        return demand_paging_cell(dlrm(), config, 64, system)

    return Cell(f"paged_sparse/dlrm-b64/{mmu}", run,
                inputs=f"zipf_seed={system.seed}")


def _paged_tenants_cell() -> Cell:
    def run() -> object:
        request = TenantRunRequest(
            label="paged_sparse/rnn+recsys",
            factories=tuple(mix_factories("rnn,recsys")),
            mmu_config=baseline_iommu_config(),
            arbitration="weighted_quantum",
            qos="weighted",
            weights=(2.0, 1.0),
            tiering=TieringConfig(),
            memory_budgets=(32 * MB, 32 * MB),
        )
        return ParallelRunner(jobs=1, warmup=WARMUP).run_many([request])[0]

    return Cell("paged_sparse/rnn+recsys/iommu", run)


def cells(name: str, seed: int) -> List[Cell]:
    """One pass of workload ``name`` at ``seed``, in the order it runs."""
    if name == "dense_sweep":
        rng = random.Random(seed)
        networks = list(DENSE_WORKLOADS)
        rng.shuffle(networks)
        out = []
        for network in networks:
            order = [0, 1, 2]
            rng.shuffle(order)
            out += _dense_cells(network, order)
        return out
    if name == "tenant_qos":
        weights = tenant_weights(seed)
        out = [
            _tenant_cell(qos, arbitration, "iommu", weights)
            for qos in SHARE_POLICIES
            for arbitration in ARBITRATION_POLICIES
        ]
        out += [
            _tenant_cell(qos, "weighted_quantum", "neummu", weights)
            for qos in SHARE_POLICIES
        ]
        return out
    if name == "paged_sparse":
        system = paging_system(seed)
        return [
            _dlrm_cell("iommu", system),
            _dlrm_cell("neummu", system),
            _paged_tenants_cell(),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------- #
# set-up                                                                 #
# --------------------------------------------------------------------- #


def _materialise(network: str) -> None:
    """Build one dense network and the DMA streams its runs replay.

    Allocation, page-table population and tiling are cached per
    (workload, page size) by ``NPUSimulator``; the columnar stream of a
    tile fetch is cached with them.  A FAST-fidelity run simulates the
    first ``WARMUP`` instances of each tile-step signature, so those are
    the fetches whose streams are materialised here.
    """
    sim = NPUSimulator(DenseWorkloadFactory(network, 1)(), oracle_config())
    seen: Dict[tuple, int] = {}
    for schedule in sim.schedules:
        for step in schedule.steps:
            if not step.fetches:
                continue
            instances = seen.get(step.signature, 0)
            if instances >= WARMUP:
                continue
            seen[step.signature] = instances + 1
            for fetch in step.fetches:
                sim.dma.transactions(fetch)


def build(name: str, seed: int) -> List[Cell]:
    """Set up workload ``name`` so that timing can begin; returns its cells."""
    if name == "dense_sweep":
        for network in DENSE_WORKLOADS:
            _materialise(network)
    elif name == "tenant_qos":
        _materialise("RNN-2")
    # paged_sparse has nothing to pre-build: paged tenants map pages as
    # they fault, so their construction is part of every run.
    return cells(name, seed)


# --------------------------------------------------------------------- #
# results                                                                #
# --------------------------------------------------------------------- #


def _canonical(obj: object) -> object:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, float):
        return repr(obj)  # exact: a float digest must not round
    return obj


def digest(results: object) -> str:
    """sha256 over every simulated statistic of one cell's results."""
    text = json.dumps(_canonical(results), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_result(results: object) -> object:
    """The result object holding a cell's ``mmu_summary``."""
    if isinstance(results, dict):  # a dense design cell
        return results["result"]
    return getattr(results, "result", results)  # unwrap TenantRunOutcome


def summaries(results: object) -> List[object]:
    """Every ``RunSummary`` in one cell's results."""
    return [_run_result(results).mmu_summary]


def translations(results: object) -> int:
    """Translation requests one cell's results retired."""
    return sum(s.requests for s in summaries(results))


def neummu_overhead_pct(results_by_cell: Dict[str, object]) -> float:
    """100 x (1 - mean over the networks of oracle / NeuMMU cycles)."""
    ratios = [
        results_by_cell[f"dense_sweep/{network}/oracle"].total_cycles
        / results_by_cell[f"dense_sweep/{network}/neummu"]["result"].total_cycles
        for network in DENSE_WORKLOADS
    ]
    return 100.0 * (1.0 - sum(ratios) / len(ratios))
