"""The traced run's layers, hooks and per-layer metrics.

Layers are named after the ``repro`` modules whose public functions they
wrap.  Modules not listed here (``npu.systolic``, ``core.prmb``,
``core.pts``, the ``sparse`` helpers, ...) are not wrapped: their time
counts as self time of the wrapped caller.  Work a module does through
inlined code, rather than calls to another module's public functions,
likewise shows as the caller's self time, and is not in the callee's
counts.  See ``METRICS.md`` for what each metric means and which
end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .tracer import Tracer

#: Layer name -> the modules whose public functions it wraps.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.registry",
        "repro.workloads.cnn",
        "repro.workloads.rnn",
        "repro.workloads.layers",
        "repro.workloads.embedding",
    ),
    "memory.address": ("repro.memory.address", "repro.memory.allocator"),
    "npu.tiling": ("repro.npu.tiling",),
    "npu.dma": ("repro.npu.dma",),
    "npu.simulator": ("repro.npu.simulator",),
    "core.engine": ("repro.core.engine",),
    "core.calendar": ("repro.core.calendar",),
    "core.qos": ("repro.core.qos",),
    "core.mmu": ("repro.core.mmu",),
    "core.tlb": ("repro.core.tlb",),
    "core.tpreg": ("repro.core.tpreg",),
    "core.ptw": ("repro.core.ptw",),
    "memory.page_table": ("repro.memory.page_table",),
    "memory.dram": ("repro.memory.dram",),
    "memory.tiering": ("repro.memory.tiering",),
    "sparse.demand_paging": ("repro.sparse.demand_paging",),
    "analysis.runner": ("repro.analysis.runner",),
    "analysis.parallel": ("repro.analysis.parallel",),
}

#: Private functions wrapped as well: the multi-tenant tile pipeline's
#: steps (else their time lands in the arbiter that calls them) and the
#: DMA stream build behind the stream cache.
EXTRA = (
    ("repro.npu.simulator", "_TenantRun.advance"),
    ("repro.npu.simulator", "_TenantRun.advance_quiet"),
    ("repro.npu.dma", "DMAEngine._transactions_columnar"),
)

_PLANNERS = ("plan_stretch", "plan_window", "plan_hits")
_DRAINS = ("drain_stretch", "drain_window", "drain_hits")


#: Share-policy calls that set a policy up rather than decide a quota;
#: every MMU makes two of them (``make_share_policy``, ``register``).
_POLICY_SETUP = ("make_share_policy", "register", "unregister", "set_weight")


def _classify(layer: str, cls: Optional[type], name: str) -> str:
    """``core.qos`` splits into arbiters, share-policy set-up and
    share-policy decisions: an arbiter's ``run`` encloses the whole
    multi-tenant run, policy calls included."""
    if layer != "core.qos":
        return layer
    if (cls is not None and "Arbiter" in cls.__name__) or name == "make_arbiter":
        return "core.qos.arbiter"
    if name in _POLICY_SETUP:
        return "core.qos.setup"
    return "core.qos.policy"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tile_steps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("tile_steps", len(result.steps))


def _dma_stream(tracer: Tracer, args, kwargs, result) -> None:
    if not args[0].emit_columns:  # object-mode streams are never cached
        tracer.count("streams_built")


def _columnar_stream(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("streams_built")


def _burst(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("burst_txns", len(_arg(args, kwargs, 1, "transactions")))
    if tracer.inside("npu.simulator"):
        tracer.count("bursts_simulated")


def _plan(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("plans")
    if result is not None and not (isinstance(result, (int, float)) and result <= 0):
        tracer.count("plans_yielded")


def _migrate(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("migrated_bytes", _arg(args, kwargs, 2, "nbytes"))


def _unmap(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("memory.tiering"):
        tracer.count("evictions")


def _map_page(tracer: Tracer, args, kwargs, result) -> None:
    if not tracer.inside("memory.page_table"):  # map_range counts its own
        tracer.count("maps")


def _map_range(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("maps", result)


def _run_many(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("cells", len(_arg(args, kwargs, 1, "requests")))


def _hooks() -> Dict[str, object]:
    hooks: Dict[str, object] = {
        "repro.npu.dma:DMAEngine.transactions": _dma_stream,
        "repro.npu.dma:DMAEngine._transactions_columnar": _columnar_stream,
        "repro.core.engine:TranslationEngine.run_burst": _burst,
        "repro.memory.tiering:MigrationFabric.migrate": _migrate,
        "repro.memory.page_table:PageTable.unmap_page": _unmap,
        "repro.memory.page_table:PageTable.map_page": _map_page,
        "repro.memory.page_table:PageTable.map_range": _map_range,
        "repro.analysis.parallel:ParallelRunner.run_many": _run_many,
    }
    for planner in ("plan_gemm", "plan_conv", "plan_recurrent"):
        hooks[f"repro.npu.tiling:{planner}"] = _tile_steps
    for planner in _PLANNERS:
        hooks[f"repro.core.calendar:CompletionCalendar.{planner}"] = _plan
    return hooks


def make_tracer(min_span_ns: int = 1_000_000) -> Tracer:
    """A tracer over :data:`LAYERS`, not yet installed."""
    return Tracer(
        LAYERS,
        extra=EXTRA,
        classify=_classify,
        hooks=_hooks(),
        scan_prefixes=("repro.", "perfbench."),
        min_span_ns=min_span_ns,
    )


# --------------------------------------------------------------------- #
# per-layer metrics                                                      #
# --------------------------------------------------------------------- #


def _calls(tracer: Tracer, *names: str) -> int:
    return sum(tracer.funcs[n].calls for n in names if n in tracer.funcs)


def _total_s(tracer: Tracer, *names: str) -> float:
    return sum(tracer.funcs[n].total_ns for n in names if n in tracer.funcs) / 1e9


def _group(tracer: Tracer, group: str) -> List:
    return [s for s in tracer.funcs.values() if s.group == group]


def _outer_s(tracer: Tracer, group: str) -> float:
    return sum(s.outer_ns for s in _group(tracer, group)) / 1e9


def _self_s(tracer: Tracer, layer: str) -> float:
    return sum(s.self_ns for s in tracer.funcs.values() if s.layer == layer) / 1e9


def _layer_calls(tracer: Tracer, layer: str) -> int:
    return sum(s.calls for s in tracer.funcs.values() if s.layer == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SIM_COUNTERS = (
    ("core.mmu.sim_tlb_hit_rate", "fraction"),
    ("core.mmu.sim_walks", "count"),
    ("core.mmu.sim_merges", "count"),
    ("core.mmu.sim_stall_mcycles", "Mcycles"),
    ("core.mmu.sim_faults", "count"),
)


def simulated_counters(summaries: Iterable) -> Dict[str, float]:
    """Exact simulated totals over ``RunSummary`` objects."""
    requests = hits = walks = merges = faults = 0
    stall = 0.0
    for s in summaries:
        requests += s.requests
        hits += s.tlb_hits
        walks += s.walks
        merges += s.merges
        stall += s.stall_cycles
        faults += s.faults
    return {
        "core.mmu.sim_tlb_hit_rate": _ratio(hits, requests),
        "core.mmu.sim_walks": walks,
        "core.mmu.sim_merges": merges,
        "core.mmu.sim_stall_mcycles": stall / 1e6,
        "core.mmu.sim_faults": faults,
    }


def tracer_metrics(t: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric the tracer measures, as (value, unit)."""
    c = t.counters
    dma = "repro.npu.dma:DMAEngine.transactions"
    bursts = _calls(t, "repro.core.engine:TranslationEngine.run_burst")
    plans = [f"repro.core.calendar:CompletionCalendar.{p}" for p in _PLANNERS]
    drains = [f"repro.core.calendar:CompletionCalendar.{p}" for p in _DRAINS]
    tlb_invalidates = [
        f"repro.core.tlb:{cls}.{m}"
        for cls in ("TLB", "TwoLevelTLB")
        for m in ("invalidate", "invalidate_asid", "flush")
    ]
    walks = ("repro.memory.page_table:PageTable.walk",
             "repro.memory.page_table:PageTable.resolve")
    m: Dict[str, Tuple[float, str]] = {
        "workloads.build_s": (_outer_s(t, "workloads"), "s"),
        "memory.address.alloc_s": (_total_s(
            t, "repro.memory.allocator:AddressSpace.alloc_segment"), "s"),
        "memory.address.segments": (_calls(
            t, "repro.memory.allocator:AddressSpace.alloc_segment"), "count"),
        "npu.tiling.plan_s": (_outer_s(t, "npu.tiling"), "s"),
        "npu.tiling.tile_steps": (c.get("tile_steps", 0), "count"),
        "npu.dma.stream_s": (_total_s(t, dma), "s"),
        "npu.dma.streams_built": (c.get("streams_built", 0), "count"),
        "npu.dma.stream_reuse": (
            1.0 - _ratio(c.get("streams_built", 0), _calls(t, dma))
            if _calls(t, dma) else 0.0,
            "fraction",
        ),
        "npu.simulator.bursts_simulated": (c.get("bursts_simulated", 0), "count"),
        "core.engine.burst_s": (_outer_s(t, "core.engine"), "s"),
        "core.engine.bursts": (bursts, "count"),
        "core.engine.txns_per_burst": (_ratio(c.get("burst_txns", 0), bursts), "count"),
        "core.calendar.plan_calls": (_calls(t, *plans), "count"),
        "core.calendar.plan_yield": (
            _ratio(c.get("plans_yielded", 0), c.get("plans", 0)), "fraction"),
        "core.calendar.plan_s": (_total_s(t, *plans), "s"),
        "core.calendar.drain_s": (_total_s(t, *drains), "s"),
        "core.qos.arbiter_s": (
            sum(s.self_ns for s in _group(t, "core.qos.arbiter")) / 1e9, "s"),
        "core.qos.policy_calls": (
            sum(s.calls for s in _group(t, "core.qos.policy")), "count"),
        "core.qos.policy_s": (_outer_s(t, "core.qos.policy"), "s"),
        "core.mmu.translate_calls": (_calls(t, "repro.core.mmu:MMU.translate"), "count"),
        "core.mmu.completions_s": (
            _total_s(t, "repro.core.mmu:MMU.process_completions"), "s"),
        "core.mmu.shootdowns": (_calls(t, "repro.core.mmu:MMU.shootdown"), "count"),
        "core.mmu.shootdown_s": (_total_s(t, "repro.core.mmu:MMU.shootdown"), "s"),
        "core.tlb.ops": (_layer_calls(t, "core.tlb"), "count"),
        "core.tlb.s": (_outer_s(t, "core.tlb"), "s"),
        "core.tlb.invalidates": (_calls(t, *tlb_invalidates), "count"),
        "core.tpreg.lookups": (_calls(t, "repro.core.tpreg:TPreg.lookup"), "count"),
        "core.tpreg.s": (_outer_s(t, "core.tpreg"), "s"),
        "core.ptw.walks_started": (
            _calls(t, "repro.core.ptw:WalkerPool.start_walk"), "count"),
        "core.ptw.s": (_outer_s(t, "core.ptw"), "s"),
        "memory.page_table.walks": (_calls(t, *walks), "count"),
        "memory.page_table.walk_s": (_total_s(t, *walks), "s"),
        "memory.page_table.maps": (c.get("maps", 0), "count"),
        "memory.page_table.unmaps": (
            _calls(t, "repro.memory.page_table:PageTable.unmap_page"), "count"),
        "memory.dram.accesses": (_calls(t, "repro.memory.dram:MainMemory.access"), "count"),
        "memory.dram.s": (_outer_s(t, "memory.dram"), "s"),
        "memory.tiering.faults": (
            _calls(t, "repro.memory.tiering:LocalMemoryTier.handle_fault"), "count"),
        "memory.tiering.fault_s": (
            _total_s(t, "repro.memory.tiering:LocalMemoryTier.handle_fault"), "s"),
        "memory.tiering.evictions": (c.get("evictions", 0), "count"),
        "memory.tiering.migrated_mb": (c.get("migrated_bytes", 0) / (1024 * 1024), "MB"),
        "analysis.parallel.cells": (c.get("cells", 0), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_self_s(t, layer), "s")
    return m


#: Per-layer metrics that must read zero, by workload: the layers a
#: workload never exercises.
PREDICTED_ZEROS: Dict[str, Tuple[str, ...]] = {
    "dense_sweep": (
        "core.qos.arbiter_s",
        "core.qos.policy_calls",
        "core.qos.policy_s",
        "memory.tiering.faults",
        "memory.tiering.fault_s",
        "memory.tiering.evictions",
        "memory.tiering.migrated_mb",
        "memory.tiering.self_s",
        "memory.page_table.unmaps",
    ),
    "tenant_qos": (
        "memory.tiering.faults",
        "memory.tiering.fault_s",
        "memory.tiering.evictions",
        "memory.tiering.migrated_mb",
        "memory.tiering.self_s",
        "memory.page_table.unmaps",
    ),
    "paged_sparse": (),
}
