"""Process-parallel experiment execution with on-disk result caching.

The paper's design-space sweeps (Figures 10-12 alone cover PRMB slots ×
walker counts × page sizes × six networks) are embarrassingly parallel:
every ``(workload, MMUConfig)`` grid point is an independent simulation.
:class:`ParallelRunner` shards such grids across a
:class:`~concurrent.futures.ProcessPoolExecutor` and memoizes finished
results on disk, keyed by a stable hash of everything that determines the
result — the workload label, the MMU and NPU configurations, the engine
mode, the fidelity mode, the warmup count, the compute model and (for
demand-paged runs) the tiering configuration and memory budgets.
Re-running a sweep with a warm cache costs milliseconds.

Two request kinds share one dispatch path and one cache:

* :class:`RunRequest` — a single-tenant grid point (one workload, one
  :class:`~repro.core.mmu.MMUConfig`), optionally demand-paged through a
  private :class:`~repro.memory.tiering.LocalMemoryTier` built inside the
  worker from its ``tiering``/``memory_budget`` fields.
* :class:`TenantRunRequest` — a multi-tenant grid cell (N workload
  factories on one shared MMU under a QoS/arbitration combo, optionally
  paged over one shared migration fabric).  Workers return a
  :class:`TenantRunOutcome` carrying the
  :class:`~repro.npu.simulator.MultiTenantResult` plus an exact
  :class:`TenantPagingSummary` of the fabric accounting, since the tier
  object itself stays behind in the worker process.

Workload factories must be *picklable* — module-level functions and the
dataclass factories in :mod:`repro.workloads.registry`
(:class:`~repro.workloads.registry.DenseWorkloadFactory`,
:class:`~repro.workloads.registry.CommonLayerFactory`) qualify; closures
do not.

Determinism: a simulation's outcome does not depend on which process runs
it, so ``jobs=N`` produces results identical to the serial path —
``tests/test_parallel.py`` locks this in.

Profiling: when ``NEUMMU_PROFILE_DIR`` is set, every worker execution
runs under :mod:`cProfile` and dumps ``worker-<pid>-<seq>.pstats`` into
that directory; ``neummu ... --profile --jobs N`` sets it and aggregates
the worker dumps into the printed hot-spot table (child-process work used
to vanish from the profile entirely).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.mmu import MMUConfig
from ..memory.tiering import TieringConfig
from ..npu.config import NPUConfig
from ..npu.simulator import (
    Fidelity,
    MultiTenantResult,
    MultiTenantSimulator,
    NPUSimulator,
    RunResult,
)

#: Bump when simulation semantics change in a way that invalidates old
#: cached results (the cache key embeds it).  2: the key now folds in the
#: effective engine mode and the tiering/paging configuration — schema-1
#: keys could serve a ``NEUMMU_ENGINE=reference`` run a cached columnar
#: result (and knew nothing about demand-paged runs at all).  3: the key
#: folds in the fast-path environment knobs — results are bit-identical
#: either way, but the CI byte-identity smokes that *prove* that would
#: otherwise be served one mode's cached cells while exercising the other.
#: 4: adds the mixed-window miss planner's knob.  5: the quota-planner
#: knobs are gone with their planners, so ``engine_knobs`` holds only
#: ``NEUMMU_CALENDAR``.
CACHE_SCHEMA = 5


def _engine_env_knobs() -> Dict[str, bool]:
    """Effective fast-path environment knobs, folded into cache keys.

    ``NEUMMU_CALENDAR`` selects between bit-identical engine paths, so
    sharing cached results across them would be *correct* — but it would
    silently turn a calendar on/off byte-identity comparison into a
    cache-hit no-op.  Keyed separately so a poisoned run of one mode can
    never mask a divergence in the other.
    """
    return {
        "calendar": os.environ.get("NEUMMU_CALENDAR", "1") != "0",
    }


@dataclass(frozen=True)
class RunRequest:
    """One grid point: a labelled workload under one MMU configuration.

    ``tiering``/``memory_budget`` make the run demand-paged: the worker
    builds a private :class:`~repro.memory.tiering.LocalMemoryTier`
    (fabric sized per ``tiering``) and first-touch faults migrate pages
    in — the isolated-baseline legs of the paging figures.
    """

    label: str
    factory: Callable[[], object]
    mmu_config: MMUConfig
    tiering: Optional[TieringConfig] = None
    memory_budget: Optional[int] = None


@dataclass(frozen=True)
class TenantRunRequest:
    """One multi-tenant grid cell: N workloads on one shared MMU.

    ``factories`` is one picklable zero-arg workload factory per tenant
    (ASID = position).  ``qos=None`` defers to ``mmu_config.qos`` exactly
    like :class:`~repro.npu.simulator.MultiTenantSimulator`;
    ``tiering``/``memory_budgets`` enable the shared demand-paged tier.
    """

    label: str
    factories: Tuple[Callable[[], object], ...]
    mmu_config: MMUConfig
    arbitration: str = "round_robin"
    qos: Optional[str] = None
    weights: Optional[Tuple[float, ...]] = None
    tiering: Optional[TieringConfig] = None
    memory_budgets: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class TenantPagingSummary:
    """Exact fabric/tier accounting extracted from a worker's run.

    The :class:`~repro.memory.tiering.LocalMemoryTier` lives and dies in
    the worker process, so the numbers the paging figures assert on
    (byte conservation, whole-page moves, per-tenant fabric shares)
    travel back in this picklable summary instead.
    """

    #: ``asid -> fault count``, one entry per tenant the tier tracked.
    faults: Tuple[Tuple[int, int], ...]
    #: ``asid -> exact bytes migrated``, same key set as ``faults``.
    migrated_bytes: Tuple[Tuple[int, int], ...]
    fabric_total_bytes: int
    fabric_total_migrations: int


@dataclass(frozen=True)
class TenantRunOutcome:
    """What a :class:`TenantRunRequest` worker returns."""

    result: MultiTenantResult
    paging: Optional[TenantPagingSummary]


#: Either request kind; :meth:`ParallelRunner.run_many` accepts mixed
#: batches so a figure's isolated baselines and shared cells share one
#: process pool.
AnyRequest = Union[RunRequest, TenantRunRequest]


def _canonical(obj) -> object:
    """JSON-ready canonical form of configuration-like values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _canonical(v) for k, v in sorted(asdict(obj).items())}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Fidelity):
        return obj.value
    # Fall back to the type identity (e.g. a compute-model class).
    return type(obj).__qualname__


def factory_token(factory: object) -> str:
    """Stable identity of a workload factory for cache keying.

    Labels alone are not unique across experiments (the dense suite and
    the common-layer study can both emit ``CNN-1/b32``), so the factory's
    own identity joins every cache key.  Dataclass factories
    (:class:`~repro.workloads.registry.DenseWorkloadFactory` etc.) token
    stably by type + fields; arbitrary callables fall back to ``repr``,
    which is process-unique — correct, merely uncacheable across runs.
    """
    if factory is None:
        return "none"
    if is_dataclass(factory) and not isinstance(factory, type):
        return json.dumps(
            [type(factory).__qualname__, _canonical(factory)], sort_keys=True
        )
    return repr(factory)


def request_key(
    label: str,
    mmu_config: MMUConfig,
    npu_config: NPUConfig,
    fidelity: Fidelity,
    warmup: int,
    compute_model: object = None,
    factory: object = None,
    tiering: Optional[TieringConfig] = None,
    memory_budget: Optional[int] = None,
) -> str:
    """Stable hex digest identifying one simulation's full configuration.

    ``engine_mode`` joins explicitly (not just via the canonicalized
    config) because it is the one knob an environment variable
    (``NEUMMU_ENGINE``) injects into otherwise-identical configs — the
    cache must never serve a reference-mode run a columnar result or
    vice versa, even if the canonical form of :class:`MMUConfig` evolves.
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "label": label,
            "factory": factory_token(factory),
            "mmu": _canonical(mmu_config),
            "engine_mode": mmu_config.engine_mode,
            "engine_knobs": _engine_env_knobs(),
            "npu": _canonical(npu_config),
            "fidelity": fidelity.value,
            "warmup": warmup,
            "compute_model": _canonical(compute_model),
            "tiering": _canonical(tiering),
            "memory_budget": memory_budget,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def tenant_request_key(
    request: TenantRunRequest,
    npu_config: NPUConfig,
    fidelity: Fidelity,
    warmup: int,
    compute_model: object = None,
) -> str:
    """Stable hex digest for one multi-tenant grid cell.

    ``qos`` is normalized to its effective value (``mmu_config.qos`` when
    the request leaves it ``None``) so the two spellings of the same run
    share a cache entry.
    """
    effective_qos = (
        request.qos if request.qos is not None else request.mmu_config.qos
    )
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "kind": "tenants",
            "label": request.label,
            "factories": [factory_token(f) for f in request.factories],
            "mmu": _canonical(request.mmu_config),
            "engine_mode": request.mmu_config.engine_mode,
            "engine_knobs": _engine_env_knobs(),
            "npu": _canonical(npu_config),
            "fidelity": fidelity.value,
            "warmup": warmup,
            "compute_model": _canonical(compute_model),
            "arbitration": request.arbitration,
            "qos": effective_qos,
            "weights": _canonical(request.weights),
            "tiering": _canonical(request.tiering),
            "memory_budgets": _canonical(request.memory_budgets),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Pickle-file store for finished worker results.

    Writes are atomic (temp file + rename) so concurrent workers and
    concurrent sweep processes can share one directory safely.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str):
        """Cached result for ``key``, or None (corrupt entries read as misses)."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def put(self, key: str, result: object) -> None:
        """Store ``result`` under ``key`` atomically."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


#: Per-process counter distinguishing a worker's successive profile dumps.
_PROFILE_SEQ = itertools.count()


def _profiled(fn: Callable, payload: Tuple):
    """Run ``fn(payload)``, honouring the worker-profiling contract.

    With ``NEUMMU_PROFILE_DIR`` set, the execution runs under
    :mod:`cProfile` and the stats land in that directory as
    ``worker-<pid>-<seq>.pstats`` — one dump per simulated grid point, so
    the parent's ``--profile`` aggregation sees child-process work.
    """
    profile_dir = os.environ.get("NEUMMU_PROFILE_DIR")
    if not profile_dir:
        return fn(payload)
    import cProfile

    profile = cProfile.Profile()
    try:
        return profile.runcall(fn, payload)
    finally:
        directory = Path(profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profile.dump_stats(
            directory / f"worker-{os.getpid()}-{next(_PROFILE_SEQ)}.pstats"
        )


def _build_tier(tiering: Optional[TieringConfig], mmu_config, npu_config):
    """Private demand-paging tier for an isolated (single-tenant) run."""
    # Deferred: repro.sparse imports repro.npu at package level.
    from ..memory.tiering import LocalMemoryTier, MigrationFabric
    from ..sparse.numa import nvlink_link

    tier_cfg = tiering if tiering is not None else TieringConfig()
    fabric = MigrationFabric(
        nvlink_link(npu_config.interconnect), slots=tier_cfg.fabric_slots
    )
    return LocalMemoryTier(
        fabric,
        page_size=mmu_config.page_size,
        fault_overhead_cycles=tier_cfg.fault_overhead_cycles,
        eviction=tier_cfg.eviction,
    )


def _run_single(payload: Tuple) -> RunResult:
    (
        factory,
        mmu_config,
        npu_config,
        compute_model,
        fidelity_value,
        warmup,
        tiering,
        memory_budget,
    ) = payload
    kwargs = {}
    if tiering is not None or memory_budget is not None:
        tier_cfg = tiering if tiering is not None else TieringConfig()
        kwargs["paging_tier"] = _build_tier(tiering, mmu_config, npu_config)
        kwargs["memory_budget"] = (
            memory_budget
            if memory_budget is not None
            else tier_cfg.default_budget_bytes
        )
    sim = NPUSimulator(
        factory(),
        mmu_config,
        npu_config=npu_config,
        compute_model=compute_model,
        fidelity=Fidelity(fidelity_value),
        warmup=warmup,
        **kwargs,
    )
    return sim.run()


def _execute(payload: Tuple) -> RunResult:
    """Worker entry point: run one simulation (must stay module-level)."""
    return _profiled(_run_single, payload)


def _run_tenants(payload: Tuple) -> TenantRunOutcome:
    request, npu_config, compute_model, fidelity_value, warmup = payload
    sim = MultiTenantSimulator(
        [factory() for factory in request.factories],
        request.mmu_config,
        npu_config=npu_config,
        arbitration=request.arbitration,
        compute_model=compute_model,
        fidelity=Fidelity(fidelity_value),
        warmup=warmup,
        qos=request.qos,
        weights=request.weights,
        paging=request.tiering,
        memory_budgets=request.memory_budgets,
    )
    result = sim.run()
    paging = None
    if sim.paging is not None:
        tier = sim.paging
        tracked = sorted(tier.tenants)
        paging = TenantPagingSummary(
            faults=tuple((asid, tier.tenants[asid].faults) for asid in tracked),
            migrated_bytes=tuple(
                (asid, tier.migrated_bytes_of(asid)) for asid in tracked
            ),
            fabric_total_bytes=tier.fabric.total_bytes,
            fabric_total_migrations=tier.fabric.total_migrations,
        )
    return TenantRunOutcome(result=result, paging=paging)


def _execute_tenants(payload: Tuple) -> TenantRunOutcome:
    """Worker entry point for multi-tenant cells (must stay module-level)."""
    return _profiled(_run_tenants, payload)


class ParallelRunner:
    """Shards simulation grid points across processes.

    ``jobs <= 1`` runs everything in-process (no executor overhead) but
    still consults the cache; results are identical either way.  With
    ``cache_dir`` unset, no on-disk caching happens.  Batches may mix
    :class:`RunRequest` and :class:`TenantRunRequest` freely.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        npu_config: Optional[NPUConfig] = None,
        compute_model: object = None,
        fidelity: Fidelity = Fidelity.FAST,
        warmup: int = 4,
    ):
        if jobs < 0:
            raise ValueError(f"jobs cannot be negative, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.npu_config = npu_config or NPUConfig()
        self.compute_model = compute_model
        self.fidelity = fidelity
        self.warmup = warmup
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: Grid points actually simulated (cache misses) since construction.
        self.simulated = 0

    # ------------------------------------------------------------------ #

    def key_of(self, request: AnyRequest) -> str:
        """Cache key of one request under this runner's configuration."""
        if isinstance(request, TenantRunRequest):
            return tenant_request_key(
                request,
                self.npu_config,
                self.fidelity,
                self.warmup,
                self.compute_model,
            )
        return request_key(
            request.label,
            request.mmu_config,
            self.npu_config,
            self.fidelity,
            self.warmup,
            self.compute_model,
            factory=request.factory,
            tiering=request.tiering,
            memory_budget=request.memory_budget,
        )

    def _payload(self, request: AnyRequest) -> Tuple:
        if isinstance(request, TenantRunRequest):
            return (
                request,
                self.npu_config,
                self.compute_model,
                self.fidelity.value,
                self.warmup,
            )
        return (
            request.factory,
            request.mmu_config,
            self.npu_config,
            self.compute_model,
            self.fidelity.value,
            self.warmup,
            request.tiering,
            request.memory_budget,
        )

    @staticmethod
    def _worker(request: AnyRequest) -> Callable[[Tuple], object]:
        if isinstance(request, TenantRunRequest):
            return _execute_tenants
        return _execute

    def run_many(self, requests: Sequence[AnyRequest]) -> List:
        """Run every request; returns results in request order.

        Cached results are returned without simulating; the remainder is
        sharded across ``jobs`` worker processes (or run inline for
        ``jobs=1``/single pending requests).  :class:`RunRequest` entries
        yield :class:`~repro.npu.simulator.RunResult`,
        :class:`TenantRunRequest` entries :class:`TenantRunOutcome`.
        """
        results: List[Optional[object]] = [None] * len(requests)
        pending: List[Tuple[int, Optional[str]]] = []
        for idx, request in enumerate(requests):
            key = self.key_of(request) if self.cache is not None else None
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[idx] = cached
            else:
                pending.append((idx, key))

        if pending:
            self.simulated += len(pending)
            if self.jobs > 1 and len(pending) > 1:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending))
                ) as pool:
                    futures = [
                        pool.submit(
                            self._worker(requests[idx]),
                            self._payload(requests[idx]),
                        )
                        for idx, _ in pending
                    ]
                    for (idx, key), future in zip(pending, futures):
                        results[idx] = future.result()
                        if self.cache is not None:
                            self.cache.put(key, results[idx])
            else:
                for idx, key in pending:
                    results[idx] = self._worker(requests[idx])(
                        self._payload(requests[idx])
                    )
                    if self.cache is not None:
                        self.cache.put(key, results[idx])
        return results

    def run_one(self, request: RunRequest) -> RunResult:
        """Run a single request through the same cache-aware path."""
        return self.run_many([request])[0]

    def run_tenants(self, request: TenantRunRequest) -> TenantRunOutcome:
        """Run a single multi-tenant cell through the cache-aware path."""
        return self.run_many([request])[0]
