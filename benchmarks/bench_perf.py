"""Perf-regression harness: wall-clock + translations/sec per scenario.

Times three scenarios that exercise the simulator's distinct hot paths
and writes ``benchmarks/results/BENCH_perf.json``:

* ``engine_fastpath`` — the batched translation engine alone (streaming
  bursts on the NeuMMU design point; PR 1's fast path).
* ``single_tenant`` — a full workload run (CNN-1 on NeuMMU; tile
  pipeline + FAST fidelity + engine).
* ``qos_sweep`` — the full 9-combo share-policy × arbitration sweep on
  the 8-walker baseline IOMMU (2 RNN-2 tenants, 2:1 weights): the
  multi-tenant contended path this repo's QoS studies live on.  Honours
  ``NEUMMU_JOBS`` (grid cells shard across processes); committed
  baselines are always serial.
* ``contended_sweep`` — the walker-completion-calendar path isolated:
  3 RNN-2 tenants saturating the 8-walker IOMMU under the two
  non-trivial QoS regimes, so the weekly gate watches the calendar's
  bulk-retire discipline directly.  Recorded from PR 8 onward.
* ``quota_hit_phase`` — a quota-regime hit phase isolated: two
  weighted tenants alternating cold-walk trains with long resident hit
  stretches, so walker completions come due *inside* the stretches and
  the hit/retire ping-pong runs per event.  Recorded from PR 9 onward
  (it was built for a closed-form hit planner since removed at parity).
* ``quota_miss_phase`` — a quota-regime miss phase isolated: two
  weighted tenants alternating saturated cold-page storms (one
  transaction per fresh page, shot down between bursts so every pass
  stays cold), so the issue port lives in the blocked
  stall/retire/restart chain.  Recorded from PR 10 onward (it was built
  for a mixed-window miss planner since removed at parity).
* ``demand_paging`` — one DLRM Figure 16 cell on the 8-walker IOMMU
  plus a 2-tenant paged contention run through the memory-tier
  subsystem (``repro.memory.tiering``): fault handling, migration-fabric
  accounting and budget eviction on the shootdown path.  Recorded from
  PR 5 onward (no earlier baseline exists for it).

Each scenario reports wall-clock seconds, the number of translation
requests it retired, and translations/sec — the throughput number to
watch across PRs.  ``BASELINE`` pins per-PR before/after pairs, each
measured back to back on that PR's development machine (PR 4: the
event-driven scheduling core; PR 6: the columnar transaction core,
including the reference-engine-mode numbers the columnar path is
golden-diffed against).  Compare like-for-like: absolute numbers are
machine-dependent; the *ratio* between a fresh run and a stored run on
the same machine is the signal.

Run directly (``python -m benchmarks.bench_perf``) or via the weekly CI
job, which passes ``--check``: every scenario's throughput ratio against
the committed root ``BENCH_perf.json`` is normalized by the
cross-scenario median (machine speed cancels out) and the job fails if
any scenario sits more than 20% below the normalized expectation
(records of schema 1 and 2 both compare).  Output goes to
``benchmarks/results/BENCH_perf.json``
(gitignored, like every generated benchmark artifact) so local and CI
runs never dirty the working tree; the copy committed at the repository
root is the frozen record taken once the quota planners were deleted
and every share policy ran on one batched engine path (the columnar
engine, completion calendar and in-runner fault handling), regenerated
only when a change intentionally moves the needle.  ``NEUMMU_PERF_OUT`` overrides the
output path.

Paired A/B mode (``--paired VAR=a,b [--pairs N] [--only s1,s2]``): times
each scenario under both values of one environment knob, *interleaved*
back to back (A then B, order flipped every pair so ambient machine
drift cancels instead of biasing one leg), and reports the per-scenario
median throughput ratio b/a with its inter-quartile range.  This is the
methodology behind the per-PR ledger claims: single unpaired runs on a
shared box swing ±20% on ambient load alone, which is larger than most
effects being measured.

Records are schema 2 from PR 10 onward: each run carries its
environment provenance (every ``NEUMMU_*`` flag, the effective job
count, the CPU count) so a stored number can never be silently compared
against a run under different knobs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Before/after pairs measured back to back on one machine per PR (see
#: module docstring).  Kept in the output so the bench trajectory has
#: fixed points even on fresh checkouts.
BASELINE = {
    "note": (
        "each pre/post pair was measured back to back on that PR's "
        "development machine; compare ratios, not absolute numbers, "
        "across machines"
    ),
    "pre_pr4": {
        "engine_fastpath": {"wall_s": 0.129, "translations_per_sec": 2027699},
        "single_tenant": {"wall_s": 1.285, "translations_per_sec": 239641},
        "qos_sweep": {"wall_s": 30.138, "translations_per_sec": 88184},
    },
    "post_pr4": {
        "engine_fastpath": {"wall_s": 0.109, "translations_per_sec": 2409145},
        "single_tenant": {"wall_s": 0.926, "translations_per_sec": 332443},
        "qos_sweep": {"wall_s": 10.150, "translations_per_sec": 261847},
    },
    # PR 6 (columnar transaction core): the pre_pr6 row is the PR 5 tree
    # on the PR 6 machine; pr6_reference_engine is the same tree as the
    # current scenarios but with NEUMMU_ENGINE=reference — the per-object
    # golden path the columnar engine is diffed against bit for bit.
    "pre_pr6": {
        "engine_fastpath": {"wall_s": 0.148, "translations_per_sec": 1775662},
        "single_tenant": {"wall_s": 1.295, "translations_per_sec": 237630},
        "qos_sweep": {"wall_s": 14.127, "translations_per_sec": 188133},
        "demand_paging": {"wall_s": 1.932, "translations_per_sec": 95467},
    },
    "pr6_reference_engine": {
        "engine_fastpath": {"wall_s": 0.320, "translations_per_sec": 819603},
        "single_tenant": {"wall_s": 1.280, "translations_per_sec": 240565},
        "qos_sweep": {"wall_s": 18.558, "translations_per_sec": 143205},
        "demand_paging": {"wall_s": 1.863, "translations_per_sec": 99052},
    },
    # PR 8 (batched walker-completion calendar): the pre_pr8 row is the
    # PR 7 tree on the PR 8 machine (no contended_sweep scenario existed
    # yet), measured back to back with post_pr8.  The PR 8 machine is a
    # noisy shared 1-CPU box: repeated pairs put the qos_sweep gain at
    # 1.15-1.6x depending on ambient load — honest numbers, well short
    # of the 3x single-process target (see README "Performance").
    "pre_pr8": {
        "engine_fastpath": {"wall_s": 0.143, "translations_per_sec": 1830781},
        "single_tenant": {"wall_s": 1.112, "translations_per_sec": 276704},
        "qos_sweep": {"wall_s": 7.536, "translations_per_sec": 352665},
        "demand_paging": {"wall_s": 1.244, "translations_per_sec": 148353},
    },
    "post_pr8": {
        "engine_fastpath": {"wall_s": 0.185, "translations_per_sec": 1418611},
        "single_tenant": {"wall_s": 1.055, "translations_per_sec": 291915},
        "qos_sweep": {"wall_s": 6.455, "translations_per_sec": 411725},
        "contended_sweep": {"wall_s": 2.660, "translations_per_sec": 333011},
        "demand_paging": {"wall_s": 1.262, "translations_per_sec": 146177},
    },
    # PR 9 (closed-form quota burn-down): pre_pr9 is the PR 9 tree with
    # NEUMMU_QUOTA_BATCH=0 (the per-event hit/retire ping-pong), post_pr9
    # the default batched planner; each row is the per-scenario median of
    # three interleaved back-to-back pairs on the same noisy shared box.
    # Interleaved paired ratios put qos_sweep off/on at a median of ~1.01
    # (parity; individual pairs swing 0.91-1.24 on ambient load alone),
    # far short of the 1.5x batching goal for this phase: on the RNN
    # sweeps hit stretches carry one or two dues and sit below the
    # planner's three-due profitability gate, and even quota_hit_phase —
    # which engages the planner on every burst (200 planned stretches,
    # 900 deferred retirements, zero fallbacks) — stays at parity because
    # the per-event mode already span-batches *between* dues and the dues
    # per stretch are bounded by walker-pool depth.  See README
    # "Performance" for the full accounting.
    "pre_pr9": {
        "engine_fastpath": {"wall_s": 0.162, "translations_per_sec": 1619828},
        "single_tenant": {"wall_s": 1.137, "translations_per_sec": 270708},
        "qos_sweep": {"wall_s": 5.594, "translations_per_sec": 475131},
        "contended_sweep": {"wall_s": 2.550, "translations_per_sec": 347468},
        "quota_hit_phase": {"wall_s": 0.595, "translations_per_sec": 1028006},
        "demand_paging": {"wall_s": 1.349, "translations_per_sec": 136781},
    },
    "post_pr9": {
        "engine_fastpath": {"wall_s": 0.140, "translations_per_sec": 1867134},
        "single_tenant": {"wall_s": 1.051, "translations_per_sec": 292837},
        "qos_sweep": {"wall_s": 6.317, "translations_per_sec": 420710},
        "contended_sweep": {"wall_s": 2.576, "translations_per_sec": 343954},
        "quota_hit_phase": {"wall_s": 0.592, "translations_per_sec": 1032969},
        "demand_paging": {"wall_s": 1.334, "translations_per_sec": 138300},
    },
    # PR 10 (mixed-window miss-phase batching): pre_pr10 is the PR 10
    # tree with NEUMMU_MISS_BATCH=0 (per-event miss path), post_pr10 the
    # default mixed-window planner; one full back-to-back run per mode on
    # the same shared box.  These single-shot rows drift with ambient
    # load — the signal is the interleaved paired mode (``--paired
    # NEUMMU_MISS_BATCH=0,1 --pairs 5``), whose medians are 0.99x on
    # quota_miss_phase (IQR 0.96-0.99), 0.96x on qos_sweep (0.95-0.97)
    # and 1.02x on contended_sweep (1.02-1.04): parity, short of the
    # 1.5x/1.25x goals.  MISS_WINDOW telemetry explains it — on
    # quota_miss_phase all 900 mixed-window attempts decline with
    # fail_quota_bound at an average provable prefix of 3 transactions
    # (under the 12-txn floor), and the 150 own-windows that do plan
    # (~47% of the scenario's transactions) replace a per-event chain
    # that already span-batches between completions.  See README
    # "Performance" and ROADMAP open item 2.
    "pre_pr10": {
        "engine_fastpath": {"wall_s": 0.158, "translations_per_sec": 1663588},
        "single_tenant": {"wall_s": 1.181, "translations_per_sec": 260637},
        "qos_sweep": {"wall_s": 5.868, "translations_per_sec": 452899},
        "contended_sweep": {"wall_s": 2.848, "translations_per_sec": 311047},
        "quota_hit_phase": {"wall_s": 0.663, "translations_per_sec": 923025},
        "quota_miss_phase": {"wall_s": 0.375, "translations_per_sec": 96114},
        "demand_paging": {"wall_s": 1.459, "translations_per_sec": 126424},
    },
    "post_pr10": {
        "engine_fastpath": {"wall_s": 0.149, "translations_per_sec": 1756894},
        "single_tenant": {"wall_s": 1.043, "translations_per_sec": 295020},
        "qos_sweep": {"wall_s": 6.208, "translations_per_sec": 428133},
        "contended_sweep": {"wall_s": 3.240, "translations_per_sec": 273451},
        "quota_hit_phase": {"wall_s": 0.728, "translations_per_sec": 840274},
        "quota_miss_phase": {"wall_s": 0.457, "translations_per_sec": 78725},
        "demand_paging": {"wall_s": 1.543, "translations_per_sec": 119569},
    },
    # In-runner fault handling: pre_inrunner_faults is the tree before
    # the fused PRMB-less loops took page faults themselves and
    # post_inrunner_faults the tree after, six interleaved back-to-back
    # pairs on a shared 2-CPU box (order flipped every pair); each row is
    # the per-scenario median wall time.  Paired throughput ratios post/pre
    # (median, IQR): demand_paging 1.40x (1.38-1.43), qos_sweep 1.01x
    # (0.98-1.04), quota_hit_phase 1.02x (1.01-1.03), quota_miss_phase
    # 1.03x (0.95-1.10), single_tenant 0.98x (0.95-1.09),
    # engine_fastpath 0.96x (0.93-0.98), contended_sweep 0.95x
    # (0.91-0.98).  Only demand_paging runs the changed fault path; the
    # others drift with ambient load (single pairs swing 0.77-1.31), and
    # the drift-corrected perfbench workloads that share their code
    # measure dense_sweep 0.99x and tenant_qos 1.03x.
    "pre_inrunner_faults": {
        "engine_fastpath": {"wall_s": 0.217, "translations_per_sec": 1205260},
        "single_tenant": {"wall_s": 1.513, "translations_per_sec": 203525},
        "qos_sweep": {"wall_s": 8.805, "translations_per_sec": 301819},
        "contended_sweep": {"wall_s": 3.608, "translations_per_sec": 245534},
        "quota_hit_phase": {"wall_s": 0.940, "translations_per_sec": 651410},
        "quota_miss_phase": {"wall_s": 0.571, "translations_per_sec": 62992},
        "demand_paging": {"wall_s": 1.819, "translations_per_sec": 101422},
    },
    "post_inrunner_faults": {
        "engine_fastpath": {"wall_s": 0.230, "translations_per_sec": 1139757},
        "single_tenant": {"wall_s": 1.520, "translations_per_sec": 202454},
        "qos_sweep": {"wall_s": 8.392, "translations_per_sec": 316690},
        "contended_sweep": {"wall_s": 3.776, "translations_per_sec": 234579},
        "quota_hit_phase": {"wall_s": 0.879, "translations_per_sec": 696642},
        "quota_miss_phase": {"wall_s": 0.496, "translations_per_sec": 72508},
        "demand_paging": {"wall_s": 1.231, "translations_per_sec": 149868},
    },
    # Quota-planner deletion: pre_quota_planner_deletion is the tree with
    # the PR 9 burn-down and PR 10 mixed-window planners and
    # post_quota_planner_deletion the tree without them (quota regimes on
    # the per-event path), five interleaved back-to-back pairs on a shared
    # 2-CPU box (order flipped every pair); each row is the per-scenario
    # median wall time.  Paired throughput ratios post/pre (median, IQR):
    # engine_fastpath 1.05x (0.90-1.23), single_tenant 0.94x (0.89-1.17),
    # qos_sweep 1.07x (0.98-1.23), contended_sweep 1.17x (0.77-1.18),
    # quota_hit_phase 1.14x (0.92-1.24), quota_miss_phase 1.03x
    # (0.83-1.05), demand_paging 0.89x (0.84-0.98; 12 further
    # demand_paging-only pairs: 1.04x, 0.93-1.28).  Single pairs swung
    # 0.59-1.72 on ambient load: parity, which the drift-corrected
    # perfbench workloads confirm (tenant_qos 1.01x, dense_sweep 1.00x,
    # paged_sparse 1.00x).
    "pre_quota_planner_deletion": {
        "engine_fastpath": {"wall_s": 0.161, "translations_per_sec": 1628224},
        "single_tenant": {"wall_s": 1.174, "translations_per_sec": 262207},
        "qos_sweep": {"wall_s": 6.168, "translations_per_sec": 430879},
        "contended_sweep": {"wall_s": 2.774, "translations_per_sec": 319354},
        "quota_hit_phase": {"wall_s": 0.628, "translations_per_sec": 974522},
        "quota_miss_phase": {"wall_s": 0.345, "translations_per_sec": 104348},
        "demand_paging": {"wall_s": 0.894, "translations_per_sec": 206361},
    },
    "post_quota_planner_deletion": {
        "engine_fastpath": {"wall_s": 0.181, "translations_per_sec": 1448309},
        "single_tenant": {"wall_s": 1.191, "translations_per_sec": 258464},
        "qos_sweep": {"wall_s": 5.577, "translations_per_sec": 476540},
        "contended_sweep": {"wall_s": 2.998, "translations_per_sec": 295493},
        "quota_hit_phase": {"wall_s": 0.544, "translations_per_sec": 1125000},
        "quota_miss_phase": {"wall_s": 0.329, "translations_per_sec": 109422},
        "demand_paging": {"wall_s": 0.937, "translations_per_sec": 196891},
    },
    # One batched engine path: pre_single_batched_path is the tree with
    # separate full-share and contended batched burst paths and
    # post_single_batched_path the tree with the contended path folded
    # into the full-share one, five interleaved back-to-back pairs on a
    # shared 2-CPU box (order flipped every pair); each row is the
    # per-scenario median wall time.  Paired throughput ratios post/pre
    # (median, IQR): engine_fastpath 1.05x (1.00-1.05), single_tenant
    # 1.00x (0.96-1.01), qos_sweep 1.03x (0.99-1.06), contended_sweep
    # 1.03x (1.02-1.06), quota_hit_phase 1.06x (1.04-1.06),
    # quota_miss_phase 1.05x (1.04-1.14), demand_paging 1.03x
    # (1.03-1.04).  Single pairs swung 0.88-1.24: parity.
    "pre_single_batched_path": {
        "engine_fastpath": {"wall_s": 0.12, "translations_per_sec": 2184533},
        "single_tenant": {"wall_s": 0.777, "translations_per_sec": 396179},
        "qos_sweep": {"wall_s": 4.276, "translations_per_sec": 621530},
        "contended_sweep": {"wall_s": 1.942, "translations_per_sec": 456173},
        "quota_hit_phase": {"wall_s": 0.446, "translations_per_sec": 1372197},
        "quota_miss_phase": {"wall_s": 0.28, "translations_per_sec": 128571},
        "demand_paging": {"wall_s": 0.656, "translations_per_sec": 281230},
    },
    "post_single_batched_path": {
        "engine_fastpath": {"wall_s": 0.118, "translations_per_sec": 2221559},
        "single_tenant": {"wall_s": 0.794, "translations_per_sec": 387696},
        "qos_sweep": {"wall_s": 4.084, "translations_per_sec": 650750},
        "contended_sweep": {"wall_s": 1.857, "translations_per_sec": 477053},
        "quota_hit_phase": {"wall_s": 0.449, "translations_per_sec": 1363029},
        "quota_miss_phase": {"wall_s": 0.27, "translations_per_sec": 133333},
        "demand_paging": {"wall_s": 0.635, "translations_per_sec": 290531},
    },
}


def engine_fastpath():
    """Streaming bursts straight through the batched engine (NeuMMU)."""
    from repro.core.engine import TranslationEngine
    from repro.core.mmu import MMU, neummu_config
    from repro.memory.dram import MainMemory
    from repro.memory.page_table import PageTable

    base = 0x7F00_0000_0000
    page = 4096
    n_pages = 2048
    table = PageTable()
    table.map_range(base, n_pages * page, first_pfn=10)
    txs = [(base + k * 256, 256) for k in range(n_pages * 16)]
    mmu = MMU(neummu_config(), table)
    engine = TranslationEngine(mmu, MainMemory())
    started = time.perf_counter()
    for burst in range(8):
        engine.run_burst(txs, burst * 1e7)
    mmu.drain()
    return time.perf_counter() - started, mmu.stats.requests


def single_tenant():
    """One full CNN-1 workload on the NeuMMU design point."""
    from repro.core.mmu import neummu_config
    from repro.npu.simulator import run_workload
    from repro.workloads.registry import dense_workload

    workload = dense_workload("CNN-1", 1)
    started = time.perf_counter()
    result = run_workload(workload, neummu_config())
    return time.perf_counter() - started, result.mmu_summary.requests


def qos_sweep():
    """All 9 policy × arbitration combos, 2 tenants on the 8-walker IOMMU.

    Honours ``NEUMMU_JOBS``: the 9 grid cells are independent, so they
    shard across worker processes through
    :class:`~repro.analysis.parallel.ParallelRunner` (results identical;
    the committed baseline numbers are always ``NEUMMU_JOBS=1``).
    """
    from repro.analysis.parallel import ParallelRunner, TenantRunRequest
    from repro.core.mmu import baseline_iommu_config
    from repro.core.qos import ARBITRATION_POLICIES, SHARE_POLICIES
    from repro.workloads.registry import DenseWorkloadFactory

    factory = DenseWorkloadFactory("RNN-2", 1)
    config = baseline_iommu_config()
    cells = [
        TenantRunRequest(
            label=f"qos_sweep/{qos}/{arbitration}",
            factories=(factory, factory),
            mmu_config=config,
            arbitration=arbitration,
            qos=qos,
            weights=(2.0, 1.0),
        )
        for qos in SHARE_POLICIES
        for arbitration in ARBITRATION_POLICIES
    ]
    runner = ParallelRunner(jobs=int(os.environ.get("NEUMMU_JOBS", "1")))
    started = time.perf_counter()
    outcomes = runner.run_many(cells)
    requests = sum(o.result.mmu_summary.requests for o in outcomes)
    return time.perf_counter() - started, requests


def contended_sweep():
    """The calendar-batched contended walk path, isolated.

    Three RNN-2 tenants saturate the 8-walker IOMMU's walker pool under
    the two non-trivial QoS regimes (hard partitions under round robin,
    work-conserving weighted quotas under the quantum arbiter) — the
    sustained quota-regime miss bursts the walker-completion calendar
    retires in bulk.  Separate from ``qos_sweep`` so the weekly gate can
    tell a contended-path regression from a sweep-harness one.
    """
    from repro.core.mmu import baseline_iommu_config
    from repro.npu.simulator import run_multi_tenant
    from repro.workloads.registry import DenseWorkloadFactory

    factory = DenseWorkloadFactory("RNN-2", 1)
    started = time.perf_counter()
    requests = 0
    for qos, arbitration in (
        ("static_partition", "round_robin"),
        ("weighted", "weighted_quantum"),
    ):
        result = run_multi_tenant(
            factory,
            baseline_iommu_config(),
            3,
            arbitration=arbitration,
            qos=qos,
            weights=(3.0, 2.0, 1.0),
        )
        requests += result.mmu_summary.requests
    return time.perf_counter() - started, requests


def quota_hit_phase():
    """A quota-regime hit phase, isolated.

    Two weighted tenants on the 8-walker IOMMU alternate bursts that
    saturate the walker pool with cold pages and then hold a single
    resident page's hit stretch open for hundreds of transactions — so
    the in-flight walker completions come due *inside* the hit stretch
    and the engine steps the hit/retire ping-pong per event.  The
    RNN-driven sweeps barely expose this shape (their hit runs are short
    and carry one or two dues); this cell pins it so the weekly gate
    watches it directly.  Recorded from PR 9 onward.
    """
    from dataclasses import replace

    from repro.core.engine import TranslationEngine
    from repro.core.mmu import MMU, baseline_iommu_config
    from repro.memory.address import PAGE_SIZE_4K
    from repro.memory.dram import MainMemory
    from repro.memory.page_table import PageTable
    from repro.npu.dma import ColumnarTransactionStream

    base = 0x7F00_0000_0000
    n_pages = 256
    config = replace(
        baseline_iommu_config(), engine_mode="columnar", qos="weighted"
    )
    mmu = MMU(config, None)
    for asid, first_pfn, weight in ((0, 10, 2.0), (5, 500_000, 1.0)):
        table = PageTable()
        table.map_range(base, n_pages * PAGE_SIZE_4K, first_pfn=first_pfn)
        mmu.register_context(asid, table, weight=weight)
    engine = TranslationEngine(mmu, MainMemory())
    started = time.perf_counter()
    cycle = 0.0
    for burst in range(200):
        asid = (0, 5)[burst & 1]
        head = (burst * 60) % (n_pages - 60)
        pairs = [(base + (head + k) * PAGE_SIZE_4K, 256) for k in range(60)]
        hot = base + head * PAGE_SIZE_4K
        pairs.extend((hot + (k % 16) * 256, 256) for k in range(3000))
        txs = ColumnarTransactionStream.from_pairs(pairs, PAGE_SIZE_4K)
        engine.run_burst(txs, cycle, asid)
        # Unmap the burst's window (streaming churn): occupancy stays
        # bounded below the weighted quota, so every burst keeps the same
        # shape instead of turning quota-bound once the TLB fills up.
        mmu.drain()
        for k in range(60):
            mmu.shootdown(base // PAGE_SIZE_4K + head + k, asid)
        cycle += 1e6
    mmu.drain()
    return time.perf_counter() - started, mmu.stats.requests


def quota_miss_phase():
    """A quota-regime miss phase, isolated.

    Two weighted tenants on the 8-walker IOMMU alternate saturated
    cold-page storms: one transaction per fresh page keeps the walker
    pool full and the issue port fully blocked, so between interaction
    points the engine lives in the FIFO stall/retire/restart chain.
    Each burst's pages are shot down afterwards so every pass stays cold
    (sustained miss phase, no hit stretches).  The quota policy makes
    every window a *policied* one: only the calendar's pointwise quota
    gate can batch it, otherwise it runs per event.  Recorded from PR 10
    onward.
    """
    from dataclasses import replace

    from repro.core.engine import TranslationEngine
    from repro.core.mmu import MMU, baseline_iommu_config
    from repro.memory.address import PAGE_SIZE_4K
    from repro.memory.dram import MainMemory
    from repro.memory.page_table import PageTable
    from repro.npu.dma import ColumnarTransactionStream

    base = 0x7F00_0000_0000
    n_pages = 512
    config = replace(
        baseline_iommu_config(), engine_mode="columnar", qos="weighted"
    )
    mmu = MMU(config, None)
    for asid, first_pfn, weight in ((0, 10, 2.0), (5, 500_000, 1.0)):
        table = PageTable()
        table.map_range(base, n_pages * PAGE_SIZE_4K, first_pfn=first_pfn)
        mmu.register_context(asid, table, weight=weight)
    engine = TranslationEngine(mmu, MainMemory())
    started = time.perf_counter()
    cycle = 0.0
    span = 120
    for rnd in range(150):
        heads = []
        for slot, asid in enumerate((0, 5)):
            head = ((rnd * 2 + slot) * 97) % (n_pages - span)
            heads.append((asid, head))
            # Rotate the intra-page offset so consecutive fresh pages
            # land on distinct DRAM channels (page-aligned 4 KiB strides
            # alias to one channel and the queueing declines every plan).
            pairs = [
                (base + (head + k) * PAGE_SIZE_4K + (k % 16) * 256, 256)
                for k in range(span)
            ]
            txs = ColumnarTransactionStream.from_pairs(pairs, PAGE_SIZE_4K)
            # The second tenant's burst abuts the first (cycle + 7, the
            # fuzz harness's spacing): the first tenant's residual
            # in-flight walks sit at the head of the second's windows,
            # making them *mixed* — the quota-trajectory regime this
            # scenario exists to measure.
            engine.run_burst(txs, cycle + slot * 7, asid)
        mmu.drain()
        for asid, head in heads:
            for k in range(span):
                mmu.shootdown(base // PAGE_SIZE_4K + head + k, asid)
        cycle += 1e6
    mmu.drain()
    return time.perf_counter() - started, mmu.stats.requests


def demand_paging():
    """Demand-paged translation: one Fig. 16 cell + a paged 2-tenant run."""
    from repro.core.mmu import baseline_iommu_config
    from repro.memory.address import PAGE_SIZE_4K
    from repro.npu.simulator import MultiTenantSimulator
    from repro.sparse.demand_paging import DemandPagingConfig, demand_paging_cell
    from repro.workloads.embedding import dlrm
    from repro.workloads.registry import mix_factories

    mb = 1024 * 1024
    system = DemandPagingConfig(
        batches=12, warm_batches=5, table_rows=200_000,
        local_budget_bytes=48 * mb,
    )
    started = time.perf_counter()
    cell = demand_paging_cell(
        dlrm(), baseline_iommu_config(page_size=PAGE_SIZE_4K), 8, system
    )
    requests = cell.mmu_summary.requests
    sim = MultiTenantSimulator(
        [factory() for factory in mix_factories("rnn,recsys")],
        baseline_iommu_config(),
        qos="weighted",
        arbitration="weighted_quantum",
        weights=(2.0, 1.0),
        memory_budgets=(32 * mb, 32 * mb),
    )
    requests += sim.run().mmu_summary.requests
    return time.perf_counter() - started, requests


SCENARIOS = (
    ("engine_fastpath", engine_fastpath),
    ("single_tenant", single_tenant),
    ("qos_sweep", qos_sweep),
    ("contended_sweep", contended_sweep),
    ("quota_hit_phase", quota_hit_phase),
    ("quota_miss_phase", quota_miss_phase),
    ("demand_paging", demand_paging),
)


def environment_provenance() -> dict:
    """The knobs a stored record was measured under (schema 2).

    Every ``NEUMMU_*`` environment flag, the effective worker count the
    sweeps shard across, and the CPU count — enough to refuse an
    apples-to-oranges comparison when a record from a different
    configuration sneaks into a ledger.
    """
    return {
        "neummu_flags": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("NEUMMU_")
        },
        "jobs": int(os.environ.get("NEUMMU_JOBS", "1")),
        "cpu_count": os.cpu_count(),
    }


def run_bench(out_path: Path | None = None) -> dict:
    """Time every scenario and write ``BENCH_perf.json``; returns the doc."""
    scenarios = {}
    for name, scenario in SCENARIOS:
        wall, translations = scenario()
        scenarios[name] = {
            "wall_s": round(wall, 3),
            "translations": translations,
            "translations_per_sec": round(translations / wall),
        }
        print(
            f"{name:16s} {wall:8.3f} s   "
            f"{scenarios[name]['translations_per_sec']:>10,} translations/s",
            flush=True,
        )
    doc = {
        "schema": 2,
        "generated_unix": int(time.time()),
        "environment": environment_provenance(),
        "scenarios": scenarios,
        "baseline": BASELINE,
    }
    path = out_path or Path(
        os.environ.get(
            "NEUMMU_PERF_OUT",
            REPO_ROOT / "benchmarks" / "results" / "BENCH_perf.json",
        )
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return doc


#: A scenario fails the regression gate when its throughput falls more
#: than this far below the machine-normalized expectation.
REGRESSION_TOLERANCE = 0.20


def check_regressions(doc: dict, committed_path: Path) -> list:
    """Compare ``doc`` against the committed record; return failures.

    Absolute numbers are machine-dependent, so the gate follows the
    baseline note and compares *ratios*: each scenario's current
    translations/sec over the committed record's, normalized by the
    median ratio across scenarios.  A uniformly slower (or faster)
    runner moves every scenario together and normalizes out; a real
    regression drags its scenario more than ``REGRESSION_TOLERANCE``
    below the rest and fails the check.
    """
    try:
        committed = json.loads(committed_path.read_text())
    except FileNotFoundError:
        return [f"no committed baseline at {committed_path}"]
    schema = committed.get("schema")
    if schema not in (1, 2):
        # Schema 1 records predate environment provenance; schema 2
        # carries it.  Either compares — the gate only reads scenario
        # throughputs — but an unknown future schema must fail loudly
        # rather than silently comparing incompatible records.
        return [f"unsupported BENCH_perf schema {schema!r} in {committed_path}"]
    baseline = committed.get("scenarios", {})
    ratios = {}
    for name, current in doc["scenarios"].items():
        ref = baseline.get(name, {}).get("translations_per_sec")
        if ref:
            ratios[name] = current["translations_per_sec"] / ref
    if not ratios:
        return [f"no comparable scenarios in {committed_path}"]
    ordered = sorted(ratios.values())
    median = ordered[len(ordered) // 2]
    if median <= 0:
        return ["degenerate throughput ratios (median <= 0)"]
    failures = []
    floor = 1.0 - REGRESSION_TOLERANCE
    print(f"\nregression check vs {committed_path} (median ratio {median:.3f}):")
    for name, ratio in sorted(ratios.items()):
        normalized = ratio / median
        verdict = "ok" if normalized >= floor else "REGRESSION"
        print(f"  {name:16s} {normalized:6.3f}x of expected   {verdict}")
        if normalized < floor:
            failures.append(
                f"{name}: {normalized:.3f}x of machine-normalized expected "
                f"throughput (> {REGRESSION_TOLERANCE:.0%} regression vs "
                f"{committed_path.name})"
            )
    return failures


def bench_perf(benchmark):
    """pytest-benchmark entry point (one timed pass, like the figures)."""
    benchmark.pedantic(run_bench, rounds=1, iterations=1)


def _quartiles(values: list) -> tuple:
    """(q1, median, q3) by linear interpolation (inclusive method)."""
    ordered = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    return at(0.25), at(0.5), at(0.75)


def run_paired(var_spec: str, pairs: int = 3, only=None) -> dict:
    """Interleaved paired A/B runs over one environment knob.

    ``var_spec`` is ``VAR=a,b``.  Each pair times every selected
    scenario under value ``a`` and value ``b`` back to back (the A/B
    order flips every pair, so slow ambient drift hits both legs
    equally instead of biasing whichever ran second), and the ratio
    recorded is leg-b throughput over leg-a.  Reports — and returns —
    the per-scenario median ratio with its inter-quartile range, the
    numbers the per-PR perf ledger cites.
    """
    var, _, values = var_spec.partition("=")
    if not var or "," not in values:
        raise SystemExit(f"--paired expects VAR=a,b, got {var_spec!r}")
    a_val, b_val = (v.strip() for v in values.split(",", 1))
    names = [
        (name, fn) for name, fn in SCENARIOS
        if only is None or name in only
    ]
    if not names:
        raise SystemExit(f"--only matched no scenarios out of {only!r}")
    before = os.environ.get(var)
    ratios: dict = {name: [] for name, _ in names}
    try:
        for k in range(pairs):
            legs = (a_val, b_val) if k % 2 == 0 else (b_val, a_val)
            for name, fn in names:
                tps = {}
                for val in legs:
                    os.environ[var] = val
                    wall, translations = fn()
                    tps[val] = translations / wall
                ratio = tps[b_val] / tps[a_val]
                ratios[name].append(ratio)
                print(
                    f"pair {k + 1}/{pairs}  {name:16s} "
                    f"{var}={a_val}: {tps[a_val]:>12,.0f}/s   "
                    f"{var}={b_val}: {tps[b_val]:>12,.0f}/s   "
                    f"ratio {ratio:.3f}",
                    flush=True,
                )
    finally:
        if before is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = before
    summary = {}
    print(
        f"\npaired {var}={a_val} vs {b_val} over {pairs} interleaved "
        f"pairs (ratio = {b_val}-leg throughput / {a_val}-leg):"
    )
    for name, _ in names:
        q1, median, q3 = _quartiles(ratios[name])
        summary[name] = {
            "median_ratio": round(median, 3),
            "iqr": [round(q1, 3), round(q3, 3)],
            "ratios": [round(r, 3) for r in ratios[name]],
        }
        print(
            f"  {name:16s} median {median:5.2f}x   "
            f"IQR [{q1:.2f}, {q3:.2f}]"
        )
    return {
        "schema": 2,
        "paired": {"var": var, "a": a_val, "b": b_val, "pairs": pairs},
        "environment": environment_provenance(),
        "scenarios": summary,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paired = None
    pairs = 3
    only = None
    it = iter(argv)
    for arg in it:
        if arg == "--paired":
            paired = next(it, None)
            if paired is None:
                raise SystemExit("--paired requires VAR=a,b")
        elif arg == "--pairs":
            pairs = int(next(it, "3"))
        elif arg == "--only":
            only = set((next(it, "") or "").split(","))
    if paired is not None:
        run_paired(paired, pairs=pairs, only=only)
        return 0
    doc = run_bench()
    if "--check" in argv:
        failures = check_regressions(doc, REPO_ROOT / "BENCH_perf.json")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
