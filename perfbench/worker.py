"""One benchmark process: set up one workload, time it, check its results.

Started by ``run.py``, which pins the environment (set-up is timed in
separate ``setup_probe.py`` processes).  The worker prints ``READY`` once
set-up is done, human-readable lines while it works, and as its last
line ``RESULT <json>``.

With ``--trace 0`` the timed phase runs the workload's cells round-robin
in the seeded order until ``--seconds`` have passed and every cell has
run at least once.  Throughput is a whole pass's translations over the
sum of each cell's mean time.  With ``--trace 1`` it runs one pass
untraced and one pass traced, and reports the per-layer metrics of the
traced set-up plus pass.

Every cell result is hashed (:func:`perfbench.suite.digest`) and checked
against the digest ``digests.json`` records for the cell's generated
inputs, or, for inputs it does not record, against an
``engine_mode="reference"`` run of the same inputs.

Regenerate ``digests.json`` with ``python -m perfbench.worker --record``
(from the repository root, with ``src`` on ``PYTHONPATH``).  It records
the default seed's inputs and every ``tenant_qos`` weight draw, running
each cell in both engine modes, and refuses digests the two modes
disagree on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import calibrate, suite
from .layers import PREDICTED_ZEROS, SIM_COUNTERS, make_tracer, simulated_counters, tracer_metrics

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT = Path(__file__).resolve().parent / "out"


def emit(line: str) -> None:
    print(line, flush=True)


@contextmanager
def engine_mode(mode: str):
    """Select the engine mode for configs built inside the block."""
    saved = os.environ.get("NEUMMU_ENGINE")
    os.environ["NEUMMU_ENGINE"] = mode
    try:
        yield
    finally:
        if saved is None:
            del os.environ["NEUMMU_ENGINE"]
        else:
            os.environ["NEUMMU_ENGINE"] = saved


class Outcomes:
    """Every cell execution's digest, translations and raw and rescaled
    time, and the latest results of each cell."""

    def __init__(self) -> None:
        self.runs: List[Tuple[str, Optional[str], int, float, float]] = []
        self.latest: Dict[str, object] = {}

    def add(self, name: str, results: object, raw_s: float, ref_s: float) -> None:
        self.runs.append((name, suite.digest(results), suite.translations(results),
                          raw_s, ref_s))
        self.latest[name] = results

    def add_failure(self, name: str) -> None:
        self.runs.append((name, None, 0, 0.0, 0.0))

    def throughput(self, names: List[str], column: int = 4) -> float:
        """A pass's translations over the sum of per-cell mean times
        (``column`` 4: reference-speed seconds; 3: raw host seconds).

        A cell runs two to five times in a run, too few for a median to
        beat the mean; the median is taken across runs."""
        translations = 0
        seconds = 0.0
        for name in names:
            runs = [r for r in self.runs if r[0] == name and r[1] is not None]
            if not runs:
                return 0.0
            translations += runs[0][2]
            seconds += statistics.mean(r[column] for r in runs)
        return translations / seconds

    def digests(self) -> Dict[str, List[Optional[str]]]:
        out: Dict[str, List[Optional[str]]] = {}
        for name, digest, *_ in self.runs:
            out.setdefault(name, []).append(digest)
        return out

    def times(self) -> Dict[str, Dict[str, List[float]]]:
        out: Dict[str, Dict[str, List[float]]] = {}
        for name, digest, _, raw, ref in self.runs:
            if digest is not None:
                cell = out.setdefault(name, {"raw_s": [], "ref_s": []})
                cell["raw_s"].append(raw)
                cell["ref_s"].append(ref)
        return out


def run_cells(cells: List[suite.Cell], outcomes: Outcomes, seconds: float = 0.0,
              runner=None) -> None:
    """Round-robin over the cells until ``seconds`` pass and each ran once.

    The calibration loop is probed before the first cell and after each
    one.  A cell's time is rescaled by the median loop time over the
    probes on either side of it and, when ``runner`` is None, the
    in-cell samples.  ``runner(cell_id, fn)`` runs a cell when given (the
    tracer's; no in-cell sampling then, since the samples would land in
    traced spans).
    """
    started = time.perf_counter()
    before = calibrate.probe()
    sampler = calibrate.Sampler()
    i = 0
    while i < len(cells) or time.perf_counter() - started < seconds:
        cell = cells[i % len(cells)]
        i += 1
        samples: List[float] = []
        spent = 0.0
        cell_started = time.perf_counter()
        try:
            if runner is None:
                with sampler:
                    results = cell.run()
                samples, spent = sampler.samples, sampler.spent
            else:
                results = runner(cell.name, cell.run)[0]
        except Exception:  # a raising cell is a failed operation
            traceback.print_exc()
            outcomes.add_failure(cell.name)
            before = calibrate.probe()
            continue
        raw = time.perf_counter() - cell_started - spent
        after = calibrate.probe()
        loop_s = statistics.median([before, after] + samples)
        outcomes.add(cell.name, results, raw, calibrate.rescale(raw, loop_s))
        before = after


def expected_digests(cells: List[suite.Cell]) -> Dict[str, str]:
    """The reference digest of every cell: recorded for its inputs in
    ``digests.json``, else from a reference-engine run of the cell."""
    recorded = json.loads(DIGESTS.read_text())
    out = {}
    missing = []
    for cell in cells:
        digest = recorded.get(cell.name, {}).get(cell.inputs)
        if digest is None:
            missing.append(cell)
        else:
            out[cell.name] = digest
    if missing:
        emit(f"checking {len(missing)} cells against the reference engine")
    with engine_mode("reference"):
        for cell in missing:
            out[cell.name] = suite.digest(cell.run())
    return out


def source_sha256() -> str:
    """sha256 over ``src/repro/**/*.py``: path and content, sorted by path."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def provenance(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "neummu_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("NEUMMU_")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json (see the module docstring)")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    name, seed = args.workload, args.seed

    tracer = make_tracer() if args.trace else None
    if tracer is None:
        cells = suite.build(name, seed)
    else:
        tracer.install()
        try:
            cells, _ = tracer.run_cell("setup", lambda: suite.build(name, seed))
        finally:
            tracer.remove()
    emit("READY")
    gc.collect()
    names = [c.name for c in cells]
    checks: List[str] = []
    outcomes = Outcomes()
    if tracer is None:
        run_cells(cells, outcomes, args.seconds)
        metrics = {
            "translations_per_s": {"value": outcomes.throughput(names), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        emit(f"raw host translations/s {outcomes.throughput(names, 3):.6g}")
    else:
        run_cells(cells, outcomes)
        traced_runs = Outcomes()
        tracer.install()
        try:
            run_cells(cells, traced_runs, runner=tracer.run_cell)
        finally:
            tracer.remove()
        untraced_digests = outcomes.digests()
        for cell_name, digests in traced_runs.digests().items():
            if digests != untraced_digests[cell_name]:
                checks.append(f"traced digest differs from untraced: {cell_name}")
        per_layer = tracer_metrics(tracer)
        sim = simulated_counters(
            s for r in traced_runs.latest.values() for s in suite.summaries(r)
        )
        units = dict(SIM_COUNTERS)
        for key, value in sim.items():
            per_layer[key] = (value, units[key])
        untraced = outcomes.throughput(names)
        per_layer["trace.overhead"] = (
            traced_runs.throughput(names) / untraced if untraced else 0.0, "ratio")
        for key in PREDICTED_ZEROS[name]:
            if per_layer[key][0] != 0:
                checks.append(f"predicted zero is {per_layer[key][0]}: {key}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        outcomes.runs.extend(traced_runs.runs)

    expected = expected_digests(cells)
    attempted = len(outcomes.runs)
    failed = sum(1 for cell_name, digest, *_ in outcomes.runs
                 if digest is None or digest != expected.get(cell_name))
    emit(f"mismatch_frac {failed / attempted:.4f} ({failed} of {attempted} cells)")
    if name == "dense_sweep":
        overhead = suite.neummu_overhead_pct(outcomes.latest)
        emit(f"neummu_overhead_pct {overhead:.4f} % (paper "
             f"{suite.PAPER_NEUMMU_OVERHEAD_PCT} %, error "
             f"{overhead - suite.PAPER_NEUMMU_OVERHEAD_PCT:+.4f} points)")
    for check in checks:
        emit(f"CHECK FAILED: {check}")
    record_doc = {
        "workload": name,
        "trace": args.trace,
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": {k: sorted(set(v), key=str) for k, v in outcomes.digests().items()},
        "cell_times": outcomes.times(),
        "provenance": provenance(seed),
    }
    emit("RESULT " + json.dumps(record_doc))
    return 0


def record() -> int:
    """Rewrite ``digests.json`` for the default seed and every tenant
    weight draw, refusing digests the two engine modes disagree on."""
    seeds = {suite.DEFAULT_SEED}
    for weight in suite.TENANT_WEIGHTS:
        seeds.add(next(s for s in range(1000)
                       if suite.tenant_weights(s)[0] == weight))
    doc: Dict[str, Dict[str, str]] = {}
    for name in suite.WORKLOADS:
        for seed in sorted(seeds) if name == "tenant_qos" else [suite.DEFAULT_SEED]:
            cells = [c for c in suite.build(name, seed)
                     if c.inputs not in doc.get(c.name, {})]
            columnar = [suite.digest(cell.run()) for cell in cells]
            with engine_mode("reference"):
                reference = [suite.digest(cell.run()) for cell in cells]
            for cell, a, b in zip(cells, columnar, reference):
                if a != b:
                    emit(f"engine modes disagree on {cell.name} ({cell.inputs})")
                    return 1
                doc.setdefault(cell.name, {})[cell.inputs] = a
            emit(f"{name} seed {seed}: {len(cells)} new cells agree in both engine modes")
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    emit(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
