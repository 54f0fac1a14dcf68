"""Benchmark of the NeuMMU simulator: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense_sweep --seed 7 --seconds 30 --trace 0

Workloads: ``dense_sweep``, ``tenant_qos``, ``paged_sparse`` (see
``perfbench/METRICS.md``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``translations_per_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones.  The full record (digests,
provenance) goes to ``perfbench/out/``.

This launcher uses only the standard library.  It pins the environment
of the processes it starts (``NEUMMU_JOBS=1``, every other ``NEUMMU_*``
cleared, ``PYTHONHASHSEED=0``) and byte-compiles the sources once.  It
then times set-up in ``SETUP_PROBES`` processes that only set up
(``setup_probe.py``): ``setup_s`` is the median of their
interpreter-start-to-ready times, each rescaled to reference host speed
by the calibration loop timed inside that process (``calibrate.py``).
Last it starts the worker that measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate  # the launcher runs as a script from perfbench/

ROOT = Path(__file__).resolve().parent.parent

#: ``suite.WORKLOADS``, repeated because the launcher must run (and fail
#: cleanly) without importing the simulator.
WORKLOADS = ("dense_sweep", "tenant_qos", "paged_sparse")

#: Set-up-only processes started before the measuring worker.
SETUP_PROBES = 7

#: Every process this launcher starts must end within this many seconds.
CHILD_TIMEOUT_S = 170.0


def pinned_env() -> tuple:
    """(environment for the children, the ``NEUMMU_*`` values found)."""
    found = {k: v for k, v in sorted(os.environ.items()) if k.startswith("NEUMMU_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEUMMU_")}
    env["NEUMMU_JOBS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env, found


def start(module: str, options: list, env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", module, *options],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from ``started`` until ``proc`` prints READY."""
    for line in proc.stdout:
        if line.strip() == "READY":
            return time.perf_counter() - started
        print(line, end="", flush=True)
    raise RuntimeError(f"worker exited with {proc.wait()} before set-up finished")


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, found = pinned_env()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )

    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    setup_raw = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        started = time.perf_counter()
        proc = start("perfbench.setup_probe", workload, env)
        try:
            setup_raw.append(wait_ready(proc, started))
            probe = json.loads(proc.stdout.read().split("SETUP ", 1)[1])
        finally:
            if proc.poll() is None:
                finish(proc)
        if proc.returncode:
            return 1
        setup_samples.append(calibrate.rescale(
            setup_raw[-1] - probe["spent_s"], statistics.median(probe["loop_s"])))

    proc = start(
        "perfbench.worker",
        workload + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
    )
    record = None
    try:
        wait_ready(proc, time.perf_counter())
        for line in proc.stdout:
            if line.startswith("RESULT "):
                record = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
    finally:
        if proc.poll() is None:
            finish(proc)
    if proc.returncode or record is None:
        return 1

    if not args.trace:
        record["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
    record["setup_samples_s"] = setup_samples
    record["setup_raw_s"] = setup_raw
    record["provenance"]["neummu_env_found"] = found
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for key, metric in record["metrics"].items():
        print(f"{key:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
