"""Self-tests of the benchmark's tracer and result digests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each test runs a few cells of a workload, not a whole pass.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

from perfbench import suite
from perfbench.layers import LAYERS, PREDICTED_ZEROS, make_tracer, tracer_metrics

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


#: The cells each test workload runs: one dense network (its oracle and
#: three designs) and one multi-tenant cell.
GROUPS = {
    "dense_sweep": "dense_sweep/RNN-2/",
    "tenant_qos": "tenant_qos/iommu/weighted/weighted_quantum",
}


def _cells(workload: str):
    prefix = GROUPS[workload]
    return [
        c for c in suite.build(workload, suite.DEFAULT_SEED)
        if c.name.startswith(prefix)
    ]


@pytest.fixture(scope="module")
def traced():
    """The test cells, traced with every span kept."""
    tracer = make_tracer(min_span_ns=0)
    groups = {workload: _cells(workload) for workload in GROUPS}
    runs = {}
    tracer.install()
    try:
        for workload, cells in groups.items():
            metrics_before = tracer_metrics(tracer)
            done = []
            for cell in cells:
                before = {q: s.self_ns for q, s in tracer.funcs.items()}
                result, root_self = tracer.run_cell(cell.name, cell.run)
                wrapped_self = sum(
                    s.self_ns - before.get(q, 0) for q, s in tracer.funcs.items()
                )
                done.append((cell, result, wrapped_self + root_self))
            metrics_after = tracer_metrics(tracer)
            runs[workload] = {
                "cells": done,
                "metrics": {
                    k: metrics_after[k][0] - metrics_before[k][0]
                    for k in metrics_after
                },
            }
    finally:
        tracer.remove()
    return tracer, runs


def test_spans_nest_and_share_their_cell(traced):
    tracer, _ = traced
    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) > 1000
    for span_id, parent, cell, _, start, end in tracer.spans:
        assert start <= end
        if parent == 0:
            continue
        _, _, parent_cell, _, parent_start, parent_end = spans[parent]
        assert parent_start <= start and end <= parent_end
        assert parent_cell == cell


def test_self_times_sum_to_the_cell_span(traced):
    tracer, runs = traced
    roots = {span[2]: span for span in tracer.spans if span[3] == "cell"}
    for run in runs.values():
        for cell, _, self_ns in run["cells"]:
            _, _, _, _, start, end = roots[cell.name]
            assert self_ns == end - start


@pytest.mark.parametrize("workload", ["dense_sweep", "tenant_qos"])
def test_predicted_zeros_read_zero(traced, workload):
    _, runs = traced
    metrics = runs[workload]["metrics"]
    assert {k: metrics[k] for k in PREDICTED_ZEROS[workload]} == {
        k: 0 for k in PREDICTED_ZEROS[workload]
    }
    # ...and the layers the workload does exercise are seen.
    assert metrics["core.engine.bursts"] > 0
    assert metrics["core.tlb.ops"] > 0


def test_tenant_cell_exercises_arbiters_and_policies(traced):
    _, runs = traced
    metrics = runs["tenant_qos"]["metrics"]
    assert metrics["core.qos.policy_calls"] > 0
    assert metrics["core.qos.arbiter_s"] > 0


def test_traced_digests_equal_untraced(traced):
    _, runs = traced
    for workload, run in runs.items():
        for cell, result, _ in run["cells"]:
            untraced = suite.digest(cell.run())
            assert suite.digest(result) == untraced
            assert untraced == DIGESTS[cell.name][cell.inputs]


def _namespace_snapshot():
    """(owner, attribute) -> value over every repro module and class."""
    snapshot = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith(("repro.", "perfbench.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(modname, attr)] = value
            if inspect.isclass(value) and value.__module__ == modname:
                for member, inner in vars(value).items():
                    snapshot[(modname, f"{attr}.{member}")] = inner
    return snapshot


def test_wrappers_are_removed():
    for modules in LAYERS.values():
        for modname in modules:
            __import__(modname)
    before = _namespace_snapshot()
    tracer = make_tracer()
    tracer.install()
    try:
        during = _namespace_snapshot()
        changed = [k for k in before if during.get(k) is not before[k]]
        assert len(changed) > 100
    finally:
        tracer.remove()
    after = _namespace_snapshot()
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_recorded_inputs():
    assert suite.tenant_weights(suite.DEFAULT_SEED) == (2.0, 1.0)
    for workload in suite.WORKLOADS:
        for cell in suite.cells(workload, suite.DEFAULT_SEED):
            assert cell.inputs in DIGESTS[cell.name]
    # Every tenant_qos weight draw is recorded, at any seed.
    for seed in range(20):
        for cell in suite.cells("tenant_qos", seed):
            assert cell.inputs in DIGESTS[cell.name]
