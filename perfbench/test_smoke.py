"""Smoke test of the benchmark: a few ops of every workload, traced and untraced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Layers each workload must, or must not, reach; the benchmark's predictions.
BUSY = {"scan-main": "slicing.max_slice.calls", "mahler-volume": "hull.hull_facets.calls"}
IDLE = {"gauss-count": ("slicing.max_slice.calls", "hull.hull_facets.calls")}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_metric(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in [*expected.items(), ("failed_frac", "ratio")]:
        assert any(line.split()[1:2] == [name] and line.split()[3] == unit for line in lines), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_layers(workload):
    lines, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.split()[3] == unit for line in lines), name
    if workload in BUSY:
        assert metrics[BUSY[workload]]["value"] > 0
    for name in IDLE.get(workload, ()):
        assert metrics[name]["value"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outputs_match_untraced(workload):
    run.use_checkout_sources()
    w = WORKLOADS[workload]
    session = run.Session(w, 3, run.load_references(w))
    items = session.next_items(blocks=2)
    untraced = [session.run_one(item) for item in items]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [session.run_one(item, tracer) for item in items]
    finally:
        tracer.uninstall()
    assert [r.output for r in traced] == [r.output for r in untraced]
    assert all(r.problem is None for r in untraced + traced)
    assert len(tracer.spans) > len(items)
    recorded = len(tracer.spans)
    session.run_one(items[0])
    assert len(tracer.spans) == recorded  # uninstall restored the library
