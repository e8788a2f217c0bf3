"""Tests of the benchmark itself, at smoke scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, workloads
from perfbench.layers import PER_LAYER, closure_error
from perfbench.spans import SpanTree, spanned

ROOT = Path(__file__).resolve().parents[2]


def run_smoke(workload: str, trace: bool = False, tmp_path: Path | None = None):
    return workloads.run(workload, seed=3, seconds=0.0, trace=trace,
                         scale=workloads.SMOKE, root=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload, trace, tmp_path):
    from repro.sketch.index import SketchIndex

    select = SketchIndex.select
    outcome = run_smoke(workload, trace, tmp_path)
    assert outcome.failures == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    expected = [name for name, _, _ in PER_LAYER] if trace else list(workloads.END_TO_END)
    assert list(outcome.metrics) == expected
    if trace:
        assert outcome.metrics["trace_closure_error"] < workloads.CLOSURE_TOLERANCE
    else:
        assert all(value > 0 for value in outcome.metrics.values())
    assert SketchIndex.select is select  # the traced run put every wrapper back
    assert list(tmp_path.iterdir()) == []


def _perturbed(result, graph_n: int):
    # The k highest node ids: an arbitrary, far-from-greedy seed set.
    return dataclasses.replace(result, seeds=list(range(graph_n - result.k, graph_n)))


@pytest.mark.parametrize("plant", ["every call", "repeated call"])
def test_planted_wrong_cold_answer_trips_a_check(plant, monkeypatch):
    core_imm = importlib.import_module("repro.core.imm")  # the package re-exports imm()
    calls = []
    real = core_imm.imm
    # Calls cycle over the algorithm seeds; this one repeats the first seed.
    repeat = workloads.SMOKE.distinct_jobs + 1

    def planted(graph, *args, **kwargs):
        result = real(graph, *args, **kwargs)
        calls.append(result)
        if plant == "every call" or len(calls) == repeat:
            return _perturbed(result, graph.n)
        return result

    monkeypatch.setattr(core_imm, "imm", planted)
    outcome = run_smoke("imm-cold")
    expected = "answer claims spread" if plant == "every call" else "call 2 returned"
    assert any(expected in failure for failure in outcome.failures), outcome.failures


def test_planted_wrong_served_answer_trips_a_check(monkeypatch, tmp_path):
    from repro.sketch.service import InfluenceService

    real = InfluenceService.execute

    def planted(self, graph, request, model=None):
        response = real(self, graph, request, model)
        if request.get("op") == "select" and response.ok:
            response.seeds = list(reversed(response.seeds))
        return response

    monkeypatch.setattr(InfluenceService, "execute", planted)
    outcome = run_smoke("serve-mixed", tmp_path=tmp_path)
    assert any("final warm select" in failure for failure in outcome.failures)


def test_identity_check_reports_differing_bytes():
    same = ([1, 2], 10, [b"abc"])
    assert checks.identity_failures({1: same, 2: same}) == []
    failures = checks.identity_failures({1: same, 2: ([1, 2], 10, [b"abd"])})
    assert failures == ["jobs=2 sketch bytes differ from jobs=1"]


def test_self_time_closes_on_nested_wrapped_calls():
    now = [0.0]
    tree = SpanTree(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    def leaf():
        work(1.0)

    def middle(depth):
        work(2.0)
        leaf()
        if depth:
            middle(depth - 1)  # recursion through the wrapper nests again
        work(0.5)

    leaf = spanned(tree, "leaf")(leaf)
    middle = spanned(tree, "middle")(middle)
    with tree.span("root") as root:
        work(4.0)
        middle(1)
        leaf()

    assert root.seconds == 4.0 + 2 * (2.0 + 1.0 + 0.5) + 1.0
    assert tree.self_seconds() == {"root": 4.0, "middle": 5.0, "leaf": 3.0}
    assert closure_error(tree, [root], root.seconds) == 0.0
    assert [s.parent for s in tree.spans] == [None, 0, 1, 1, 3, 0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imm-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
