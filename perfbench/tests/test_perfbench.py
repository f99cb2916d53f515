"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_draws_identical_terms(workload):
    a = workloads.build(workload, 7)
    b = workloads.build(workload, 7)
    assert "\n".join(op.name for op in a).encode() == "\n".join(op.name for op in b).encode()
    assert workloads.digest(a) == workloads.digest(b)


def test_other_seed_draws_other_terms():
    a = {op.term for op in workloads.build("wide-export", 1)}
    b = {op.term for op in workloads.build("wide-export", 2)}
    assert a != b


def test_operation_counts_and_known_faults():
    algebra = workloads.build("corpus-algebra", 1)
    explore = workloads.build("wide-explore", 1)
    export = workloads.build("wide-export", 1)
    assert len(algebra) == 330 and sum(op.known_fault for op in algebra) == 9
    assert len(explore) >= 100 and sum(op.known_fault for op in explore) == 1
    assert len(export) >= 100 and not any(op.known_fault for op in export)


def test_wide_terms_have_the_drawn_shape():
    for op in workloads.build("wide-explore", 3):
        if op.term == workloads.F3_TERM:
            continue
        body = op.term[len("nu r.("):-1]
        assert len(body.split(" | ")) == 4
        assert "nu s" in body


def _export(tmp_path, term="a!m.0 | b?(x).0", depth=3):
    from revpi import cli
    out = tmp_path / "lts.json"
    assert cli.main(["export", term, "--depth", str(depth), "--format", "json",
                     "--output", str(out)]) == 0
    return json.loads(out.read_text())


def test_export_graph_check_accepts_real_export(tmp_path):
    doc = _export(tmp_path, "nu r.(a!r.0 | b?(x).nu s.(c!s.0) | a?(y).0)", 4)
    assert verify.graph_problems(doc, 4) == []


def test_export_graph_check_flags_removed_backward_edge(tmp_path):
    doc = _export(tmp_path)
    assert verify.graph_problems(doc, 3) == []
    doctored = copy.deepcopy(doc)
    edges = doctored["transitions"]
    step = next(e for e in edges if e["dir"] == "forward" and e["from"] == 0)
    undo = next(i for i, e in enumerate(edges)
                if e["dir"] == "backward" and e["from"] == step["to"]
                and e["to"] == 0 and e["label"] == step["label"])
    del edges[undo]
    problems = verify.graph_problems(doctored, 3)
    assert problems == ["forward edge 0->%d %s has no inverse" % (step["to"], step["label"])]


def test_export_graph_check_flags_duplicate_and_distant_states(tmp_path):
    doc = _export(tmp_path)
    doctored = copy.deepcopy(doc)
    doctored["states"].append(doctored["states"][0])
    problems = verify.graph_problems(doctored, 3)
    assert any("not distinct" in p for p in problems)
    assert any("beyond depth" in p for p in problems)


def test_export_graph_check_counts_first_steps_of_drawn_terms(tmp_path):
    op = next(op for op in workloads.build("wide-export", 1) if op.first_steps)
    doc = _export(tmp_path, op.term, 2)
    assert verify.graph_problems(doc, 2, op.first_steps) == []
    # drop the last successor of state 0 with its step: the graph still
    # agrees with itself, but not with the term
    doc = _export(tmp_path, op.term, 1)
    doctored = copy.deepcopy(doc)
    last = len(doctored["states"]) - 1
    doctored["states"].pop()
    doctored["transitions"] = [e for e in doctored["transitions"] if e["to"] != last]
    assert verify.graph_problems(doctored, 1) == []
    assert verify.graph_problems(doctored, 1, op.first_steps) == [
        "state 0 has %d forward edge(s), its term %d"
        % (op.first_steps - 1, op.first_steps)]
    lone = {"states": doc["states"][:1], "transitions": []}
    assert verify.graph_problems(lone, 2) == []
    assert verify.graph_problems(lone, 2, op.first_steps) != []


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),   # children cover 2 + 5
        ("a", 1.0, 3.0, 0),        # child covers 1
        ("b", 1.5, 2.5, 1),
        ("c", 4.0, 9.0, 0),        # children cover 1 + 2
        ("d", 4.0, 5.0, 3),
        ("d", 6.0, 8.0, 3),
        ("e", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0])


def test_tracer_rebinds_every_name_and_restores():
    from revpi import MemoryKind, checks, correspondence, parse_process, semantics
    original = semantics.forward_transitions
    t = tracer.Tracer()
    t.install()
    try:
        assert semantics.forward_transitions is not original
        assert checks.forward_transitions is semantics.forward_transitions
        assert correspondence.forward_transitions is semantics.forward_transitions
        checks.check_loop(parse_process("a!m.0 | a?(x).0"), MemoryKind.RPI, 2)
        t.flush()
        m = t.metrics()
        assert m["semantics.forward_calls"] > 0
        assert m["checks.states"] > 0
        assert m["checks.loop_ms"] > 0
    finally:
        t.uninstall()
    assert semantics.forward_transitions is original
    assert checks.forward_transitions is original


def test_raising_operation_counts_as_failed_and_run_continues(tmp_path, monkeypatch):
    from revpi import checks

    calls = []
    real = checks.check_loop

    def flaky(p, kind, depth):
        calls.append(kind)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(p, kind, depth)

    monkeypatch.setattr(checks, "check_loop", flaky)
    ops = [workloads.Op("check", "loop", "a!m.0", k, 2) for k in ("rpi", "bsc")]
    out = str(tmp_path / "x.json")
    results = [run.run_op(op, out) for op in ops]
    assert results[0].failed and results[0].signature[0] == "error"
    assert not results[1].failed and results[1].signature == ("violations", 0)


def test_violations_count_as_failed():
    op = workloads.Op("check", "square", workloads.F2_TERM, "dcc", 4)
    assert op.known_fault
    res = run.run_op(op, "unused")
    assert res.failed and res.signature[0] == "violations" and res.bad is None


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
