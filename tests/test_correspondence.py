import dataclasses
import json

import pytest

from conftest import parse, run, start
from oracles import (
    HistoryGraph, causal_report, cause_subgraph, contract, contracted_vertices, free_names,
    graph_rem, history_graph, key_multiset, paired_runs,
)
from revpi import bs, causality, checks, corpus, correspondence, syntax
from revpi.bs import BsLabel
from revpi.correspondence import (
    KeyNotInHistoryError, check_causal_correspondence, check_structural_correspondence, rem,
)
from revpi.engine import Engine
from revpi.memory import MemoryKind
from revpi.syntax import FreeOut, InAct, PiBoundOut
from test_known_faults import FAULTS
from test_memory import SHAPES
from test_output_digests import FAULT_TERMS


def _graph(vertices, edges):
    return HistoryGraph(tuple(vertices), frozenset(edges))


# --------------------------------------------------------------------------- #
# history graphs
# --------------------------------------------------------------------------- #

def test_initial_graph_is_empty():
    g = history_graph(start("nu a.(b!a.0 | a?(x).0)"))
    assert g.vertices == () and g.edges == frozenset()


def test_communication_gives_twin_vertices():
    (tau,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    g = history_graph(tau.target)
    assert key_multiset(g) == (1, 1)
    (v1, _), (v2, _) = g.vertices
    assert g.edges == frozenset({(v1, v2), (v2, v1)})


def test_nested_key_adds_directed_edge():
    tau, out = run("b!a.0 | b?(x).x!c.0", ["tau", "a!c"])
    g = history_graph(out.target)
    assert key_multiset(g) == (1, 1, 2)
    occ2 = g.occurrences(2)[0]
    in_half = [vid for vid, lab in g.vertices
               if lab == 1 and (vid, occ2) in g.edges]
    assert len(in_half) == 1


# --------------------------------------------------------------------------- #
# ancestry
# --------------------------------------------------------------------------- #

def test_cause_subgraph_through_twins():
    tau, out = run("b!a.0 | b?(x).x!c.0", ["tau", "a!c"])
    g = history_graph(out.target)
    sub = cause_subgraph(g, 2)
    assert key_multiset(sub) == (1, 1, 2)


def test_cause_subgraph_fresh_vertex():
    g = _graph([], [])
    sub = cause_subgraph(g, 7)
    assert key_multiset(sub) == (7,)
    assert sub.edges == frozenset()


def test_cause_subgraph_linear_chain():
    g = _graph([(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)])
    sub = cause_subgraph(g, 3)
    assert key_multiset(sub) == (1, 2, 3)
    assert key_multiset(cause_subgraph(g, 1)) == (1,)


# --------------------------------------------------------------------------- #
# contraction
# --------------------------------------------------------------------------- #

def test_contract_twin_pair():
    g = _graph([(0, 1), (1, 1), (2, 2)], [(0, 1), (1, 0), (1, 2)])
    got = contract(g)
    assert contracted_vertices(got) == ["tau1"]
    assert key_multiset(got) == (2,)
    (tau_vid,) = [vid for vid, lab in got.vertices if lab == "tau1"]
    (two_vid,) = [vid for vid, lab in got.vertices if lab == 2]
    assert got.edges == frozenset({(tau_vid, two_vid)})


def test_contract_without_pairs_is_identity():
    g = _graph([(0, 1), (1, 2)], [(0, 1)])
    assert contract(g) == g


def test_contract_two_pairs_get_distinct_names():
    g = _graph([(0, 1), (1, 1), (2, 2), (3, 2)],
               [(0, 1), (1, 0), (2, 3), (3, 2)])
    got = contract(g)
    assert sorted(contracted_vertices(got)) == ["tau1", "tau2"]
    assert key_multiset(got) == ()


def test_contract_shrinks_by_one_vertex_per_pair():
    g = _graph([(0, 1), (1, 1), (2, 2), (3, 2), (4, 5)],
               [(0, 1), (1, 0), (2, 3), (3, 2), (1, 4)])
    got = contract(g)
    assert len(got.vertices) == len(g.vertices) - 2


# --------------------------------------------------------------------------- #
# rem
# --------------------------------------------------------------------------- #

def test_rem_after_communication():
    tau, out = run("a!b.0 | a?(x).d!e.0", ["tau", "d!e"])
    kf, kb = rem(out.target, 2)
    assert kf == (1, 1)
    assert kb == frozenset()


def test_rem_first_action():
    (t,) = run("a!b.0", ["a!b"])
    assert rem(t.target, 1) == ((), frozenset())


def test_rem_visible_chain():
    steps = run("a!b.c!d.e!f.0", ["a!b", "c!d", "e!f"])
    kf, kb = rem(steps[-1].target, 3)
    assert kf == (1, 2)
    assert kb == frozenset({1, 2})


# the output half of the communication sits under ``f!g``, the input half,
# above ``d!e``, does not: ``f!g`` causes ``d!e`` only through the twins
THROUGH_TWIN = "f!g.a!b.0 | a?(x).d!e.0"


def test_rem_reaches_above_the_other_half_of_a_communication():
    steps = run(THROUGH_TWIN, ["f!g", "tau", "d!e"])
    assert rem(steps[-1].target, 3) == ((1, 2, 2), frozenset({1}))


def test_rem_unknown_key():
    (t,) = run("a!b.0", ["a!b"])
    with pytest.raises(KeyNotInHistoryError, match="key 9 is not in the history of a!b"):
        rem(t.target, 9)


@SHAPES
def test_rem_is_the_contraction_of_the_history_graph(corpus_entries, kind):
    # the closure over the kept history table against the paper's
    # definition: every key of every state reachable at depth 4 from the
    # corpus, the fault terms, the sweep witnesses and ``THROUGH_TWIN``
    terms = [p for _, p in corpus_entries]
    terms += [parse(text) for text in FAULT_TERMS]
    terms += [parse(case[-1]) for case in FAULTS if case[0].startswith("sweep")]
    terms.append(parse(THROUGH_TWIN))
    pairs = 0
    for p in terms:
        for x in checks.reachable_states(p, Engine(kind), 4):
            for key in syntax.keys(x):
                assert rem(x, key) == graph_rem(x, key), (syntax.format(x), key)
                pairs += 1
    assert pairs > 2000, pairs


# --------------------------------------------------------------------------- #
# structural correspondence
# --------------------------------------------------------------------------- #

def test_structural_correspondence_three_extruders():
    report = check_structural_correspondence(
        parse("nu a.(b!a.0 | c!a.0 | a?(x).0)"), 4)
    assert not report.violations
    assert report.checks


def test_structural_correspondence_strict_multiset():
    report = check_structural_correspondence(parse("a!b.0 | a?(x).d!e.0"), 4)
    assert not report.violations
    entries = [c for c in report.checks if c["kf"] == [1, 1]]
    assert entries and all(c["kb"] == [] for c in entries)


def test_structural_correspondence_nil():
    report = check_structural_correspondence(parse("0"), 4)
    assert not report.violations and not report.checks


@pytest.mark.parametrize("act, causes, shown", [
    (FreeOut("a", "m"), frozenset(), "1:a!m/{}"),
    (InAct("b", "x"), frozenset(), "1:b?(x)/{}"),
    (PiBoundOut("c", "n"), frozenset({2, 1}), "1:c!(nu n)/{1,2}"),
])
def test_reference_label_names_its_channel_and_datum(act, causes, shown):
    # an unmatched reference step is reported under this rendering
    assert correspondence._bs_label_str(BsLabel(1, act, causes)) == shown


def test_report_serializes():
    report = check_structural_correspondence(parse("a!b.0"), 2)
    data = json.loads(json.dumps(dataclasses.asdict(report)))
    assert set(data) == {"process", "depth", "checks", "violations"}


# --------------------------------------------------------------------------- #
# causal correspondence
# --------------------------------------------------------------------------- #

def test_causal_correspondence_three_extruders():
    report = check_causal_correspondence(
        parse("nu a.(b!a.0 | c!a.0 | a?(z).0)"), 4)
    assert not report.violations
    full = [c for c in report.checks if len(c["trace"]) == 3]
    assert full


def test_causal_correspondence_sequential():
    report = check_causal_correspondence(parse("a!b.c!d.0"), 4)
    assert not report.violations


def test_causal_correspondence_visible_pair():
    report = check_causal_correspondence(parse("b!a.0 | b?(x).x!c.0"), 4)
    assert not report.violations


def _walked_terms(corpus_entries):
    # the corpus, the fault terms and the sweep witnesses
    terms = [p for _, p in corpus_entries] + [parse(text) for text in FAULT_TERMS]
    return terms + [parse(case[-1]) for case in FAULTS if case[0].startswith("sweep")]


def test_walk_extends_each_runs_orders_from_its_prefix(corpus_entries):
    # the walk's causal report against both orders of every paired run
    # computed from the whole run, on the corpus, the fault terms and the
    # sweep witnesses
    checked = mismatched = 0
    for p in _walked_terms(corpus_entries):
        report = check_causal_correspondence(p, 4)
        assert (report.checks, report.violations) == causal_report(p, 4), syntax.format(p)
        checked += len(report.checks)
        mismatched += len(report.violations)
    assert checked > 500 and mismatched > 2, (checked, mismatched)


def test_every_introduced_name_is_fresh(corpus_entries):
    # ``bs.introduced`` does not ask whether the name a step introduces is
    # fresh; on every paired reference step of the corpus, the fault terms
    # and the sweep witnesses it is: neither free in the erased source nor
    # bound or mentioned by an earlier label
    introduced = 0
    for p in _walked_terms(corpus_entries):
        for _, ref, _ in paired_runs(p, 4):
            step = ref[-1]
            name = bs.introduced(step.label.act)
            if name is None:
                continue
            introduced += 1
            assert name not in free_names(syntax.erase(step.source)), syntax.format(p)
            assert not any(name in bs._label_names(s.label.act, bound=True)
                           for s in ref[:-1]), syntax.format(p)
    assert introduced > 200, introduced


def test_walk_judges_each_paired_step_once(monkeypatch):
    # one _depends call per earlier step of each new paired step, and no
    # preorder built from a whole run: gen_20 at depth 4 under bsc
    calls = {"_depends": 0, "causal_preorder": 0}
    depends, preorder = causality._depends, causality.causal_preorder

    def counted_depends(*args):
        calls["_depends"] += 1
        return depends(*args)

    def counted_preorder(*args):
        calls["causal_preorder"] += 1
        return preorder(*args)

    monkeypatch.setattr(causality, "_depends", counted_depends)
    monkeypatch.setattr(causality, "causal_preorder", counted_preorder)
    p = dict(corpus.acceptance_corpus())["gen_20"]
    structural, causal = correspondence.check_correspondence(p, 4, Engine(MemoryKind.BSC))
    assert not structural.violations and not causal.violations and len(causal.checks) == 46
    assert calls["causal_preorder"] == 0
    assert 0 < calls["_depends"] <= 84, calls
