import itertools
from collections import Counter

import pytest

from conftest import fire, parse, run, start
from oracles import (
    concurrent, diamond_mismatches, extrudes_a_name_twice, fired_positions,
    forward_projection, maximality_mismatches, prefix_equiv, structural_leq_keys, warshall,
)
from revpi import causality, checks, corpus, correspondence, semantics, syntax, traces
from revpi.causality import Trace, concurrent_pair, label_equiv
from revpi.engine import Engine
from revpi.memory import BscMemory, DccMemory, MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, FreeOut, Label, Nil,
    Par, PastOutput, Tau,
)
from test_known_faults import FAULTS
from test_memory import SHAPES
from test_output_digests import F1_TERMS, FAULT_TERMS

STRUCTURAL, OBJECT = 0, 1  # the two base relations, as ``_base_relations`` orders them


def ann(name, inst=STAR):
    return AnnotatedName(name, inst)


def caused(tr, relation):
    """The reflexive-transitive closure of one base relation on ``tr``."""
    base = causality._base_relations(tr)
    return warshall(len(tr), lambda i, j: i < j and base[i, j][relation])


# --------------------------------------------------------------------------- #
# structural order on keys
# --------------------------------------------------------------------------- #

def test_structural_keys_nesting():
    x = PastOutput(ann("b"), ann("a"), 1, STAR_SET,
                   PastOutput(ann("c"), ann("d"), 2, STAR_SET, Nil()))
    assert structural_leq_keys(x, 1, 2)
    assert not structural_leq_keys(x, 2, 1)
    assert not structural_leq_keys(x, 1, 1)


def test_structural_keys_not_across_par():
    x = Par(PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
            PastOutput(ann("c"), ann("d"), 2, STAR_SET, Nil()))
    assert not structural_leq_keys(x, 1, 2)
    assert not structural_leq_keys(x, 2, 1)


# --------------------------------------------------------------------------- #
# trace-level relations
# --------------------------------------------------------------------------- #

def test_structural_cause_from_nesting():
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    structural = caused(tr, STRUCTURAL)
    assert (0, 1) in structural
    assert (1, 0) not in structural
    assert (0, 0) in structural  # reflexive closure


def test_parallel_extrusions_are_concurrent():
    tr = Trace(tuple(run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "c!(nu"])))
    assert (0, 1) not in caused(tr, STRUCTURAL)
    assert (0, 1) not in caused(tr, OBJECT)
    assert concurrent(tr, 0, 1)


def test_object_cause_through_cause_sets():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(z).0)",
                ["b!(nu", "c!(nu", "a?(z)"], MemoryKind.BSC)
    tr = Trace(tuple(steps))
    assert {(0, 1), (0, 2)} <= caused(tr, OBJECT)
    assert (0, 2) in causality.causal_preorder(tr)
    assert not concurrent(tr, 0, 1)
    assert concurrent(tr, 1, 2)


def test_visible_pair_not_object_related():
    tr = Trace(tuple(run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])))
    assert (0, 1) not in caused(tr, OBJECT)
    assert concurrent(tr, 0, 1)


def test_transition_and_its_reverse_cancel_not_swap():
    (t,) = run("b!a.0", ["b!a"])
    rev = traces.reverse_transition(t)
    tr = Trace((t, rev))
    # reflexivity of the closure means a step never runs concurrently
    # with itself; a do/undo pair is cancellation territory
    assert not concurrent(tr, 0, 0)
    with pytest.raises(traces.NotConcurrentError):
        traces.residual_swap(t, rev, Engine(MemoryKind.RPI))


def test_backward_object_cause():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "c!(nu", "{2}"])
    state = steps[-1].target
    undo_in = fire(state, "a?(x)", direction=syntax.Direction.BACKWARD)
    undo_c = fire(undo_in.target, "c!(nu", direction=syntax.Direction.BACKWARD)
    tr = Trace((undo_in, undo_c))
    assert (0, 1) in caused(tr, OBJECT)
    assert not concurrent(tr, 0, 1)


# --------------------------------------------------------------------------- #
# label equivalence
# --------------------------------------------------------------------------- #

def _bound(mem):
    return Label(1, STAR_SET, STAR, BoundOut("b", "a", mem))


def test_label_equiv_ignores_memory_payload():
    m1 = RpiMemory(frozenset({1}))
    m2 = RpiMemory(frozenset({1, 2}))
    assert label_equiv(_bound(m1), _bound(m2))


def test_label_equiv_distinguishes_keys():
    l1 = Label(1, STAR_SET, STAR, FreeOut("b", "a"))
    l2 = Label(2, STAR_SET, STAR, FreeOut("b", "a"))
    assert not label_equiv(l1, l2)


def test_label_equiv_is_an_equivalence():
    mems = [MemoryKind.RPI.new(), RpiMemory(frozenset({1}))]
    sample = [_bound(m) for m in mems] + [
        Label(1, STAR_SET, STAR, FreeOut("b", "a")),
        Label(1, STAR_SET, STAR, Tau()),
        Label(1, frozenset({2}), 3, FreeOut("b", "a")),
    ]
    for a in sample:
        assert label_equiv(a, a)
        for b in sample:
            assert label_equiv(a, b) == label_equiv(b, a)
            for c in sample:
                if label_equiv(a, b) and label_equiv(b, c):
                    assert label_equiv(a, c)


# --------------------------------------------------------------------------- #
# prefix equivalence
# --------------------------------------------------------------------------- #

def test_prefix_equiv_on_twin_threads():
    # the two transitions write the same history entry on either side
    x = start("a!b.c!d.0 | a!b.e!f.0")
    batch = [t for t in semantics.forward_transitions(x, MemoryKind.RPI)
             if isinstance(t.label.act, FreeOut) and t.label.act.chan == "a"]
    assert len(batch) == 2
    t1, t2 = batch
    assert t1.target != t2.target
    assert prefix_equiv(t1, t2)


def test_prefix_equiv_distinguishes_keys_and_reflexive():
    t1 = run("a!b.0 | c!d.0", ["a!b"])[0]
    t2 = fire(t1.target, "c!d")
    assert not prefix_equiv(t1, t2)
    assert prefix_equiv(t1, t1)


def test_coinitial_prefix_equivalent_same_position_implies_equal(corpus_entries):
    for name, p in corpus_entries[:12]:
        x = syntax.initial(p, MemoryKind.RPI)
        batch = semantics.forward_transitions(x, MemoryKind.RPI)
        for t1, t2 in itertools.combinations(batch, 2):
            if prefix_equiv(t1, t2) and fired_positions(t1) == fired_positions(t2):
                assert t1 == t2


# --------------------------------------------------------------------------- #
# preorder sanity and export
# --------------------------------------------------------------------------- #

def test_preorder_is_reflexive_transitive(corpus_entries):
    for name, p in corpus_entries[:8]:
        x = syntax.initial(p, MemoryKind.RPI)
        steps = []
        state = x
        for _ in range(3):
            batch = semantics.forward_transitions(state, MemoryKind.RPI)
            if not batch:
                break
            steps.append(batch[0])
            state = batch[0].target
        if not steps:
            continue
        tr = Trace(tuple(steps))
        pre = causality.causal_preorder(tr)
        n = len(tr)
        assert all((i, i) in pre for i in range(n))
        for i, j in pre:
            for k in range(n):
                if (j, k) in pre:
                    assert (i, k) in pre


@SHAPES
def test_causal_preorder_is_warshalls_closure(corpus_entries, kind):
    # one row per step, folded in trace order, against Warshall's closure
    # of the base relations, on every trace up to length 4, forward and
    # backward steps alike
    terms = [p for _, p in corpus_entries] + [parse(text) for text in FAULT_TERMS]
    terms += [parse(case[-1]) for case in FAULTS if case[0].startswith("sweep")]
    compared = 0
    for p in terms:
        for steps in checks._all_traces(p, Engine(kind), 4):
            tr = Trace(steps)
            base = causality._base_relations(tr)
            assert causality.causal_preorder(tr) == warshall(
                len(tr), lambda i, j: i < j and any(base[i, j]))
            compared += 1
    assert compared > 3000, compared


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_depends_is_the_union_of_the_base_relations(corpus_entries, kind):
    # every pair of positions of every trace of at most 3 steps, opposed
    # directions included: the one bool ``_depends`` returns is the union
    # of the pair ``_base_relations`` reads
    terms = [p for _, p in corpus_entries] + [parse(text) for text in FAULT_TERMS]
    judged = opposed = 0
    for p in terms:
        for steps in checks._all_traces(p, Engine(kind), 3):
            tr = Trace(steps)
            base = causality._base_relations(tr)
            fps = [causality._footprint(t) for t in steps]
            for (m, n), relations in base.items():
                union = causality._depends(tr[m], fps[m], tr[n], fps[n])
                assert union is any(relations), (syntax.format(tr.source), m, n)
                judged += 1
                opposed += tr[m].dir is not tr[n].dir
    assert judged > 2500 and opposed > 1200, (judged, opposed)


def test_concurrent_symmetric_irreflexive(corpus_entries):
    for name, p in corpus_entries[:8]:
        steps = []
        state = syntax.initial(p, MemoryKind.RPI)
        for _ in range(3):
            batch = semantics.forward_transitions(state, MemoryKind.RPI)
            if not batch:
                break
            steps.append(batch[-1])
            state = batch[-1].target
        if len(steps) < 2:
            continue
        tr = Trace(tuple(steps))
        for i in range(len(tr)):
            assert not concurrent(tr, i, i)
            for j in range(len(tr)):
                assert concurrent(tr, i, j) == concurrent(tr, j, i)


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_concurrent_pair_is_the_two_step_preorder(corpus_entries, kind):
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, engine, 3):
            for t1 in engine.all(x):
                for t2 in engine.all(t1.target):
                    assert concurrent_pair(t1, t2) == concurrent(Trace((t1, t2)), 0, 1)


def _pairs_and_traces(engine, p):
    # every adjacent pair of one run judged, and the preorder of every
    # trace of it up to length 3
    pairs = [(t1, t2) for x in checks.reachable_states(p, engine, 3)
             for t1 in engine.all(x) for t2 in engine.all(t1.target)]
    trs = [Trace(steps) for steps in checks._all_traces(p, engine, 3)]

    def judge():
        for t1, t2 in pairs:
            concurrent_pair(t1, t2)
        for tr in trs:
            causality.causal_preorder(tr)
    return judge


def _correspondence_walk(engine, p):
    # the structural causes and the causal preorder of every paired step
    return lambda: correspondence.check_correspondence(p, 3, engine)


@pytest.mark.parametrize("kind, run", [(kind, _pairs_and_traces) for kind in MemoryKind]
                         + [(MemoryKind.BSC, _correspondence_walk)],
                         ids=[kind.value for kind in MemoryKind] + ["bsc-correspondence"])
def test_a_run_walks_each_history_once(corpus_entries, kind, run, monkeypatch):
    # each state's history is walked at most once, whichever step, trace
    # or paired step asks about it
    runs = [run(Engine(kind), p) for _, p in corpus_entries]
    walks = []
    history = syntax.history

    def counted(x):
        walks.append(x)
        return history(x)

    monkeypatch.setattr(syntax, "history", counted)
    walked = 0
    for judge in runs:
        walks.clear()
        judge()
        assert len(walks) == len(set(walks))
        walked += len(walks)
    assert walked > len(corpus_entries)


def _steps(engine, x, direction, key):
    """The steps out of ``x`` in ``direction`` that carry ``key``."""
    return [t for t in engine.steps(x, direction, key) if t.label.key == key]


@SHAPES
def test_a_concurrent_pair_has_a_square(corpus_entries, kind):
    # soundness of the judgement on adjacent pairs: every pair judged
    # concurrent is closed by the residual square, which starts where the
    # pair starts and ends where it ends, which ``check_square`` relies on
    # without checking it again; over the shipped shapes and the
    # test-only conjunctive one (the fault terms that break it are in
    # ``test_known_faults``)
    concurrent = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, engine, 4):
            for t1 in engine.all(x):
                for t2 in engine.all(t1.target):
                    if t1.label.key == t2.label.key or not concurrent_pair(t1, t2):
                        continue
                    concurrent += 1
                    u1, u2 = traces.residual_swap(t1, t2, engine)
                    assert (u1.source, u2.target) == (t1.source, t2.target), (str(t1), str(t2))
    assert concurrent > 2000


@SHAPES
def test_a_dependent_pair_has_no_square(corpus_entries, kind):
    # completeness of the judgement on adjacent pairs (soundness is
    # ``test_a_concurrent_pair_has_a_square``): no pair judged dependent
    # is closed by a square whose steps carry the same keys in the same
    # directions, from the same source to the same target; over the
    # shipped shapes and the test-only conjunctive one
    dependent = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, engine, 4):
            for t1 in engine.all(x):
                for t2 in engine.all(t1.target):
                    k1, k2 = t1.label.key, t2.label.key
                    if k1 == k2 or concurrent_pair(t1, t2):
                        continue
                    dependent += 1
                    squares = [(u1, u2) for u1 in _steps(engine, x, t2.dir, k2)
                               for u2 in _steps(engine, u1.target, t1.dir, k1)
                               if u2.target == t2.target]
                    assert not squares, (str(t1), str(t2))
    assert dependent > 500


def test_concurrent_pair_rejects_a_pair_that_does_not_compose():
    t1, t2 = run("a!b.0 | c!d.0", ["a!b", "c!d"])
    with pytest.raises(ValueError, match="not composable"):
        concurrent_pair(t2, t1)


def test_causality_dot():
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    dot = causality.causality_dot(tr)
    assert dot.startswith("digraph causality {")
    assert "n0 -> n1 [style=solid];" in dot


# --------------------------------------------------------------------------- #
# what can be undone against the causal order
# --------------------------------------------------------------------------- #

# the acceptance corpus, both F1 terms, and the terms of the known faults
MAXIMALITY_TERMS = ([(name, syntax.format(p)) for name, p in corpus.acceptance_corpus()]
                    + [("F1-%d" % n, term) for n, term in enumerate(F1_TERMS, 1)]
                    + [(name, term) for name, _, _, _, term in FAULTS])

# F3: the bsc memory orders every two actions recorded in it, so a state
# undoes fewer events than the causal order of its form leaves maximal
# (at 2 nodes of F3, 28 of the sweep's correspondence witness)
_F3_UNDO = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="known engine fault F3")


@pytest.mark.parametrize("kind, name, term", [
    pytest.param(kind, name, term, id="%s-%s" % (kind.value, name),
                 marks=[_F3_UNDO] if kind is MemoryKind.BSC
                 and name in ("F3", "sweep-correspondence") else [])
    for kind in MemoryKind for name, term in MAXIMALITY_TERMS])
def test_an_endpoint_undoes_exactly_the_causally_maximal_events(kind, name, term):
    # at every node with a form that a trace of at most 4 steps reaches,
    # the backward rules undo the keys of the survivors that no later
    # survivor follows, and no other key
    assert maximality_mismatches(parse(term), Engine(kind), 4) == []


# --------------------------------------------------------------------------- #
# dependence against the engine's own diamonds
# --------------------------------------------------------------------------- #

# Where ``concurrent_pair`` and the engine's own diamonds disagree at the
# fixpoint (``diamond_mismatches``), by kind and term, counted by the
# directions of the two steps and the verdict of ``concurrent_pair``.
# Every case is a known fault (ROADMAP item 2), and each fault term also
# has a strict xfail in ``test_known_faults``.
DIAMOND_MISMATCHES = {
    # F3: the bsc memory orders pairs whose diamond closes
    ("bsc", "F3"): {
        ("forward", "forward", "dependent"): 2,
        ("forward", "backward", "dependent"): 4,
        ("backward", "forward", "dependent"): 2,
        ("backward", "backward", "dependent"): 4,
    },
    ("bsc", "sweep-correspondence"): {
        ("forward", "forward", "dependent"): 684,
        ("forward", "backward", "dependent"): 1723,
        ("backward", "forward", "dependent"): 1039,
        ("backward", "backward", "dependent"): 2884,
    },
    # F2: an undo across a dcc extrusion and a redo, judged concurrent,
    # close no diamond
    ("dcc", "F2"): {("backward", "forward", "concurrent"): 24},
    ("dcc", "sweep-square"): {("backward", "forward", "concurrent"): 9},
}


def _diamond_counts(mismatches) -> dict:
    return dict(Counter((t1.dir.value, t2.dir.value,
                         "concurrent" if concurrent_pair(t1, t2) else "dependent")
                        for t1, t2 in mismatches))


@pytest.mark.parametrize("kind", list(MemoryKind), ids=lambda kind: kind.value)
def test_dependence_is_exactly_the_absence_of_a_diamond(kind):
    # over every composable pair of distinct keys at every state the full
    # walk of each of the 58 terms reaches: concurrent exactly when the
    # engine closes the diamond the other way round
    found = {}
    for name, term in MAXIMALITY_TERMS:
        counts = _diamond_counts(diamond_mismatches(parse(term), Engine(kind)))
        if counts:
            found[kind.value, name] = counts
    assert found == {case: counts for case, counts in DIAMOND_MISMATCHES.items()
                     if case[0] == kind.value}


def test_a_bsc_memory_that_never_interlocks_misses_two_dependences(monkeypatch):
    # without ``interlocked`` the same-direction over-order of F3 is gone,
    # and so is the order of one pair each way on two corpus terms, whose
    # diamonds do not close
    monkeypatch.setattr(BscMemory, "interlocked", lambda m, early, late, refined: False)
    terms = dict(MAXIMALITY_TERMS)
    for name in ("ex12_close_then_cause", "gen_32"):
        mismatches = diamond_mismatches(parse(terms[name]), Engine(MemoryKind.BSC))
        assert _diamond_counts(mismatches) == {("forward", "forward", "concurrent"): 1,
                                               ("backward", "backward", "concurrent"): 1}


# --------------------------------------------------------------------------- #
# where the memories agree
# --------------------------------------------------------------------------- #

# The terms of ``MAXIMALITY_TERMS`` with a forward trace of at most 5 steps
# that extrudes one name twice.  The causal semantics of the pi-calculus
# differ in their treatment of parallel extrusions of the same name, so
# on every other term the three memories give the same forward traces
# with the same causality.
EXTRUDED_TWICE = {
    "ex04_three_extruders", "ex05_double_extrusion", "ex11_close_then_reopen",
    "ex12_close_then_cause", "gen_24", "gen_26", "gen_28", "gen_32",
    "F2", "F3", "sweep-square", "sweep-correspondence",
}


def _disagreeing(terms):
    """The names of ``terms`` whose forward traces of at most 5 steps the
    three memory kinds project differently (``forward_projection``)."""
    out = set()
    for name, term in terms:
        rpi, bsc, dcc = (forward_projection(parse(term), Engine(kind), 5)
                         for kind in MemoryKind)
        if not rpi == bsc == dcc:
            out.add(name)
    return out


def test_the_memories_differ_exactly_where_a_name_is_extruded_twice():
    twice = {name for name, term in MAXIMALITY_TERMS
             if extrudes_a_name_twice(parse(term), Engine(MemoryKind.RPI), 5)}
    assert twice == EXTRUDED_TWICE
    assert _disagreeing(MAXIMALITY_TERMS) == EXTRUDED_TWICE


def test_a_dcc_memory_whose_causes_ignore_the_extruders_disagrees(monkeypatch):
    # refinement is never blocked and never interlocks, so the loop holds
    monkeypatch.setattr(DccMemory, "admissible_causes", lambda m, k, host: [k])
    monkeypatch.setattr(DccMemory, "refine_cause_consistent", lambda m, cause: True)
    monkeypatch.setattr(DccMemory, "interlocked", lambda m, early, late, refined: False)
    once = [(name, term) for name, term in MAXIMALITY_TERMS if name not in EXTRUDED_TWICE]
    assert _disagreeing(once) == {
        "ex03_single_extruder", "ex13_extrude_then_input", "gen_25", "gen_27", "gen_37"}
