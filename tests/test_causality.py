import itertools

import pytest

from conftest import fire, run, start
from oracles import concurrent, fired_positions, prefix_equiv, structural_leq_keys
from revpi import causality, checks, correspondence, semantics, syntax, traces
from revpi.causality import Trace, concurrent_pair, label_equiv
from revpi.engine import Engine
from revpi.memory import MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, Direction, FreeOut, Label, Nil,
    Par, PastOutput, Tau,
)
from test_memory import SHAPES

STRUCTURAL, OBJECT = 0, 1  # the two base relations, as ``_depends`` orders them


def ann(name, inst=STAR):
    return AnnotatedName(name, inst)


def caused(tr, relation):
    """The reflexive-transitive closure of one base relation on ``tr``."""
    base = causality._base_relations(tr)
    return causality._closure(tr, lambda _, i, j: i < j and base[i, j][relation])


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
    batch = engine.forward(x, key) if direction is Direction.FORWARD else engine.backward(x)
    return [t for t in batch if t.label.key == key]


@SHAPES
def test_a_concurrent_pair_has_a_square(corpus_entries, kind):
    # soundness of the judgement on adjacent pairs: every pair judged
    # concurrent is closed by the residual square, which starts where the
    # pair starts and ends where it ends; over the shipped shapes and the
    # test-only conjunctive one (the fault terms that break it are in
    # ``test_known_faults``)
    concurrent = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, engine, 4):
            for t1 in engine.all(x):
                for t2 in engine.all(t1.target):
                    if t1.label.key == t2.label.key or not engine.concurrent(t1, t2):
                        continue
                    concurrent += 1
                    u1, u2 = traces.residual_swap(t1, t2, engine)
                    assert (u1.source, u2.target) == (x, t2.target), (str(t1), str(t2))
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
                    if k1 == k2 or engine.concurrent(t1, t2):
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
