import json
from pathlib import Path

import pytest

from conftest import fire, parse, run, start
from oracles import check_key_invariant
from revpi import checks, semantics, syntax
from revpi.engine import Engine
from revpi.memory import Memory, MemoryKind, mem_new
from revpi.semantics import (
    NoSuchTransitionError, Transition, backward_transitions, cause_update,
    forward_transitions, step,
)
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, Direction, FreeOut, InAct, Label, Leaf,
    Nil, Output, PastInput, PastOutput, RPar, RRes, Tau,
)


def ann(name, inst=STAR):
    return AnnotatedName(name, inst)


def labels(batch):
    return [syntax.format(t.label) for t in batch]


# --------------------------------------------------------------------------- #
# visible pair and communication
# --------------------------------------------------------------------------- #

def test_single_output():
    x = start("b!a.0")
    batch = forward_transitions(x, MemoryKind.RPI)
    assert labels(batch) == ["(1,{*},*): b!a"]
    assert batch[0].target == PastOutput(ann("b"), ann("a"), 1, STAR_SET, Leaf(Nil()))


def test_visible_pair_and_tau():
    x = start("b!a.0 | b?(x).x!c.0")
    batch = forward_transitions(x, MemoryKind.RPI)
    assert labels(batch) == [
        "(1,{*},*): b!a",
        "(1,{*},*): b?(x)",
        "(1,{*},*): tau",
    ]
    tau = batch[-1]
    assert tau.target == RPar(
        PastOutput(ann("b"), ann("a"), 1, STAR_SET, Leaf(Nil())),
        PastInput(ann("b"), "x", 1, STAR_SET,
                  Leaf(Output(ann("a", 1), ann("c"), Nil()))),
    )


def test_backward_of_initial_is_empty():
    for text in ("0", "b!a.0", "nu a.(b!a.0 | a?(x).0)"):
        assert backward_transitions(start(text)) == ()


def test_communication_undo_is_joint():
    (tau,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    back = backward_transitions(tau.target)
    assert labels(back) == ["(1,{*},*): tau"]
    assert back[0].target == tau.source


def test_separate_past_actions_reverse_in_any_order():
    out, inp = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    back = backward_transitions(inp.target)
    assert len(back) == 2
    assert {t.label.key for t in back} == {1, 2}


# --------------------------------------------------------------------------- #
# extrusion and cause refinement
# --------------------------------------------------------------------------- #

def test_parallel_extrusion_choice():
    t1, t2 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "c!(nu"])
    state = t2.target
    assert state.mem == Memory(MemoryKind.RPI, frozenset({1, 2}))
    ins = forward_transitions(state, MemoryKind.RPI)
    assert labels(ins) == ["(3,{1},*): a?(x)", "(3,{2},*): a?(x)"]


def test_private_subject_is_blocked():
    x = start("nu a.(b!a.0 | a?(x).0)")
    assert labels(forward_transitions(x, MemoryKind.RPI)) == ["(1,{*},*): b!(nu a:set{})"]


def test_indexed_set_forces_first_extruder():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                ["b!(nu", "c!(nu", "a?(x)"], MemoryKind.BSC)
    assert [syntax.format(t.label) for t in steps] == [
        "(1,{*},*): b!(nu a:iset{}@*)",
        "(2,{*,1},*): c!(nu a:iset{1}@1)",
        "(3,{*,1},*): a?(x)",
    ]
    final = steps[-1].target
    assert final.mem == Memory(MemoryKind.BSC, frozenset({1, 2}), 1)


def test_cause_set_takes_all_extruders():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                ["b!(nu", "c!(nu", "a?(x)"], MemoryKind.DCC)
    assert syntax.format(steps[-1].label) == "(3,{*,1,2},*): a?(x)"
    assert steps[-1].target.mem == Memory(
        MemoryKind.DCC, frozenset({1, 2}), frozenset({STAR, 1, 2}))


def test_chosen_cause_blocks_extruder_undo():
    t1, t2, t3 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                     ["b!(nu", "c!(nu", "{2}"])
    back = backward_transitions(t3.target)
    # the non-chosen extruder reverses freely, the chosen one must wait
    assert {t.label.key for t in back} == {1, 3}


def test_open_label_carries_pre_add_memory():
    t1 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu"])[0]
    assert t1.label.act.mem == mem_new(MemoryKind.RPI)
    t2 = fire(t1.target, "c!(nu")
    assert t2.label.act.mem == Memory(MemoryKind.RPI, frozenset({1}))


# --------------------------------------------------------------------------- #
# close
# --------------------------------------------------------------------------- #

def test_close_rewraps_restriction():
    (tau,) = run("nu a.(b!a.0) | b?(x).x!c.0", ["tau"])
    target = tau.target
    assert isinstance(target, RRes) and target.mem == mem_new(MemoryKind.RPI)
    inner_left = target.body.left
    assert isinstance(inner_left, RRes)
    assert inner_left.mem == Memory(MemoryKind.RPI, frozenset({1}))
    # received private name stays unusable as a subject
    assert forward_transitions(target, MemoryKind.RPI) == ()
    # and the whole exchange undoes in one step
    back = backward_transitions(target)
    assert labels(back) == ["(1,{*},*): tau"]
    assert back[0].target == tau.source


def test_close_strips_index():
    (tau,) = run("nu a.(b!a.0) | b?(x).x!c.0", ["tau"], MemoryKind.BSC)
    inner_left = tau.target.body.left
    assert inner_left.mem == Memory(MemoryKind.BSC, frozenset({1}), STAR)
    assert backward_transitions(tau.target)[0].target == tau.source


def test_reopen_after_close():
    tau, reopen = run("nu a.(b!a.d!a.0) | b?(x).0", ["tau", "d!(nu"])
    assert syntax.format(reopen.label) == "(2,{*},*): d!(nu a:set{})"
    outer = reopen.target
    assert outer.mem == Memory(MemoryKind.RPI, frozenset({2}))
    assert outer.body.left.mem == Memory(MemoryKind.RPI, frozenset({1, 2}))


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_close_undo_after_reindexing_extrusion(kind):
    # the later extrusion re-indexes the memory the close stripped: a
    # first-extruder memory must undo it before the close
    tau, reopen = run("nu a.(b!a.0 | d!a.0) | b?(x).0", ["tau", "d!(nu"], kind)
    back = labels(backward_transitions(reopen.target))
    reopen_label = syntax.format(reopen.label)
    if kind is MemoryKind.BSC:
        assert back == ["(2,{*},*): d!(nu a:iset{}@*)"]
    else:
        assert back == ["(1,{*},*): tau", reopen_label]
    undone = fire(reopen.target, "(2,", kind, Direction.BACKWARD).target
    assert undone == tau.target
    assert labels(backward_transitions(undone)) == ["(1,{*},*): tau"]


def test_com_under_restriction_keeps_it_private():
    (tau,) = run("nu a.(b!a.0 | b?(x).x!c.0)", ["tau"])
    assert isinstance(tau.target, RRes)
    assert tau.target.mem == mem_new(MemoryKind.RPI)
    # a!c is stuck behind the still-private name
    assert forward_transitions(tau.target, MemoryKind.RPI) == ()


def test_instantiator_meets_cause_condition():
    # after close-c, the received channel's instantiator is the close key;
    # a later cause refinement must pick an extruder from the memory
    t_open, t_close, t_use = run("nu a.(b!a.0 | c!a.0) | c?(x).x!d.0",
                                 ["b!(nu", "tau", "a!d"])
    assert t_use.label.cause == frozenset({1})
    assert t_use.label.inst == 2


# --------------------------------------------------------------------------- #
# cause update
# --------------------------------------------------------------------------- #

def test_cause_update_hits_keyed_prefix():
    x = PastOutput(ann("b"), ann("a"), 1, STAR_SET, Leaf(Nil()))
    got = cause_update(x, 1, frozenset({2}))
    assert got == PastOutput(ann("b"), ann("a"), 1, frozenset({2}), Leaf(Nil()))


def test_cause_update_misses_other_keys():
    x = PastOutput(ann("b"), ann("a"), 3, STAR_SET, Leaf(Nil()))
    assert cause_update(x, 1, frozenset({2})) == x


def test_cause_update_distributes_over_par():
    x = RPar(PastOutput(ann("b"), ann("a"), 1, STAR_SET, Leaf(Nil())),
             PastOutput(ann("c"), ann("d"), 2, STAR_SET, Leaf(Nil())))
    got = cause_update(x, 2, frozenset({1}))
    assert got.left == x.left
    assert got.right.cause == frozenset({1})


# --------------------------------------------------------------------------- #
# step selection
# --------------------------------------------------------------------------- #

def test_step_forward_and_back():
    x = start("b!a.0 | b?(x).x!c.0")
    tau = fire(x, "tau")
    y = step(x, tau.label, Direction.FORWARD, MemoryKind.RPI)
    assert y == tau.target
    assert step(y, tau.label, Direction.BACKWARD, MemoryKind.RPI) == x


def test_step_unknown_label():
    x = start("b!a.0")
    ghost = Label(1, STAR_SET, STAR, FreeOut("z", "w"))
    with pytest.raises(NoSuchTransitionError) as exc:
        step(x, ghost, Direction.FORWARD, MemoryKind.RPI)
    assert "nearest by key" in str(exc.value)


def test_step_with_noncanonical_key():
    x = start("b!a.0")
    lbl = Label(5, STAR_SET, STAR, FreeOut("b", "a"))
    y = step(x, lbl, Direction.FORWARD, MemoryKind.RPI)
    assert syntax.keys(y) == frozenset({5})


# --------------------------------------------------------------------------- #
# engine invariants
# --------------------------------------------------------------------------- #

def test_key_discipline_along_runs(corpus_entries):
    for name, p in corpus_entries[:20]:
        for kind in MemoryKind:
            engine = Engine(kind)
            x = syntax.initial(p, kind)
            frontier = [x]
            for _ in range(3):
                nxt = []
                for state in frontier:
                    for t in engine.all(state):
                        if t.dir is Direction.FORWARD:
                            assert t.label.key not in syntax.keys(t.source)
                            assert t.label.key in syntax.keys(t.target)
                        else:
                            assert t.label.key in syntax.keys(t.source)
                            assert t.label.key not in syntax.keys(t.target)
                        check_key_invariant(t.target)
                        nxt.append(t.target)
                frontier = nxt


def test_tau_labels_are_anonymous(corpus_entries):
    for name, p in corpus_entries[:20]:
        x = syntax.initial(p, MemoryKind.RPI)
        for t in forward_transitions(x, MemoryKind.RPI):
            if isinstance(t.label.act, Tau):
                assert t.label.cause == STAR_SET
                assert t.label.inst is STAR


def test_history_is_transparent_to_the_future():
    # an executed prefix does not guard anything, including silent steps
    t1 = run("a!b.(c!d.0 | c?(x).0)", ["a!b"])[0]
    assert "tau" in " ".join(labels(forward_transitions(t1.target, MemoryKind.RPI)))


CLOSE_HEAVY = sorted({entry.split(" ", 1)[1] for entry in json.loads(
    (Path(__file__).parent / "data" / "enumerate_depth6_digests.json").read_text())})


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_undone_close_carries_the_memory_of_its_restriction(corpus_entries, kind):
    # the invariant in the docstring of semantics._sends: a backward bound
    # output of ``res.name`` that meets an input premise it can be undone
    # with always carries the memory of ``res`` itself
    terms = [p for _, p in corpus_entries] + [parse(t) for t in CLOSE_HEAVY]
    decided = 0
    for p in terms:
        order, _ = checks.explore(p, Engine(kind), 5)
        for x in order:
            for res, _, _ in syntax.history(x):
                if not (isinstance(res, RRes) and isinstance(res.body, RPar)):
                    continue
                premises = semantics.Premises()
                lefts = premises.backward(res.body.left)
                rights = premises.backward(res.body.right)
                for outs, ins in ((lefts, rights), (rights, lefts)):
                    for lo, _ in outs:
                        if not (isinstance(lo.act, BoundOut) and lo.act.datum == res.name):
                            continue
                        if any(li.key == lo.key and semantics._joinable(lo, li)
                               for li, _ in ins):
                            assert lo.act.mem == res.mem, syntax.format(x)
                            decided += 1
    assert decided > 0, decided


# --------------------------------------------------------------------------- #
# batch order
# --------------------------------------------------------------------------- #

TIED = "a!m.0 | a!m.0"  # two steps with one label


def _fully_sorted(x, direction, steps):
    """A batch in the order of its full key: label, then rendered target."""
    batch = dict.fromkeys(Transition(x, direction, lbl, tgt) for lbl, tgt in steps)
    return tuple(sorted(batch, key=lambda t: (semantics.label_sort_key(t.label),
                                              syntax.format(t.target))))


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_batches_are_ordered_by_label_then_rendered_target(corpus_entries, kind):
    terms = [p for _, p in corpus_entries] + [parse(TIED)]
    for p in terms:
        for x in checks.reachable_states(p, kind, 4):
            key = syntax.fresh_key(x)
            assert forward_transitions(x, kind) == _fully_sorted(
                x, Direction.FORWARD, semantics.Premises().forward(x, key, kind))
            assert backward_transitions(x) == _fully_sorted(
                x, Direction.BACKWARD, semantics.Premises().backward(x))


def test_tied_labels_are_ordered_by_rendered_target():
    fwd = forward_transitions(start(TIED), MemoryKind.RPI)
    assert fwd[0].label == fwd[1].label
    assert [syntax.format(t.target) for t in fwd] == [
        "a!m.0 | a!m[1;{*}].0", "a!m[1;{*}].0 | a!m.0"]
