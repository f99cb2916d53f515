import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fire, parse, procs, run, start
from oracles import check_key_invariant
from revpi import checks, semantics, syntax
from revpi.engine import Engine
from revpi.memory import BscMemory, DccMemory, MemoryKind, RpiMemory
from revpi.semantics import (
    NoSuchTransitionError, Transition, backward_transitions, cause_update,
    forward_transitions, step,
)
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, Direction, FreeOut, InAct, Label, Nil,
    Output, Par, PastInput, PastOutput, RRes, Tau,
)
from test_memory import CONJUNCTIVE, SHAPES
from test_output_digests import FAULT_TERMS
from test_symmetry import SWEEP_WITNESSES


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
    assert batch[0].target == PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil())


def test_visible_pair_and_tau():
    x = start("b!a.0 | b?(x).x!c.0")
    batch = forward_transitions(x, MemoryKind.RPI)
    assert labels(batch) == [
        "(1,{*},*): b!a",
        "(1,{*},*): b?(x)",
        "(1,{*},*): tau",
    ]
    tau = batch[-1]
    assert tau.target == Par(
        PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
        PastInput(ann("b"), "x", 1, STAR_SET,
                  Output(ann("a", 1), ann("c"), Nil())),
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
    assert state.mem == RpiMemory(frozenset({1, 2}))
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
    assert final.mem == BscMemory(frozenset({1, 2}), 1)


def test_cause_set_takes_all_extruders():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                ["b!(nu", "c!(nu", "a?(x)"], MemoryKind.DCC)
    assert syntax.format(steps[-1].label) == "(3,{*,1,2},*): a?(x)"
    assert steps[-1].target.mem == DccMemory(frozenset({1, 2}), frozenset({STAR, 1, 2}))


def test_chosen_cause_blocks_extruder_undo():
    t1, t2, t3 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                     ["b!(nu", "c!(nu", "{2}"])
    back = backward_transitions(t3.target)
    # the non-chosen extruder reverses freely, the chosen one must wait
    assert {t.label.key for t in back} == {1, 3}


def test_open_label_carries_pre_add_memory():
    t1 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu"])[0]
    assert t1.label.act.mem == MemoryKind.RPI.new()
    t2 = fire(t1.target, "c!(nu")
    assert t2.label.act.mem == RpiMemory(frozenset({1}))


# --------------------------------------------------------------------------- #
# close
# --------------------------------------------------------------------------- #

def test_close_rewraps_restriction():
    (tau,) = run("nu a.(b!a.0) | b?(x).x!c.0", ["tau"])
    target = tau.target
    assert isinstance(target, RRes) and target.mem == MemoryKind.RPI.new()
    inner_left = target.body.left
    assert isinstance(inner_left, RRes)
    assert inner_left.mem == RpiMemory(frozenset({1}))
    # received private name stays unusable as a subject
    assert forward_transitions(target, MemoryKind.RPI) == ()
    # and the whole exchange undoes in one step
    back = backward_transitions(target)
    assert labels(back) == ["(1,{*},*): tau"]
    assert back[0].target == tau.source


def test_close_strips_index():
    (tau,) = run("nu a.(b!a.0) | b?(x).x!c.0", ["tau"], MemoryKind.BSC)
    inner_left = tau.target.body.left
    assert inner_left.mem == BscMemory(frozenset({1}), STAR)
    assert backward_transitions(tau.target)[0].target == tau.source


def test_reopen_after_close():
    tau, reopen = run("nu a.(b!a.d!a.0) | b?(x).0", ["tau", "d!(nu"])
    assert syntax.format(reopen.label) == "(2,{*},*): d!(nu a:set{})"
    outer = reopen.target
    assert outer.mem == RpiMemory(frozenset({2}))
    assert outer.body.left.mem == RpiMemory(frozenset({1, 2}))


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
    assert tau.target.mem == MemoryKind.RPI.new()
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
    x = PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil())
    got = cause_update(x, 1, frozenset({2}))
    assert got == PastOutput(ann("b"), ann("a"), 1, frozenset({2}), Nil())


def test_cause_update_misses_other_keys():
    x = PastOutput(ann("b"), ann("a"), 3, STAR_SET, Nil())
    assert cause_update(x, 1, frozenset({2})) == x


def test_cause_update_distributes_over_par():
    x = Par(PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
            PastOutput(ann("c"), ann("d"), 2, STAR_SET, Nil()))
    got = cause_update(x, 2, frozenset({1}))
    assert got.left == x.left
    assert got.right.cause == frozenset({1})


def test_cause_update_shares_what_it_leaves_alone():
    # only the path to the prefix keyed 2 is copied
    x = Par(PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
            RRes("c", RpiMemory(), Par(
                PastOutput(ann("c"), ann("d"), 2, STAR_SET, parse("e!f.0")),
                parse("g!h.0"))))
    got = cause_update(x, 2, frozenset({1}))
    assert got.right.body.left.cause == frozenset({1})
    assert got.left is x.left
    assert got.right.body.right is x.right.body.right
    assert got.right.body.left.cont is x.right.body.left.cont
    assert cause_update(x, 3, frozenset({1})) is x


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


def test_step_with_a_used_key_is_no_such_transition():
    # replaying a forward step where its key is already stamped
    (t,) = run("a!b.c!d.0", ["a!b"])
    with pytest.raises(NoSuchTransitionError, match="key 1 is not fresh"):
        step(t.target, t.label, Direction.FORWARD, MemoryKind.RPI)


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
                if not (isinstance(res, RRes) and isinstance(res.body, Par)):
                    continue
                engine = Engine(kind)
                lefts = engine.backward_premises(res.body.left)
                rights = engine.backward_premises(res.body.right)
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
                x, Direction.FORWARD, Engine(kind).forward_premises(x, key))
            assert backward_transitions(x) == _fully_sorted(
                x, Direction.BACKWARD, Engine(kind).backward_premises(x))


def test_tied_labels_are_ordered_by_rendered_target():
    fwd = forward_transitions(start(TIED), MemoryKind.RPI)
    assert fwd[0].label == fwd[1].label
    assert [syntax.format(t.target) for t in fwd] == [
        "a!m.0 | a!m[1;{*}].0", "a!m[1;{*}].0 | a!m.0"]


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_kept_sort_keys_and_erasures_are_fresh(corpus_entries, kind):
    # what a state or a label keeps on itself is what a fresh computation
    # gives; a replaced copy keeps nothing and computes anew; and the kept
    # value shows in no repr
    for _, p in corpus_entries:
        order, edges = checks.explore(p, Engine(kind), 4)
        for x in order:
            kept = syntax.erase(x)
            fresh = syntax.rebuild(x, names=lambda a: a)  # every node anew
            assert "_erased" not in vars(fresh) and syntax.erase(fresh) == kept
            copy = dataclasses.replace(x)
            assert "_erased" not in vars(copy) and syntax.erase(copy) == kept
            # a state that is its own erasure keeps the marker, not itself
            slot = syntax._ITSELF if kept is x else kept
            assert vars(x)["_erased"] is slot and repr(x) == repr(fresh)
        for _, _, t in edges:
            label = t.label
            kept = semantics.label_sort_key(label)
            assert kept == semantics.label_sort_key.__wrapped__(label)
            copy = dataclasses.replace(label)
            assert "_sort_key" not in vars(copy)
            assert semantics.label_sort_key(copy) == kept
            assert vars(label)["_sort_key"] is kept and repr(label) == repr(copy)


# --------------------------------------------------------------------------- #
# what a step shares, and what a batch never repeats
# --------------------------------------------------------------------------- #

def _threads(x, out):
    # the parallel components of a state: what its restrictions and
    # parallel compositions hold
    if isinstance(x, Par):
        _threads(x.left, out)
        _threads(x.right, out)
    elif isinstance(x, RRes):
        _threads(x.body, out)
    else:
        out.append(x)
    return out


def _step_kind(t):
    if t.dir is Direction.BACKWARD:
        return "undo"
    if isinstance(t.label.act, BoundOut):
        return "extrusion"
    if isinstance(t.label.act, Tau):
        before, after = ([node for node, _, _ in syntax.history(y) if isinstance(node, RRes)]
                         for y in (t.source, t.target))
        return "close" if len(after) > len(before) else "communication"
    return "free"


@SHAPES
def test_a_step_shares_every_thread_it_does_not_touch(corpus_entries, kind):
    # the steps of the module-level enumerations, each made by a throwaway
    # run that adopts the state's own nodes: every thread without the
    # step's key on the side that has it is an object of the other side
    seen = set()
    for _, p in corpus_entries:
        for x in checks.reachable_states(p, kind, 4):
            for t in forward_transitions(x, kind) + backward_transitions(x):
                seen.add(_step_kind(t))
                later, earlier = ((t.target, t.source) if t.dir is Direction.FORWARD
                                  else (t.source, t.target))
                kept = {id(y) for y in _threads(earlier, [])}
                for y in _threads(later, []):
                    assert t.label.key in syntax.keys(y) or id(y) in kept, str(t)
    assert seen == {"undo", "extrusion", "close", "communication", "free"}


def _repeat_free(batch):
    return len({(t[0], t[1]) if isinstance(t, tuple) else (t.label, t.target)
                for t in batch}) == len(batch)


def _assert_batches_repeat_free(p, kind, depth):
    engine = Engine(kind)
    for x in checks.reachable_states(p, engine, depth):
        assert _repeat_free(engine.forward(x)) and _repeat_free(engine.backward(x))
    for batch in (list(engine._forward_premises.values())
                  + list(engine._backward_premises.values())):
        assert _repeat_free(batch)


@SHAPES
def test_no_batch_repeats_a_step(corpus_entries, kind):
    # the rules derive each (label, target) once, so ``sort_steps`` keeps
    # every step it is given
    terms = [p for _, p in corpus_entries] + [parse(t) for t in FAULT_TERMS + SWEEP_WITNESSES]
    for p in terms:
        _assert_batches_repeat_free(p, kind, 4)


@settings(max_examples=60, deadline=None)
@given(procs(), st.sampled_from(list(MemoryKind) + [CONJUNCTIVE]))
def test_no_batch_of_a_random_term_repeats_a_step(p, kind):
    _assert_batches_repeat_free(parse(syntax.format(p)), kind, 4)
