import json

import pytest

from conftest import fire, run, start
from oracles import (
    EquivalenceBudgetError, equivalent_up_to_permutation, normalize_parabolic,
)
from revpi import semantics, syntax, traces
from revpi.causality import Trace, label_equiv
from revpi.engine import Engine
from revpi.memory import Memory, MemoryKind, mem_new
from revpi.semantics import forward_transitions, step
from revpi.syntax import Direction
from revpi.traces import (
    NotConcurrentError, NotInverseError, cancel_inverse, residual_swap,
    reverse_transition, trace_json,
)


def forced(state, needle, key, kind=MemoryKind.RPI):
    hits = [t for t in forward_transitions(state, kind, key=key)
            if needle in syntax.format(t.label)]
    assert len(hits) == 1
    return hits[0]


# --------------------------------------------------------------------------- #
# reversal
# --------------------------------------------------------------------------- #

def test_reverse_is_involutive():
    (t,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    rev = reverse_transition(t)
    assert rev.dir is Direction.BACKWARD
    assert rev.label == t.label
    assert rev.source == t.target and rev.target == t.source
    assert reverse_transition(rev) == t


def test_reverse_matches_enumerated_backward():
    (t,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    assert reverse_transition(t) in semantics.backward_transitions(t.target)


# --------------------------------------------------------------------------- #
# residuals
# --------------------------------------------------------------------------- #

def _two_opens():
    return Trace(tuple(run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "c!(nu"])))


def test_residual_swap_commutes_extrusions():
    tr = _two_opens()
    swapped = residual_swap(tr, 0, Engine(MemoryKind.RPI))
    assert swapped.source == tr.source
    assert swapped.target == tr.target
    # the extrusion labels survive up to the memory payload
    assert label_equiv(swapped[0].label, tr[1].label)
    assert label_equiv(swapped[1].label, tr[0].label)
    assert swapped[0].label.act.mem == mem_new(MemoryKind.RPI)
    assert tr[1].label.act.mem == Memory(MemoryKind.RPI, frozenset({1}))


def test_residual_swap_rejects_nested_prefixes():
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    with pytest.raises(NotConcurrentError):
        residual_swap(tr, 0, Engine(MemoryKind.RPI))


def test_residual_swap_twice_recovers_labels():
    tr = _two_opens()
    engine = Engine(MemoryKind.RPI)
    back = residual_swap(residual_swap(tr, 0, engine), 0, engine)
    assert back.source == tr.source and back.target == tr.target
    for a, b in zip(back.steps, tr.steps):
        assert label_equiv(a.label, b.label)


# --------------------------------------------------------------------------- #
# cancellation
# --------------------------------------------------------------------------- #

def test_cancel_inverse_pair():
    (t,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    tr = Trace((t, reverse_transition(t)))
    assert cancel_inverse(tr, 0).steps == ()


def test_cancel_requires_exact_inverse():
    t1, t2 = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    with pytest.raises(NotInverseError):
        cancel_inverse(Trace((t1, t2)), 0)


def test_cancel_in_the_middle_keeps_composability():
    t1, t2 = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    tr = Trace((t1, t2, reverse_transition(t2), t2))
    got = cancel_inverse(tr, 1)
    assert got.steps == (t1, t2)


# --------------------------------------------------------------------------- #
# permutation equivalence
# --------------------------------------------------------------------------- #

def test_two_extrusion_orders_equivalent():
    s1 = _two_opens()
    x = s1.source
    u1 = forced(x, "c!(nu", key=2)
    u2 = forced(u1.target, "b!(nu", key=1)
    s2 = Trace((u1, u2))
    assert s2.target == s1.target
    assert equivalent_up_to_permutation(s1, s2, Engine(MemoryKind.RPI))


def test_stuttering_is_equivalent():
    t1, t2 = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    s1 = Trace((t1, t2))
    s2 = Trace((t1, t2, reverse_transition(t2), t2))
    assert equivalent_up_to_permutation(s1, s2, Engine(MemoryKind.RPI))


def test_different_endpoints_definitely_inequivalent():
    x = start("b!a.0 | b?(x).x!c.0")
    out = fire(x, "b!a")
    inp = fire(x, "b?(x)")
    s1 = Trace((out,))
    s2 = Trace((inp,))
    assert equivalent_up_to_permutation(s1, s2, Engine(MemoryKind.RPI)) is False


def test_key_permuted_runs_are_not_cofinal():
    x = start("nu a.(b!a.0 | c!a.0 | a?(x).0)")
    s1 = Trace((fire(x, "b!(nu"),))
    s2 = Trace((forced(x, "c!(nu", key=1),))
    assert s1.target != s2.target
    assert equivalent_up_to_permutation(s1, s2, Engine(MemoryKind.RPI)) is False


def test_budget_exhaustion_is_distinct():
    t1, t2 = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    s1 = Trace((t1, t2))
    s2 = Trace((t1, t2, reverse_transition(t2), t2))
    with pytest.raises(EquivalenceBudgetError):
        equivalent_up_to_permutation(s1, s2, Engine(MemoryKind.RPI), budget=0)


# --------------------------------------------------------------------------- #
# parabolic normalization
# --------------------------------------------------------------------------- #

def test_parabolic_empty_and_forward_only():
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    assert normalize_parabolic(tr, Engine(MemoryKind.RPI)) == tr


def test_parabolic_cancels_do_undo():
    (t,) = run("b!a.0 | b?(x).x!c.0", ["tau"])
    tr = Trace((t, reverse_transition(t)))
    assert normalize_parabolic(tr, Engine(MemoryKind.RPI)).steps == ()


def test_parabolic_moves_backward_steps_first():
    t1, t2 = run("b!a.0 | b?(x).x!c.0", ["b!a", "b?(x)"])
    undo_first = fire(t2.target, "b!a", direction=Direction.BACKWARD)
    tr = Trace((t1, t2, undo_first))
    norm = normalize_parabolic(tr, Engine(MemoryKind.RPI))
    dirs = [t.dir for t in norm.steps]
    assert dirs == sorted(dirs, key=lambda d: d is Direction.FORWARD)
    assert norm.source == tr.source and norm.target == tr.target
    assert equivalent_up_to_permutation(tr, norm, Engine(MemoryKind.RPI))


def test_parabolic_output_shape_on_mixed_runs(corpus_entries):
    for name, p in corpus_entries[:10]:
        x = syntax.initial(p, MemoryKind.RPI)
        fwd = forward_transitions(x, MemoryKind.RPI)
        if not fwd:
            continue
        t1 = fwd[0]
        nxt = forward_transitions(t1.target, MemoryKind.RPI)
        if not nxt:
            continue
        t2 = nxt[0]
        back = [b for b in semantics.backward_transitions(t2.target)]
        if not back:
            continue
        tr = Trace((t1, t2, back[0]))
        norm = normalize_parabolic(tr, Engine(MemoryKind.RPI))
        seen_forward = False
        for t in norm.steps:
            if t.dir is Direction.FORWARD:
                seen_forward = True
            else:
                assert not seen_forward, name
        assert norm.source == tr.source and norm.target == tr.target


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #

def test_trace_json_schema():
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "a?(x)"])
    data = trace_json(Trace(tuple(steps)))
    assert [d["dir"] for d in data] == ["forward", "forward"]
    assert data[0]["act"] == {"kind": "boundout", "chan": "b", "datum": "a",
                              "mem": "set{}"}
    assert data[0]["cause"] == ["*"]
    assert data[1]["cause"] == [1]
    assert data[1]["act"]["kind"] == "in"
    json.dumps(data)
