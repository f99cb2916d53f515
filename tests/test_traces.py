import json

import pytest
from hypothesis import given, strategies as st

from conftest import fire, parse, run, start
from oracles import (
    EquivalenceBudgetError, closure_of_traces, equivalent_up_to_permutation,
    normal_form, normalize_parabolic,
)
from revpi import causality, checks, corpus, semantics, syntax, traces
from revpi.causality import Trace, label_equiv
from revpi.engine import Engine
from revpi.memory import MemoryKind, RpiMemory
from revpi.semantics import forward_transitions, step
from revpi.syntax import Direction
from revpi.traces import (
    NotConcurrentError, NotInverseError, cancel_inverse, residual_swap,
    reverse_transition, trace_json,
)
from test_known_faults import FAULTS
from test_memory import SHAPES
from test_output_digests import F1_TERMS, F2_TERM, F3_TERM


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
    swapped = Trace(residual_swap(*tr.steps, Engine(MemoryKind.RPI)))
    assert swapped.source == tr.source
    assert swapped.target == tr.target
    # the extrusion labels survive up to the memory payload
    assert label_equiv(swapped[0].label, tr[1].label)
    assert label_equiv(swapped[1].label, tr[0].label)
    assert swapped[0].label.act.mem == MemoryKind.RPI.new()
    assert tr[1].label.act.mem == RpiMemory(frozenset({1}))


def test_residual_swap_rejects_nested_prefixes():
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    with pytest.raises(NotConcurrentError, match="steps 0 and 1 are causally related"):
        residual_swap(*tr.steps, Engine(MemoryKind.RPI))


def test_residual_swap_twice_recovers_labels():
    tr = _two_opens()
    engine = Engine(MemoryKind.RPI)
    back = residual_swap(*residual_swap(*tr.steps, engine), engine)
    assert back[0].source == tr.source and back[1].target == tr.target
    for a, b in zip(back, tr.steps):
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
# the closure over steps against the closure over traces
# --------------------------------------------------------------------------- #

@pytest.fixture
def remembered_swaps(monkeypatch):
    """``traces.residual_swap`` with its answers remembered by pair and
    engine: the rewrite closure asks each pair again and again."""
    swap, memo = traces.residual_swap, {}

    def remembered(t1, t2, engine):
        out = memo.get((t1, t2, engine))
        if out is None:
            out = memo[t1, t2, engine] = swap(t1, t2, engine)
        return out

    monkeypatch.setattr(traces, "residual_swap", remembered)


def _partition(closures) -> set[frozenset]:
    """The classes of the rewrite closure: traces whose closures share a
    key, transitively."""
    comp = list(range(len(closures)))

    def find(i):
        while comp[i] != i:
            i = comp[i]
        return i

    roots: dict = {}
    for idx, (keys, _) in enumerate(closures):
        for key in keys:
            comp[find(roots.setdefault(key, idx))] = find(idx)
    classes: dict = {}
    for idx in range(len(closures)):
        classes.setdefault(find(idx), set()).add(idx)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_closure_over_steps_matches_the_closure_over_traces(corpus_entries, kind,
                                                           remembered_swaps):
    terms = [p for _, p in corpus_entries] + [parse(t) for t in F1_TERMS + [F2_TERM]]
    compared = 0
    for p in terms:
        engine = Engine(kind)
        classes: dict = {}
        for steps in checks._all_traces(p, engine, 4):
            classes.setdefault(steps[-1].target, []).append(steps)
        for members in classes.values():
            fast = [traces._closure_sets(steps, 32, engine) for steps in members]
            slow = [closure_of_traces(Trace(steps), 32, engine) for steps in members]
            assert [len(keys) for keys, _ in fast] == [len(keys) for keys, _ in slow]
            assert [sat for _, sat in fast] == [sat for _, sat in slow]
            assert _partition(fast) == _partition(slow)
            compared += len(members)
    assert compared > 1000


# --------------------------------------------------------------------------- #
# the normal form against the rewrite closure
# --------------------------------------------------------------------------- #

def _folded(p, engine, maxlen: int) -> dict:
    """The ``NormalForm`` of each trace of ``p`` up to ``maxlen`` steps,
    folded over the breadth-first traces as ``check_consistency`` does."""
    forms = {(): traces.NormalForm()}
    for steps in checks._all_traces(p, engine, maxlen):
        forms[steps] = forms[steps[:-1]].then(steps[-1])
    del forms[()]
    return forms


def _form_partition(values) -> set[frozenset]:
    """The classes of ``check_consistency``: traces with one normal form,
    and each trace without one alone."""
    classes: dict = {}
    for idx, value in enumerate(values):
        form = value.form()
        classes.setdefault(idx if form is None else form, set()).add(idx)
    return {frozenset(c) for c in classes.values()}


def _mismatches(p, kind, maxlen: int) -> tuple[int, int]:
    """The endpoint classes of the traces of ``p`` up to ``maxlen`` steps
    that the normal form partitions otherwise than the rewrite closure,
    and the coinitial, cofinal pairs compared."""
    engine = Engine(kind)
    groups: dict = {}
    for steps, value in _folded(p, engine, maxlen).items():
        groups.setdefault(steps[-1].target, []).append((steps, value))
    mismatched = pairs = 0
    for members in groups.values():
        pairs += len(members) * (len(members) - 1) // 2
        closures = [traces._closure_sets(steps, 32, engine) for steps, _ in members]
        assert all(saturated for _, saturated in closures)
        mismatched += (_form_partition([value for _, value in members])
                       != _partition(closures))
    return mismatched, pairs


def _fault_terms():
    return [parse(t) for t in F1_TERMS] + [parse(case[-1]) for case in FAULTS]


@SHAPES
def test_normal_form_partitions_like_the_rewrite_closure(corpus_entries, kind,
                                                         remembered_swaps):
    terms = [p for _, p in corpus_entries] + _fault_terms()
    mismatched, pairs = map(sum, zip(*(_mismatches(p, kind, 4) for p in terms)))
    assert mismatched == 0
    assert pairs > 10_000


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_normal_form_partitions_gen_20_like_the_rewrite_closure(kind, remembered_swaps):
    mismatched, pairs = _mismatches(dict(corpus.acceptance_corpus())["gen_20"], kind, 6)
    assert mismatched == 0
    assert pairs > 200_000


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_folded_normal_form_is_the_whole_trace_form(corpus_entries, kind):
    # the fold extends each prefix's value by one step; the oracle reads
    # the whole trace at once
    compared = 0
    for p in [p for _, p in corpus_entries] + _fault_terms():
        for steps, value in _folded(p, Engine(kind), 4).items():
            assert value.form() == normal_form(steps), syntax.format(steps[0].source)
            compared += 1
    assert compared > 3000


def test_consistency_folds_each_trace_from_its_prefix(monkeypatch):
    # one _depends call per survivor a do step meets, not one per pair of
    # steps of every trace: fewer calls than traces on gen_20 at length 6
    calls = {"_all_traces": 0, "_depends": 0, "traces": 0}
    all_traces, depends = checks._all_traces, causality._depends

    def counted_all_traces(*args):
        calls["_all_traces"] += 1
        out = all_traces(*args)
        calls["traces"] += len(out)
        return out

    def counted_depends(*args):
        calls["_depends"] += 1
        return depends(*args)

    monkeypatch.setattr(checks, "_all_traces", counted_all_traces)
    monkeypatch.setattr(causality, "_depends", counted_depends)
    p = dict(corpus.acceptance_corpus())["gen_20"]
    assert checks.check_consistency(p, MemoryKind.RPI, 6) == []
    assert calls["_all_traces"] == 1 and calls["traces"] == 3468
    assert 0 < calls["_depends"] < calls["traces"]


def test_normal_form_drops_an_adjacent_undo_redo_pair():
    # bsc orders every two extrusions of m, so b!(nu m) depends on the
    # second a!(nu m): the undo of that step cannot cancel it past b!,
    # but undone and done again at once it is an adjacent inverse pair.
    # The thread c!d gives the blocked value a do of its own.
    engine = Engine(MemoryKind.BSC)
    x, steps = engine.initial(parse(F3_TERM + " | c!d.0")), []
    for needle in ("a!", "a!", "b!"):
        (t,) = [t for t in engine.forward(x) if needle in syntax.format(t.label)]
        steps.append(t)
        x = t.target
    undo = next(t for t in engine.backward(x) if t.label.key == 2)
    (redo,) = [t for t in engine.forward(undo.target)
               if t.label.key == 2 and "a!" in syntax.format(t.label)]
    trace = tuple(steps) + (undo, redo)
    values = [traces.NormalForm()]
    for t in trace:
        values.append(values[-1].then(t))
    assert values[5].form() == values[3].form() == normal_form(trace) is not None
    assert any(causality._base_relations(Trace(trace[:3]))[1, 2])
    # the undo alone blocks, and the redo pops it, back to the very value
    # of the three-step prefix
    assert values[4].form() is None is normal_form(trace[:4])
    assert values[5] is values[3]
    # a do on the blocked value stays blocked until the undo is popped
    (do,) = [t for t in engine.forward(undo.target) if "c!" in syntax.format(t.label)]
    done = values[4].then(do)
    assert done.form() is None is normal_form(trace[:4] + (do,))
    assert done.then(reverse_transition(do)) is values[4]
    assert done.then(reverse_transition(do)).then(redo) is values[3]
    # and the rewrite closure joins the two traces as well
    assert (traces._closure_sets(trace, 32, engine)[0]
            & traces._closure_sets(trace[:3], 32, engine)[0])


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


# every scalar a report or an edge holds, and the ones ``json_text`` hands
# on to ``json.dumps``: ints of any size, text with escapes and non-ASCII
# characters, and floats, NaN and the infinities among them
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)


def test_trace_json_str_writes_what_json_dumps_writes():
    tr = Trace(tuple(run("nu a.(b!a.c!a.0) | d?(x).0", ["b!(nu", "c!(nu", "d?"])))
    assert traces.trace_json_str(tr) == json.dumps(trace_json(tr), indent=2)


@given(_json_values)
def test_json_text_writes_what_json_dumps_writes(value):
    assert traces.json_text(value) == json.dumps(value, indent=2)
    # one level deeper, as inside a list of the top-level record
    assert traces.json_text([value]) == json.dumps([value], indent=2)
