from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fire, parse, procs, run, start
from oracles import (
    EquivalenceBudgetError, closure_of_traces, equivalent_up_to_permutation,
    forward_classes, normal_form, normalize_parabolic, square_violations, trace_endpoints,
)
from revpi import causality, checks, corpus, semantics, syntax, traces
from revpi.causality import Trace, label_equiv
from revpi.engine import Engine
from revpi.memory import DccMemory, MemoryKind, RpiMemory
from revpi.semantics import forward_transitions, step
from revpi.syntax import Direction
from revpi.traces import (
    NotConcurrentError, NotInverseError, cancel_inverse, residual_swap,
    reverse_transition,
)
from test_engine import _count
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
# the square against every pair judged and swapped
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("kind", list(MemoryKind))
def test_square_reports_as_every_pair_judged(corpus_entries, kind, monkeypatch):
    # skipping the mirror of a closed square, and letting the swap judge
    # concurrency, hides no violation: the same list, violation for
    # violation, as judging and swapping every pair, F2's 16 under dcc
    # included
    terms = [p for _, p in corpus_entries] + _fault_terms()
    found = {}
    for p in terms:
        expected = square_violations(p, Engine(kind), 4)
        assert checks.check_square(p, Engine(kind), 4) == expected, syntax.format(p)
        found[syntax.format(p)] = len(expected)
    assert found[F2_TERM] == (16 if kind is MemoryKind.DCC else 0)
    # each ordered pair of transitions is judged at most once, and fewer
    # pairs than the reference judges
    gen_20 = dict(corpus_entries)["gen_20"]
    counted = _count(monkeypatch, causality, "concurrent_pair")
    assert checks.check_square(gen_20, Engine(kind), 4) == []
    square = counted.calls[:]
    del counted.calls[:]
    assert square_violations(gen_20, Engine(kind), 4) == []
    assert square and len(square) == len(set(square))
    assert len(square) < len(counted.calls)


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

def _trace_forms(p, engine, maxlen: int) -> dict:
    """The normal form of each trace of ``p`` up to ``maxlen`` steps,
    computed from the whole trace (``oracles.normal_form``)."""
    return {steps: normal_form(steps) for steps in checks._all_traces(p, engine, maxlen)}


def _form_partition(forms) -> set[frozenset]:
    """The classes of ``check_consistency``: traces with one normal form,
    and each trace without one alone."""
    classes: dict = {}
    for idx, form in enumerate(forms):
        classes.setdefault(idx if form is None else form, set()).add(idx)
    return {frozenset(c) for c in classes.values()}


def _mismatches(p, kind, maxlen: int) -> tuple[int, int]:
    """The endpoint classes of the traces of ``p`` up to ``maxlen`` steps
    that the normal form partitions otherwise than the rewrite closure,
    and the coinitial, cofinal pairs compared."""
    engine = Engine(kind)
    groups: dict = {}
    for steps, form in _trace_forms(p, engine, maxlen).items():
        groups.setdefault(steps[-1].target, []).append((steps, form))
    mismatched = pairs = 0
    for members in groups.values():
        pairs += len(members) * (len(members) - 1) // 2
        closures = [traces._closure_sets(steps, 32, engine) for steps, _ in members]
        assert all(saturated for _, saturated in closures)
        mismatched += (_form_partition([form for _, form in members])
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


# --------------------------------------------------------------------------- #
# the consistency walk against the traces
# --------------------------------------------------------------------------- #

def _records(groups: dict) -> list[dict]:
    """The records of ``check_consistency`` from the normal form of each
    trace to each endpoint, read as the check read them trace by trace."""
    records = []
    for endpoint, forms in groups.items():
        classes = len(set(forms) - {None}) + forms.count(None)
        if classes > 1:
            records.append({
                "endpoint": syntax.format(endpoint),
                "reason": "cofinal traces not equivalent up to permutation",
                "classes": classes,
                "traces": len(forms),
            })
    return records


def _walk_is_the_trace_fold(p, kind, maxlen: int) -> int:
    """Hold the walk's endpoints, with the number of traces of each form,
    and the records of ``check_consistency``, to the traces of ``p``
    grouped by endpoint under ``oracles.normal_form``; the number of
    traces."""
    oracle = trace_endpoints(p, Engine(kind), maxlen)
    walked = checks._endpoints(p, Engine(kind), maxlen)
    assert ([(syntax.format(e), forms) for e, forms in walked.items()]
            == [(syntax.format(e), Counter(forms)) for e, forms in oracle.items()]), \
        syntax.format(p)
    assert checks.check_consistency(p, Engine(kind), maxlen) == _records(oracle)
    return sum(map(len, oracle.values()))


@pytest.mark.parametrize("maxlen", [4, 5])
@pytest.mark.parametrize("kind", list(MemoryKind))
def test_the_walk_groups_the_traces_as_their_whole_trace_forms(corpus_entries, kind,
                                                               maxlen):
    # the walk extends one value per (state, form) node; the oracle reads
    # every trace at once, and both report the sweep's bsc violations
    terms = [p for _, p in corpus_entries] + _fault_terms()
    compared = sum(_walk_is_the_trace_fold(p, kind, maxlen) for p in terms)
    assert compared > {4: 3000, 5: 10_000}[maxlen]


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_the_walk_groups_the_traces_of_gen_20_as_their_whole_trace_forms(kind):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    assert _walk_is_the_trace_fold(p, kind, 6) == 3468


@settings(max_examples=60, deadline=None)
@given(procs(), st.sampled_from(list(MemoryKind)))
def test_the_walk_groups_the_traces_of_any_term_as_their_whole_trace_forms(p, kind):
    _walk_is_the_trace_fold(parse(syntax.format(p)), kind, 4)


def test_no_form_reaches_two_endpoints(corpus_entries):
    # the other half of causal consistency: equivalent traces are cofinal
    terms = [p for _, p in corpus_entries] + _fault_terms()
    for kind in MemoryKind:
        for p in terms:
            reached: dict = {}
            for endpoint, forms in checks._endpoints(p, Engine(kind), 4).items():
                for form in forms.keys() - {None}:
                    reached.setdefault(form, []).append(syntax.format(endpoint))
            assert [e for e in reached.values() if len(e) > 1] == [], syntax.format(p)


def _reached_only_by_undoing(p, engine, depth):
    """The classes the full walk of ``p`` reaches in ``depth`` steps, up to
    key renaming, that forward steps alone do not reach."""
    walked = checks.reachable_states(p, engine, depth, syntax.canonical_keys)
    return {syntax.canonical_keys(x) for x in walked} - forward_classes(p, engine)


def test_every_class_the_walk_reaches_is_reached_forward(corpus_entries):
    # the parabolic lemma's corollary (Danos and Krivine, CONCUR 2004):
    # a trace is equivalent to undos followed by dos, and the start has
    # nothing to undo; 402, 438 and 411 classes under rpi, bsc and dcc
    terms = [p for _, p in corpus_entries] + _fault_terms()
    for kind in MemoryKind:
        for p in terms:
            assert _reached_only_by_undoing(p, Engine(kind), 6) == set(), (
                kind.value, syntax.format(p))


def test_an_undone_extruder_left_in_the_index_breaks_the_parabolic_lemma(
        corpus_entries, monkeypatch):
    # an index that keeps an undone extruder leaves a memory no run of
    # dos builds, on 28 of the 58 terms
    monkeypatch.setattr(DccMemory, "remove_extruder",
                        lambda m, i: DccMemory(m.gamma - {i}, m.index))
    terms = [p for _, p in corpus_entries] + _fault_terms()
    failing = [p for p in terms if _reached_only_by_undoing(p, Engine(MemoryKind.DCC), 6)]
    assert len(failing) == 28


def test_consistency_walks_nodes_not_traces(monkeypatch):
    # one _depends call per survivor a do step meets, once per node the
    # step leaves and not once per trace: gen_20 has 3,468 traces of 1 to
    # 6 steps, and the check enumerates none of them
    calls = {"_all_traces": 0, "_depends": 0}
    all_traces, depends = checks._all_traces, causality._depends

    def counted_all_traces(*args):
        calls["_all_traces"] += 1
        return all_traces(*args)

    def counted_depends(*args):
        calls["_depends"] += 1
        return depends(*args)

    monkeypatch.setattr(checks, "_all_traces", counted_all_traces)
    monkeypatch.setattr(causality, "_depends", counted_depends)
    p = dict(corpus.acceptance_corpus())["gen_20"]
    assert checks.check_consistency(p, MemoryKind.RPI, 6) == []
    assert calls["_all_traces"] == 0
    assert 0 < calls["_depends"] <= 377


def test_normal_form_drops_an_adjacent_undo_redo_pair():
    # bsc orders every two extrusions of m, so b!(nu m) depends on the
    # second a!(nu m): the undo of that step cannot cancel it past b!,
    # but undone and done again at once it is an adjacent inverse pair.
    # The thread c!d gives the blocked node a do of its own.
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
    root = checks._Node(trace[0].source, (), traces.form(()))
    nodes = {(root.state, root.form): root}
    walked = [root]
    for t in trace:
        walked.append(walked[-1].then(t, nodes))
    assert walked[5].form == walked[3].form == normal_form(trace) is not None
    assert any(causality._base_relations(Trace(trace[:3]))[1, 2])
    # the undo alone blocks, and the redo leads back to the very node of
    # the three-step prefix
    assert walked[4].form is None is normal_form(trace[:4])
    assert walked[5] is walked[3]
    # a do on the blocked node stays blocked until the undo is undone
    (do,) = [t for t in engine.forward(undo.target) if "c!" in syntax.format(t.label)]
    done = walked[4].then(do, nodes)
    assert done.form is None is normal_form(trace[:4] + (do,))
    assert done.then(reverse_transition(do), nodes) is walked[4]
    assert done.then(reverse_transition(do), nodes).then(redo, nodes) is walked[3]
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
