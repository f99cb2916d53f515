"""The per-run ``Engine``: the same answers as the uncached primitives,
each question asked of them once, failures never remembered, and no
memo outliving its run."""

import gc
import json
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse, procs, run, start
from revpi import causality, checks, cli, corpus, semantics, syntax, traces
from revpi.causality import Trace
from revpi.correspondence import check_structural_correspondence
from revpi.engine import Engine
from revpi.memory import MemoryKind
from revpi.semantics import Transition
from test_output_digests import F2_TERM, FAULT_TERMS

GEN_20 = "a!m.0 | a?(x).b!x.0 | b?(y).0"


def _primitive_all(x, kind):
    return semantics.forward_transitions(x, kind) + semantics.backward_transitions(x)


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_engine_answers_as_the_primitives(corpus_entries, kind):
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, kind, 3):
            fwd = semantics.forward_transitions(x, kind)
            bwd = semantics.backward_transitions(x)
            for _ in ("cold", "warm"):
                assert engine.forward(x) == fwd
                assert engine.backward(x) == bwd
            for t1 in fwd + bwd:
                for t2 in _primitive_all(t1.target, kind):
                    expected = causality.concurrent_pair(t1, t2)
                    for _ in ("cold", "warm"):
                        assert engine.concurrent(t1, t2) is expected


class _Counter:
    """Wraps a function, recording the arguments of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


def _count(monkeypatch, module, name):
    counter = _Counter(getattr(module, name))
    monkeypatch.setattr(module, name, counter)
    return counter


def test_non_fresh_key_raises_on_every_ask(monkeypatch):
    (t,) = run("a!b.0 | c!d.0", ["a!b"])
    engine = Engine(MemoryKind.RPI)
    forward = _count(monkeypatch, semantics, "forward_transitions")
    for _ in range(2):
        with pytest.raises(ValueError, match="not fresh"):
            engine.forward(t.target, t.label.key)
    assert len(forward.calls) == 2


def test_square_not_found_raises_on_every_ask(monkeypatch):
    tr = Trace(tuple(run("a!b.0 | c!d.0", ["a!b", "c!d"])))
    engine = Engine(MemoryKind.RPI)

    def no_square(tr, at, engine):
        raise traces.SquareNotFoundError("square does not close")

    swap = _Counter(no_square)
    monkeypatch.setattr(traces, "residual_swap", swap)
    for _ in range(2):
        with pytest.raises(traces.SquareNotFoundError):
            engine.residual_swap(*tr.steps)
    assert len(swap.calls) == 2


def test_causally_related_pair_raises_on_every_ask(monkeypatch):
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    engine = Engine(MemoryKind.RPI)
    swap = _count(monkeypatch, traces, "residual_swap")
    for _ in range(2):
        with pytest.raises(traces.NotConcurrentError):
            engine.residual_swap(*tr.steps)
    assert len(swap.calls) == 2


def test_remembered_swap_is_the_computed_one():
    tr = Trace(tuple(run("a!b.0 | c!d.0", ["a!b", "c!d"])))
    engine = Engine(MemoryKind.RPI)
    first = engine.residual_swap(*tr.steps)
    assert engine.residual_swap(*tr.steps) is first
    assert first == traces.residual_swap(tr, 0, Engine(MemoryKind.RPI)).steps


def _resolved(args):
    # (state, key) of a forward enumeration, an absent key resolved to
    # the fresh key the primitive draws
    x, _, *key = args
    return (x, key[0] if key and key[0] is not None else syntax.fresh_key(x))


def test_no_question_is_asked_twice_in_a_run(monkeypatch):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    assert syntax.format(p) == GEN_20
    forward = _count(monkeypatch, semantics, "forward_transitions")
    counters = [_count(monkeypatch, semantics, "backward_transitions"),
                _count(monkeypatch, causality, "concurrent_pair")]
    swap = _count(monkeypatch, traces, "residual_swap")
    engine = Engine(MemoryKind.RPI)
    assert checks.check_consistency(p, engine, maxlen=4) == []
    assert checks.check_square(p, engine, 4) == []
    for counter in counters:
        assert counter.calls
        assert len(counter.calls) == len(set(counter.calls))
    questions = [_resolved(args) for args in forward.calls]
    assert any(args[2] is not None for args in forward.calls)
    assert questions and len(questions) == len(set(questions))
    pairs = [(tr[at], tr[at + 1]) for tr, at, _ in swap.calls]
    assert pairs and len(pairs) == len(set(pairs))


def test_each_premise_is_derived_once_in_a_run(monkeypatch):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    forward, backward = [], []
    rule_forward, rule_backward = semantics._forward, semantics._backward

    def counted_forward(x, key, kind, premises):
        forward.append((x, key))
        return rule_forward(x, key, kind, premises)

    def counted_backward(x, premises):
        backward.append(x)
        return rule_backward(x, premises)

    monkeypatch.setattr(semantics, "_forward", counted_forward)
    monkeypatch.setattr(semantics, "_backward", counted_backward)
    engine = Engine(MemoryKind.RPI)
    assert checks.check_consistency(p, engine, maxlen=4) == []
    assert checks.check_square(p, engine, 4) == []
    # every (subterm, key) forward question and every backward subterm is
    # derived by its rule once in the run
    assert forward and len(forward) == len(set(forward))
    assert backward and len(backward) == len(set(backward))
    # without the tables the same states derive shared subterms again
    run_forward, run_backward = len(forward), len(backward)
    for x in engine._states:
        semantics.forward_transitions(x, MemoryKind.RPI)
        semantics.backward_transitions(x)
    assert len(forward) - run_forward > run_forward
    assert len(backward) - run_backward > run_backward


def test_each_continuation_is_lifted_once_in_a_run(monkeypatch):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    lifted = []  # the term of every outermost ``syntax.lift`` call
    rule_lift, nested = syntax.lift, [0]

    def counted_lift(q, kind):
        if not nested[0]:
            lifted.append(q)
        nested[0] += 1
        try:
            return rule_lift(q, kind)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(syntax, "lift", counted_lift)
    engine = Engine(MemoryKind.RPI)
    assert checks.check_consistency(p, engine, maxlen=4) == []
    assert checks.check_square(p, engine, 4) == []
    # the initial term, once although each suite starts from it, and the
    # continuation of every prefix that fired, once whatever its keys
    assert syntax.strip_insts(p) in lifted
    assert len(lifted) == len(set(lifted)) > 2


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_premise_tables_hold_no_whole_state(corpus_entries, kind):
    # a state asked again is answered by the engine's own memo, so the
    # tables keep the premises of proper subterms only
    entries = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        checks.explore(p, engine, 6)
        tables = engine._premises
        assert not {x for x, _ in tables._forward} & engine._states.keys()
        assert not tables._backward.keys() & engine._states.keys()
        entries += len(tables._forward) + len(tables._backward)
    assert entries > 0


def _table_free_explore(p, kind, depth):
    """``checks.explore`` spelt out over the primitives, without an engine."""
    start = syntax.initial(p, kind)
    index, order, edges = {start: 0}, [start], []
    frontier = [(start, 0)]
    for x, d in frontier:
        if d >= depth:
            continue
        for t in _primitive_all(x, kind):
            if t.target not in index:
                index[t.target] = len(order)
                order.append(t.target)
                frontier.append((t.target, d + 1))
            edges.append((index[x], index[t.target], t))
    return order, edges


def _tables_change_no_answer(text, kind):
    p = parse(text)  # a uniquified term
    engine = Engine(kind)
    order, edges = checks.explore(p, engine, 3)
    assert (order, edges) == _table_free_explore(p, kind, 3)
    for x in order:
        # the fresh key, and a key that is unused but not the fresh one
        for key in (syntax.fresh_key(x), max(syntax.keys(x), default=0) + 2):
            assert engine.forward(x, key) == semantics.forward_transitions(x, kind, key)


@settings(deadline=None)
@given(procs().map(syntax.format), st.sampled_from(list(MemoryKind)))
def test_premise_tables_change_no_answer(text, kind):
    _tables_change_no_answer(text, kind)


@pytest.mark.parametrize("kind", list(MemoryKind))
@pytest.mark.parametrize("text", FAULT_TERMS)
def test_premise_tables_change_no_answer_on_the_fault_terms(text, kind):
    _tables_change_no_answer(text, kind)


def test_the_fresh_key_asks_the_keyless_question(monkeypatch):
    (t,) = run("a!b.0 | c!d.0", ["a!b"])
    x = t.target
    forward = _count(monkeypatch, semantics, "forward_transitions")
    engine = Engine(MemoryKind.RPI)
    keyless = engine.forward(x)
    assert engine.forward(x, syntax.fresh_key(x)) is keyless
    assert len(forward.calls) == 1
    other = Engine(MemoryKind.RPI)
    keyed = other.forward(x, syntax.fresh_key(x))
    assert other.forward(x) is keyed and keyed == keyless
    assert len(forward.calls) == 2
    assert engine.forward(x, 7) == semantics.forward_transitions(x, MemoryKind.RPI, 7)


def _holds_engine_state(container, rendered=frozenset()) -> bool:
    """Whether a dict or set is keyed by terms or transitions, as a memo is,
    or holds one of the ``rendered`` texts, as a rendering table would."""
    term_types = (Transition, syntax.Leaf, syntax.RPar, syntax.RRes) + syntax.PastPrefix
    items = list(container)
    if isinstance(container, dict):
        items += container.values()
    for item in items:
        parts = item if isinstance(item, tuple) else (item,)
        if any(isinstance(part, term_types) or (isinstance(part, str) and part in rendered)
               for part in parts):
            return True
    return False


def test_memo_dies_with_the_run(monkeypatch, tmp_path, capsys):
    engines = []
    real_init = Engine.__init__

    def init(self, kind):
        real_init(self, kind)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(Engine, "__init__", init)
    assert cli.main(["check", "square", GEN_20, "--depth", "3"]) == cli.EXIT_OK
    assert len(engines) == 1
    out = tmp_path / "lts.json"
    assert cli.main(["export", GEN_20, "--depth", "3", "--format", "json",
                     "--output", str(out)]) == cli.EXIT_OK
    assert len(engines) == 2  # one engine per command
    capsys.readouterr()
    gc.collect()
    assert all(ref() is None for ref in engines)
    # the states the export rendered, each kept on its term while it lived
    rendered = frozenset(json.loads(out.read_text())["states"])
    assert len(rendered) > 1
    for name, module in sorted(sys.modules.items()):
        if name == "revpi" or name.startswith("revpi."):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, set, frozenset, list)):
                    assert not _holds_engine_state(value, rendered), "%s.%s" % (name, attr)
                if hasattr(value, "cache_info"):  # a functools cache
                    assert value.cache_info().currsize == 0, "%s.%s" % (name, attr)


def test_engine_of_a_kind_or_an_engine():
    engine = Engine(MemoryKind.DCC)
    assert Engine.of(engine) is engine
    fresh = Engine.of(MemoryKind.BSC)
    assert isinstance(fresh, Engine) and fresh.kind is MemoryKind.BSC


def test_correspondence_rejects_an_engine_of_another_kind():
    with pytest.raises(ValueError, match="bsc"):
        check_structural_correspondence(parse("a!b.0"), 2, Engine(MemoryKind.RPI))


def test_reverse_transition_lives_beside_transition():
    assert traces.reverse_transition is semantics.reverse_transition
    (t,) = run("a!b.0", ["a!b"])
    rev = semantics.reverse_transition(t)
    assert (rev.source, rev.target, rev.label) == (t.target, t.source, t.label)
    assert semantics.reverse_transition(rev) == t


def test_cached_hash_matches_the_generated_one():
    for kind in MemoryKind:
        x = start("nu a.(b!a.0 | a?(x).c!x.0)", kind)
        (t,) = [t for t in semantics.forward_transitions(x, kind)
                if isinstance(t.label.act, syntax.BoundOut)]
        mem = t.target.mem
        assert not mem.is_empty()
        for obj in (t, t.label, t.target, mem, x.body):
            fields = tuple(getattr(obj, f) for f in obj.__dataclass_fields__)
            assert hash(obj) == hash(fields) == hash(obj)
        # a memory rebuilt from its own shape's fields is equal and hashes alike
        again = type(mem)(*(getattr(mem, f) for f in mem.__dataclass_fields__))
        assert again is not mem and again == mem and hash(again) == hash(mem)
        assert "_hash" not in repr(t)


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_a_run_holds_one_instance_per_state(corpus_entries, kind):
    for _, p in corpus_entries:
        engine = Engine(kind)
        order, edges = checks.explore(p, engine, 4)
        for a, b, t in edges:
            assert t.source is order[a] and t.target is order[b]
        for x in order:
            assert engine.forward(x) == semantics.forward_transitions(x, kind)
            assert engine.backward(x) == semantics.backward_transitions(x)
        # a second walk of the run meets the same instances
        again, _ = checks.explore(p, engine, 4)
        assert len(again) == len(order)
        assert all(x is y for x, y in zip(again, order))


@pytest.mark.parametrize("suite", ["check_square", "check_loop"])
def test_the_states_of_a_run_die_with_it_without_the_cycle_collector(suite):
    # history, rebuild and the key-renaming fold leave no reference cycle,
    # so the states of a dropped run go when their last reference does
    p = parse(F2_TERM)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(MemoryKind.RPI)
        getattr(checks, suite)(p, engine, 4)
        states = checks.reachable_states(p, engine, 4)
        refs = [weakref.ref(y) for x in states for y in (x, syntax.canonical_keys(x))]
        del engine, states
        assert len(refs) > 150
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()
