"""The per-run ``Engine``: the same answers as the uncached primitives,
each question asked of them once, failures never remembered, and no
memo outliving its run."""

import dataclasses
import gc
import json
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse, procs, run, start
from revpi import bs, causality, checks, cli, corpus, memory, semantics, syntax, traces
from revpi.correspondence import check_correspondence, check_structural_correspondence
from revpi.engine import Engine
from revpi.memory import MemoryKind
from revpi.semantics import Transition
from revpi.syntax import Direction
from test_output_digests import F2_TERM, F3_TERM, FAULT_TERMS

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


class _Counter:
    """Wraps a function, recording the arguments of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        return self.fn(*args, **kwargs)


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
    pairs = [(t1, t2) for t1, t2, _ in swap.calls]
    assert pairs and len(pairs) == len(set(pairs))


def test_each_premise_is_derived_once_in_a_run(monkeypatch):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    forward, backward = [], []
    rule_forward, rule_backward = semantics._forward, semantics._backward

    def counted_forward(x, key, run):
        forward.append((x, key))
        return rule_forward(x, key, run)

    def counted_backward(x, run):
        backward.append(x)
        return rule_backward(x, run)

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
    for x in _answered_states(engine):
        semantics.forward_transitions(x, MemoryKind.RPI)
        semantics.backward_transitions(x)
    assert len(forward) - run_forward > run_forward
    assert len(backward) - run_backward > run_backward


def test_each_crossing_is_derived_once_in_a_run(monkeypatch):
    rules = [_count(monkeypatch, semantics, "_extrude"),
             _count(monkeypatch, semantics, "_cross_restriction_back")]
    for kind in MemoryKind:
        engine = Engine(kind)
        for text in (F2_TERM, F3_TERM):
            checks.check_consistency(parse(text), engine, maxlen=4)
            checks.check_square(parse(text), engine, 4)
        # every (rule, name, memory, label) crossing is derived by its rule
        # once in the run
        for rule in rules:
            assert rule.calls and len(rule.calls) == len(set(rule.calls))
        # without the memo the same states derive shared crossings again
        run_calls = sum(len(rule.calls) for rule in rules)
        for x in _answered_states(engine):
            semantics.forward_transitions(x, kind)
            semantics.backward_transitions(x)
        assert sum(len(rule.calls) for rule in rules) - run_calls > run_calls
        for rule in rules:
            rule.calls.clear()


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_premise_tables_hold_no_whole_state(corpus_entries, kind):
    # a state asked again is answered by the engine's own memo, so the
    # tables keep the premises of proper subterms only
    # (the tables key a subterm by its identity, and equal nodes of a run
    # are one object)
    entries = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        order, _ = checks.explore(p, engine, 6)
        states = {id(x) for x in order}
        assert not {x for x, _ in engine._forward_premises} & states
        assert not engine._backward_premises.keys() & states
        entries += len(engine._forward_premises) + len(engine._backward_premises)
    assert entries > 0


def _answered_states(engine):
    """Every state of the run's answers, a source or a target of one, in
    the order the run met them."""
    return list({y: None for memo in (engine._forward, engine._backward)
                 for trs in memo.values() for t in trs for y in (t.source, t.target)})


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
    term_types = (Transition, syntax.Par, syntax.RRes) + syntax.PastPrefix
    items = list(container)
    if isinstance(container, dict):
        items += container.values()
    for item in items:
        parts = item if isinstance(item, tuple) else (item,)
        if any(isinstance(part, term_types) or (isinstance(part, str) and part in rendered)
               for part in parts):
            return True
    return False


def _term_objects() -> list:
    """Every live term node, label and transition."""
    kinds = (Transition, syntax.Label, syntax.Nil, syntax.Output, syntax.Input,
             syntax.Par, syntax.Res, syntax.RRes) + syntax.PastPrefix
    return [o for o in gc.get_objects() if isinstance(o, kinds)]


def test_memo_dies_with_the_run(monkeypatch, tmp_path, capsys):
    engines = []
    real_init = Engine.__init__

    def init(self, kind):
        real_init(self, kind)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(Engine, "__init__", init)
    gc.collect()
    # held until the end, so no object the runs create can reuse their ids
    existing = _term_objects()
    assert cli.main(["check", "square", GEN_20, "--depth", "3"]) == cli.EXIT_OK
    assert len(engines) == 1
    out = tmp_path / "lts.json"
    assert cli.main(["export", GEN_20, "--depth", "3", "--format", "json",
                     "--output", str(out)]) == cli.EXIT_OK
    assert len(engines) == 2  # one engine per command
    capsys.readouterr()
    gc.collect()
    assert all(ref() is None for ref in engines)
    # nothing the runs created outlives them, plain nodes included
    old = {id(o) for o in existing}
    assert [o for o in _term_objects() if id(o) not in old] == []
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


PRIVATE_AFTER_A = "a!b.nu m.(c!m.0)"


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_a_run_enumerates_under_its_own_kind_only(kind):
    # a continuation is lifted with the run's kind, and kept in the run's
    # tables, so a run asked under another kind would hand it out with the
    # wrong memory
    engine = Engine(kind)
    x = engine.initial(parse(PRIVATE_AFTER_A))
    (t,) = engine.forward(x)
    assert t.target.cont.mem == kind.new()
    assert syntax.format(t.target) == "a!b[1;{*}].nu m:%s.c!m.0" % kind.new().render()
    for other in MemoryKind:
        if other is not kind:
            with pytest.raises(ValueError, match="a run under %s" % kind.value):
                semantics.forward_transitions(x, other, run=engine)
            (fresh,) = semantics.forward_transitions(x, other)
            assert fresh.target.cont.mem == other.new()


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


def _records():
    """Every class that ``syntax.record`` made, in the modules of the package."""
    found = []
    for module in (syntax, memory, semantics):
        for value in vars(module).values():
            params = getattr(value, "__dataclass_params__", None)
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and params is not None and not params.init):
                found.append(value)
    return found


def _instances(obj, seen: dict) -> None:
    # one instance of each record class met below ``obj``, by class
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        seen.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _instances(getattr(obj, f.name), seen)


def _dataclass_twin(cls):
    """A plain frozen dataclass with the fields, defaults and name of
    ``cls``, built by the dataclass-generated constructor."""
    twin = type(cls.__name__, (), {
        "__annotations__": {f.name: f.type for f in dataclasses.fields(cls)},
        **{f.name: f.default for f in dataclasses.fields(cls)
           if f.default is not dataclasses.MISSING}})
    return dataclasses.dataclass(frozen=True)(twin)


def test_cached_hash_matches_the_generated_one():
    for kind in MemoryKind:
        x = start("nu a.(b!a.0 | a?(x).c!x.0)", kind)
        (t,) = [t for t in semantics.forward_transitions(x, kind)
                if isinstance(t.label.act, syntax.BoundOut)]
        mem = t.target.mem
        assert mem.gamma
        for obj in (t, t.label, t.target, mem, x.body):
            fields = tuple(getattr(obj, f) for f in obj.__dataclass_fields__)
            assert hash(obj) == hash(fields) == hash(obj)
        # a memory rebuilt from its own shape's fields is equal and hashes alike
        again = type(mem)(*(getattr(mem, f) for f in mem.__dataclass_fields__))
        assert again is not mem and again == mem and hash(again) == hash(mem)
        assert "_hash" not in repr(t)
    # every record class: the generated constructor, called positionally,
    # by keyword, with defaults or through ``dataclasses.replace``, builds
    # what the dataclass constructor builds
    classes = _records()
    seen: dict = {}
    for kind in MemoryKind:
        for text in ("nu a.(b!a.0 | a?(x).c!x.0) | d!e.nu f.(f!g.0 | 0)", F2_TERM):
            for x in checks.reachable_states(parse(text), kind, 3):
                for t in semantics.forward_transitions(x, kind) + semantics.backward_transitions(x):
                    _instances(t, seen)
                    _instances(syntax.erase_label(t.label), seen)
                    _instances(syntax.erase(t.target), seen)
    for label, target in bs.bs_transitions(parse("a!b.0")):
        _instances(label, seen)
        _instances(target, seen)
    assert {syntax.Nil, syntax.Tau, syntax.PiBoundOut, syntax.Caused,
            memory.DccMemory} <= set(classes)
    missing = [cls.__name__ for cls in classes
               if cls not in seen and cls is not memory.Memory]
    assert missing == []
    seen[memory.Memory] = memory.Memory(frozenset({1}))
    for cls in classes:
        obj = seen[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        values = tuple(getattr(obj, n) for n in names)
        twin = _dataclass_twin(cls)(*values)
        built = [cls(*values), cls(**dict(zip(names, values))),
                 dataclasses.replace(obj), dataclasses.replace(obj, **dict(zip(names, values)))]
        for y in built:
            # the fields and nothing else, in field order, before any hash
            assert list(vars(y).items()) == list(zip(names, values))
            assert y == obj and not (y != obj)
            assert hash(y) == hash(obj) == hash(values) == hash(twin)
            assert repr(y) == repr(obj) == repr(twin)
            for name in names or ["anything"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(y, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(y, name)
        # a field left out takes the class's default, as the twin's does
        required = [n for n, f in zip(names, dataclasses.fields(cls))
                    if f.default is dataclasses.MISSING]
        short = cls(*values[:len(required)])
        assert short == cls(**dict(zip(required, values)))
        assert repr(short) == repr(_dataclass_twin(cls)(*values[:len(required)]))
    for short, full in ((memory.BscMemory(), memory.BscMemory(frozenset(), syntax.STAR)),
                        (memory.DccMemory(), memory.DccMemory(frozenset(), syntax.STAR_SET)),
                        (syntax.AnnotatedName("a"), syntax.AnnotatedName("a", syntax.STAR))):
        assert vars(short) == vars(full) and short == full and hash(short) == hash(full)
        assert repr(short) == repr(full)
    assert memory.MemoryKind.DCC.new() == memory.DccMemory()
    with pytest.raises(TypeError):
        syntax.Par(syntax.Nil())  # a missing field without a default
    with pytest.raises(TypeError):
        syntax.Res("a", syntax.Nil(), name="b")  # a field given twice


def test_a_record_has_no_post_init():
    class Checked:
        x: int

        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="__post_init__"):
        syntax.record(Checked)


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


def _run_labels(engine, states, directions=tuple(Direction)):
    """``(source, label)`` of every step a run derived in ``directions``:
    the engine's answers and the premises of its tables, which key a
    subterm of one of the ``states`` the run expanded by its identity."""
    nodes = {id(y): y for x in states for y in _subterms(x)}
    out = []
    if Direction.FORWARD in directions:
        out += [(t.source, t.label) for trs in engine._forward.values() for t in trs]
        out += [(nodes[x], lbl) for (x, _), batch in engine._forward_premises.items()
                for lbl, _ in batch]
    if Direction.BACKWARD in directions:
        out += [(t.source, t.label) for trs in engine._backward.values() for t in trs]
        out += [(nodes[x], lbl) for x, batch in engine._backward_premises.items()
                for lbl, _ in batch]
    return out


def _crossed_labels(engine, states, directions=tuple(Direction)):
    # the labels a restriction turns an output of its name into, and back
    return [(x.name, lbl) for x, lbl in _run_labels(engine, states, directions)
            if isinstance(x, syntax.RRes) and isinstance(lbl.act, syntax.BoundOut)
            and lbl.act.datum == x.name]


@pytest.mark.parametrize("kind", list(MemoryKind))
@pytest.mark.parametrize("text", [F2_TERM, F3_TERM], ids=["F2", "F3"])
def test_equal_crossed_labels_of_a_run_are_one_object(text, kind):
    # forward, an extrusion; backward, its undo: each one crossing per run
    engine = Engine(kind)
    order, _ = checks.explore(parse(text), engine, 6)
    for direction in Direction:
        crossed = _crossed_labels(engine, order, (direction,))
        objects: dict = {}
        for name, lbl in crossed:
            objects.setdefault((name, lbl), set()).add(id(lbl))
        assert len(objects) > 5 and len(crossed) > len(objects)
        if text is F2_TERM:
            assert len(crossed) > 2 * len(objects)
        assert all(len(ids) == 1 for ids in objects.values())


def test_two_runs_share_no_label():
    p = parse(F3_TERM)
    runs = [Engine(MemoryKind.BSC), Engine(MemoryKind.BSC)]
    states = [checks.explore(p, engine, 6)[0] for engine in runs]
    first, second = ({id(lbl) for _, lbl in _run_labels(engine, order)}
                     for engine, order in zip(runs, states))
    assert first and second and not first & second
    assert (len(_crossed_labels(runs[0], states[0]))
            == len(_crossed_labels(runs[1], states[1])) > 0)


def _correspondence(p, engine, depth):
    check_correspondence(p, depth, engine)


@pytest.mark.parametrize("suite, term, kind, depth, least", [
    (checks.check_square, F2_TERM, MemoryKind.RPI, 4, 150),
    (checks.check_loop, F2_TERM, MemoryKind.RPI, 4, 150),
    (_correspondence, F3_TERM, MemoryKind.BSC, 3, 15),
    # states whose root is a past prefix, which the history table kept
    # on them must not hold
    (checks.check_square, "a!b.c!d.0", MemoryKind.RPI, 4, 5),
    (checks.check_consistency, "a!b.c!d.0", MemoryKind.RPI, 4, 5),
], ids=["check_square", "check_loop", "check_correspondence",
        "check_square-past-prefix-root", "check_consistency-past-prefix-root"])
def test_the_states_of_a_run_die_with_it_without_the_cycle_collector(
        suite, term, kind, depth, least):
    # history, rebuild, the key-renaming fold, the paired walk and the
    # history table kept on a state leave no reference cycle, so the
    # states of a dropped run go when their last reference does
    p = parse(term)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(kind)
        suite(p, engine, depth)
        states = checks.reachable_states(p, engine, depth)
        refs = [weakref.ref(y) for x in states for y in (x, syntax.canonical_keys(x))]
        del engine, states
        assert len(refs) > least
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_a_given_key_is_checked(monkeypatch):
    # a given key is checked against the state's keys, once
    (t,) = run("a!b.0 | c!d.0", ["a!b"])
    x = t.target
    asked = []
    real = syntax.keys

    def keys(y):
        asked.append(y)
        return real(y)

    monkeypatch.setattr(syntax, "keys", keys)
    Engine(MemoryKind.RPI).forward(x, 5)
    assert [y for y in asked if y is x] == [x]
    with pytest.raises(ValueError, match="not fresh"):
        semantics.forward_transitions(x, MemoryKind.RPI, 1)


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_each_step_builds_one_transition(monkeypatch, kind):
    built = []
    real = Transition.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Transition, "__init__", counted)
    engine = Engine(kind)
    order, edges = checks.explore(parse(F2_TERM), engine, 4)
    answered = [t for memo in (engine._forward, engine._backward)
                for trs in memo.values() for t in trs]
    # every state the walk expanded was asked once in each direction
    assert len(built) == len(answered) == len(edges) > 100
    # and each target is the walk's one instance of its state
    one = {x: x for x in order}
    assert len(one) == len(order)
    assert all(t.target is one[t.target] for t in answered)


def _children(x) -> tuple:
    if isinstance(x, syntax.Par):
        return (x.left, x.right)
    if isinstance(x, (syntax.Res, syntax.RRes)):
        return (x.body,)
    return () if isinstance(x, syntax.Nil) else (x.cont,)


def _subterms(x):
    """``x`` and every node below it, once per occurrence."""
    out, todo = [], [x]
    while todo:
        y = todo.pop()
        out.append(y)
        todo += _children(y)
    return out


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_equal_nodes_of_a_run_are_one_object(corpus_entries, kind):
    # every node below a state of the walk or a premise target of the
    # tables is the run's one instance of that node
    terms = [p for _, p in corpus_entries] + [parse(text) for text in FAULT_TERMS]
    nodes = 0
    for p in terms:
        engine = Engine(kind)
        order, _ = checks.explore(p, engine, 4)
        todo = order + [tgt for table in (engine._forward_premises, engine._backward_premises)
                        for batch in table.values() for _, tgt in batch]
        one, met = {}, set()
        while todo:
            y = todo.pop()
            if id(y) not in met:
                met.add(id(y))
                assert one.setdefault(y, y) is y, syntax.format(y)
                todo += _children(y)
        nodes += len(met)
    assert nodes > 2000


def test_a_node_two_runs_met_is_each_runs_own():
    # a second run adopts the first run's states, and the first still
    # finds each of them, and its answers, through its own table; a state
    # the second run built is the first run's own instance in the first
    p = parse(F2_TERM)
    first, second = Engine(MemoryKind.DCC), Engine(MemoryKind.DCC)
    order, edges = checks.explore(p, first, 3)
    answers = [first.all(x) for x in order]
    assert [second.all(x) for x in order] == answers
    assert second.initial(p) is order[0]
    for x, old in zip(order, answers):
        again = first.forward(x) + first.backward(x)
        assert len(again) == len(old) and all(t is u for t, u in zip(again, old))
    one = {x: x for x in order}
    built = [t.target for a in {a for a, _, _ in edges} for t in second.all(order[a])]
    assert any(y is not one[y] for y in built)
    assert all(first.canon(y) is one[y] for y in built)


def _unrebuilt_records(p, kind):
    """Each record, by identity, below a state or in a label of the walk
    of ``p`` to depth 4 -- term nodes, names, memories and actions --
    that its class does not rebuild from its ``_parts()``."""
    order, edges = checks.explore(p, Engine(kind), 4)
    todo = order + [t.label for _, _, t in edges]
    out, met = [], set()
    while todo:
        y = todo.pop()
        if id(y) in met:
            continue
        met.add(id(y))
        if type(y)(*y._parts()) != y:
            out.append(y)
        todo += [v for v in (getattr(y, f.name) for f in dataclasses.fields(y))
                 if dataclasses.is_dataclass(v)]
    return out


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_a_record_is_rebuilt_from_its_parts(corpus_entries, kind):
    # the unique table keys a node by its ``_parts()``, and builds a node
    # from them: a field they miss would merge nodes that differ in it
    terms = [p for _, p in corpus_entries] + [parse(text) for text in FAULT_TERMS]
    assert [y for p in terms for y in _unrebuilt_records(p, kind)] == []


def test_parts_that_miss_a_field_are_caught(monkeypatch):
    monkeypatch.setattr(memory.BscMemory, "_parts", lambda m: (m.gamma,))
    assert _unrebuilt_records(parse(F3_TERM), MemoryKind.BSC)
