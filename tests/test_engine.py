"""The per-run ``Engine``: the same answers as the uncached primitives,
each question asked of them once, failures never remembered, and no
memo outliving its run."""

import gc
import sys
import weakref

import pytest

from conftest import parse, run, start
from revpi import causality, checks, cli, corpus, semantics, syntax, traces
from revpi.causality import Trace
from revpi.correspondence import check_structural_correspondence
from revpi.engine import Engine
from revpi.memory import Memory, MemoryKind
from revpi.semantics import Transition

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
            engine.residual_swap(tr, 0)
    assert len(swap.calls) == 2


def test_causally_related_pair_raises_on_every_ask(monkeypatch):
    tr = Trace(tuple(run("a!b.c!d.0", ["a!b", "c!d"])))
    engine = Engine(MemoryKind.RPI)
    swap = _count(monkeypatch, traces, "residual_swap")
    for _ in range(2):
        with pytest.raises(traces.NotConcurrentError):
            engine.residual_swap(tr, 0)
    assert len(swap.calls) == 2


def test_remembered_swap_is_the_computed_one():
    tr = Trace(tuple(run("a!b.0 | c!d.0", ["a!b", "c!d"])))
    engine = Engine(MemoryKind.RPI)
    first = engine.residual_swap(tr, 0)
    assert engine.residual_swap(tr, 0) == first
    assert first == traces.residual_swap(tr, 0, Engine(MemoryKind.RPI))


def test_no_question_is_asked_twice_in_a_run(monkeypatch):
    p = dict(corpus.acceptance_corpus())["gen_20"]
    assert syntax.format(p) == GEN_20
    counters = [_count(monkeypatch, semantics, "forward_transitions"),
                _count(monkeypatch, semantics, "backward_transitions"),
                _count(monkeypatch, causality, "concurrent_pair")]
    swap = _count(monkeypatch, traces, "residual_swap")
    engine = Engine(MemoryKind.RPI)
    assert checks.check_consistency(p, engine, maxlen=4) == []
    assert checks.check_square(p, engine, 4) == []
    for counter in counters:
        assert counter.calls
        assert len(counter.calls) == len(set(counter.calls))
    pairs = [(tr[at], tr[at + 1]) for tr, at, _ in swap.calls]
    assert pairs and len(pairs) == len(set(pairs))


def _holds_engine_state(container) -> bool:
    """Whether a dict or set is keyed by terms or transitions, as a memo is."""
    term_types = (Transition, syntax.Leaf, syntax.RPar, syntax.RRes) + syntax.PastPrefix
    for item in container:
        parts = item if isinstance(item, tuple) else (item,)
        if any(isinstance(part, term_types) for part in parts):
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
    assert len(engines) == 1  # enumeration asks each question once: no engine
    capsys.readouterr()
    gc.collect()
    assert all(ref() is None for ref in engines)
    for name, module in sorted(sys.modules.items()):
        if name == "revpi" or name.startswith("revpi."):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, set, frozenset)):
                    assert not _holds_engine_state(value), "%s.%s" % (name, attr)


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
    x = start("nu a.(b!a.0 | a?(x).c!x.0)")
    (t,) = [t for t in semantics.forward_transitions(x, MemoryKind.RPI)
            if isinstance(t.label.act, syntax.BoundOut)]
    for obj in (t, t.label, t.target, t.target.mem, x.body):
        fields = tuple(getattr(obj, f) for f in obj.__dataclass_fields__)
        assert hash(obj) == hash(fields) == hash(obj)
    again = Memory(t.target.mem.kind, t.target.mem.gamma, t.target.mem.index)
    assert again == t.target.mem and hash(again) == hash(t.target.mem)
    assert "_hash" not in repr(t)
