"""States up to key renaming: the signature ``syntax.canonical_keys`` and
the walk over one state per class that the do/undo loop and the erasure
bisimulation make (symmetry reduction, Ip & Dill, FMSD 1996)."""

import functools
import gc
import itertools
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse
from revpi import checks, corpus, semantics, syntax
from revpi.engine import Engine
from revpi.memory import BscMemory, DccMemory, MemoryKind, RpiMemory
from revpi.syntax import STAR, AnnotatedName, Nil, RRes
from test_known_faults import FAULTS
from test_memory import CONJUNCTIVE, SHAPES, ConjunctiveMemory
from test_output_digests import F2_TERM, FAULT_TERMS

SWEEP_WITNESSES = [term for name, _, _, _, term in FAULTS if name.startswith("sweep")]


def _renamed(x, f: dict):
    """``x`` with each key ``k`` renamed to ``f[k]``, through ``rebuild``."""
    def rename(k):
        return f.get(k, k)

    return syntax.rebuild(
        x,
        names=lambda a: a if a.inst is STAR else AnnotatedName(a.name, f[a.inst]),
        mem=lambda m: m.rename_keys(rename),
        cause=lambda _, cause: frozenset(map(rename, cause)),
        key=f.__getitem__)


@functools.lru_cache(maxsize=None)
def _corpus_states() -> tuple:
    """Every state reachable in 4 steps from a corpus term, under every shape."""
    out = []
    for kind in list(MemoryKind) + [CONJUNCTIVE]:
        for _, p in corpus.acceptance_corpus():
            out += checks.reachable_states(p, Engine(kind), 4)
    return tuple(out)


# --------------------------------------------------------------------------- #
# the signature
# --------------------------------------------------------------------------- #

def test_rename_keys_renames_every_field_of_every_shape():
    renaming = {1: 7, 2: 5}

    def f(k):
        return renaming.get(k, k)

    assert RpiMemory(frozenset({1, 2})).rename_keys(f) == RpiMemory(frozenset({5, 7}))
    assert BscMemory(frozenset({1, 2}), 2).rename_keys(f) == BscMemory(frozenset({5, 7}), 5)
    assert BscMemory(frozenset(), STAR).rename_keys(f) == BscMemory()
    assert (DccMemory(frozenset({1, 2}), frozenset({STAR, 1})).rename_keys(f)
            == DccMemory(frozenset({5, 7}), frozenset({STAR, 7})))
    assert ConjunctiveMemory(frozenset({2})).rename_keys(f) == ConjunctiveMemory(frozenset({5}))


def test_keys_are_numbered_by_their_first_stamp_in_the_history():
    # the history reads b!m[3] before m?(x)[1], so 3 becomes 1
    engine = Engine(MemoryKind.DCC)
    states = {syntax.format(x): x for x in checks.reachable_states(parse(F2_TERM), engine, 4)}
    x = states["nu m:sset{3}@{*,3}.(a!m.0 | b!m[3;{*}].0 | m?(x)[1;{*}].0 | m!n[1;{*}].0)"]
    assert syntax.format(syntax.canonical_keys(x)) == \
        "nu m:sset{1}@{*,1}.(a!m.0 | b!m[1;{*}].0 | m?(x)[2;{*}].0 | m!n[2;{*}].0)"


def test_instantiators_in_plain_continuations_are_renamed():
    p = parse("a!m.0 | a?(x).x!n.0 | c!d.0")
    engine = Engine(MemoryKind.RPI)
    (x,) = [x for x in checks.reachable_states(p, engine, 2)
            if syntax.format(x) == "a!m[2;{*}].0 | a?(x)[2;{*}].m{2}!n.0 | c!d[1;{*}].0"]
    assert syntax.format(syntax.canonical_keys(x)) == \
        "a!m[1;{*}].0 | a?(x)[1;{*}].m{1}!n.0 | c!d[2;{*}].0"


def test_every_key_a_corpus_state_mentions_is_a_prefix_key():
    broken = [syntax.format(x) for x in _corpus_states()
              if not syntax.occurring_keys(x) <= syntax.keys(x)]
    assert broken == []


def test_a_state_mentioning_an_unstamped_key_is_its_own_class():
    x = RRes("a", RpiMemory(frozenset({5})), Nil())
    y = RRes("a", RpiMemory(frozenset({6})), Nil())
    assert syntax.canonical_keys(x) is x
    assert syntax.canonical_keys(y) is y


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_keys_is_invariant_under_renaming(data):
    x = data.draw(st.sampled_from(_corpus_states()))
    old = sorted(syntax.keys(x))
    new = data.draw(st.lists(st.integers(1, 12), min_size=len(old), max_size=len(old),
                             unique=True))
    y = _renamed(x, dict(zip(old, new)))
    assert syntax.canonical_keys(y) == syntax.canonical_keys(x)


def test_equal_signatures_only_for_renamings():
    # brute force over the states with at most 4 keys: within a class,
    # some permutation of the first member's keys gives every other one
    classes: dict = {}
    for x in _corpus_states():
        if len(syntax.keys(x)) <= 4:
            classes.setdefault(syntax.canonical_keys(x), []).append(x)
    merged = 0
    for first, *rest in classes.values():
        old = sorted(syntax.keys(first))
        for y in dict.fromkeys(rest):
            merged += y != first
            assert any(_renamed(first, dict(zip(old, new))) == y
                       for new in itertools.permutations(sorted(syntax.keys(y)))), \
                (syntax.format(first), syntax.format(y))
    assert merged > 500


def test_an_already_canonical_state_does_not_keep_itself():
    x = syntax.initial(parse("nu m.(a!m.0 | m?(x).0)"), MemoryKind.RPI)
    t = Engine(MemoryKind.RPI).forward(x)[0]
    state = t.target
    assert syntax.canonical_keys(state) is state
    ref = weakref.ref(state)
    del x, t, state
    gc.disable()
    try:
        assert ref() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------- #
# the walk over classes
# --------------------------------------------------------------------------- #

def test_the_quotient_walk_meets_every_class_once(corpus_entries):
    for _, p in corpus_entries + [(None, parse(F2_TERM))]:
        for kind in MemoryKind:
            full = checks.reachable_states(p, Engine(kind), 4)
            engine = Engine(kind)
            order = checks.reachable_states(p, engine, 4, syntax.canonical_keys)
            classes = [syntax.canonical_keys(x) for x in order]
            assert len(set(classes)) == len(classes)
            assert set(classes) == {syntax.canonical_keys(x) for x in full}
            # each class stands in the walk as its first member in the full walk
            first = {}
            for x in full:
                first.setdefault(syntax.canonical_keys(x), x)
            assert order == [first[c] for c in classes]


def _classes_of_steps(engine, x) -> Counter:
    return Counter((t.dir, syntax.canonical_keys(t.target)) for t in engine.all(x))


@SHAPES
def test_enumeration_commutes_with_renaming_keys(corpus_entries, kind):
    # what the walk over classes rests on: the steps out of a state and
    # those out of its canonical renaming lead, direction by direction, to
    # the same classes, as many steps to each
    renamed = 0
    for _, p in corpus_entries:
        engine = Engine(kind)
        for x in checks.reachable_states(p, engine, 4):
            y = syntax.canonical_keys(x)
            renamed += y != x
            assert _classes_of_steps(engine, x) == _classes_of_steps(engine, y), \
                syntax.format(x)
    assert renamed > 400


def test_loop_and_bisim_walk_classes_through_reachable_states(monkeypatch):
    seen = []
    real = checks.reachable_states

    def spy(p, engine, depth, up_to=None):
        seen.append(up_to)
        return real(p, engine, depth, up_to)

    monkeypatch.setattr(checks, "reachable_states", spy)
    p = parse(F2_TERM)
    checks.check_loop(p, MemoryKind.RPI, 4)
    checks.check_bisim(p, MemoryKind.RPI, 4)
    checks.check_square(p, MemoryKind.RPI, 4)
    assert seen == [syntax.canonical_keys, syntax.canonical_keys, None]


def _terms(corpus_entries):
    return [p for _, p in corpus_entries] + [parse(t) for t in FAULT_TERMS + SWEEP_WITNESSES]


def _reports(terms, kind, depth=4):
    out = []
    for p in terms:
        engine = Engine(kind)
        out.append((checks.check_loop(p, engine, depth), checks.check_bisim(p, engine, depth)))
    return out


def _identity(x):
    return x


@SHAPES
def test_loop_and_bisim_verdicts_are_those_of_the_full_walk(corpus_entries, kind, monkeypatch):
    terms = _terms(corpus_entries)
    classes = sum(len(checks.reachable_states(p, kind, 4, syntax.canonical_keys)) for p in terms)
    quotient = _reports(terms, kind)
    monkeypatch.setattr(syntax, "canonical_keys", _identity)
    states = sum(len(checks.reachable_states(p, kind, 4, syntax.canonical_keys)) for p in terms)
    full = _reports(terms, kind)
    assert classes < states
    for p, q, f in zip(terms, quotient, full):
        for suite, mine, theirs in zip(("loop", "bisim"), q, f):
            assert bool(mine) == bool(theirs), (syntax.format(p), suite)
            assert all(v in theirs for v in mine), (syntax.format(p), suite)


def _no_communication_undo(outs, ins, res, run, out_on_left):
    return []


def _substitution_kept(x, val, key, var):
    return x


def _no_extrusion_undo(real):
    # an extrusion, once made, is never undone
    def mutant(a, m, lbl):
        return tuple((label, left) for label, left in real(a, m, lbl) if left == m)
    return mutant


MUTANTS = {
    "no communication undo": (semantics, "_unsync", lambda real: _no_communication_undo),
    "substitution kept": (syntax, "unsubstitute", lambda real: _substitution_kept),
    "no extrusion undo": (semantics, "_cross_restriction_back", _no_extrusion_undo),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_backward_mutant_is_caught_by_both_walks(corpus_entries, mutant, monkeypatch):
    module, name, make = MUTANTS[mutant]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    terms = _terms(corpus_entries)
    quotient = {kind: _reports(terms, kind, 3) for kind in MemoryKind}
    monkeypatch.setattr(syntax, "canonical_keys", _identity)
    full = {kind: _reports(terms, kind, 3) for kind in MemoryKind}
    caught = {"quotient": set(), "full": set()}
    for kind in MemoryKind:
        for p, q, f in zip(terms, quotient[kind], full[kind]):
            for walk, reports in (("quotient", q), ("full", f)):
                if any(reports):
                    caught[walk].add((p, kind))
            for mine, theirs in zip(q, f):
                assert all(v in theirs for v in mine)
    assert caught["quotient"] == caught["full"]
    assert len(caught["full"]) > 10


def test_the_square_is_checked_on_every_state():
    # the square skips a pair whose second step reuses the first one's key,
    # which an undo of k followed by a forward step does exactly when k is
    # the smallest free key: so a failing state of F2 can have clean class
    # mates, and a walk over classes could pick a clean one
    engine = Engine(MemoryKind.DCC)
    states = checks.reachable_states(parse(F2_TERM), engine, 4)
    failing = {r["state"] for r in checks.check_square(parse(F2_TERM), engine, 4)}
    for x in states:
        if syntax.format(x) in failing:
            assert any(syntax.canonical_keys(y) == syntax.canonical_keys(x)
                       and syntax.format(y) not in failing for y in states)
