
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from conftest import parse, run
from revpi import checks, syntax
from revpi.engine import Engine
from revpi.memory import (
    BscMemory, DccMemory, DuplicateKeyError, Memory, MemoryKind, RpiMemory,
    instantiation_related, strip_key,
)
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, Nil, Par, PastInput, PastOutput, RRes,
)

ALL_KINDS = list(MemoryKind)


# --------------------------------------------------------------------------- #
# a fourth shape, defined here only: the engine takes it unchanged
# --------------------------------------------------------------------------- #

@syntax.record
class ConjunctiveMemory(Memory):
    """A key set whose every recorded extruder causes a later action on the name."""

    def render(self) -> str:
        return "cset{%s}" % self._gamma_text()

    def add(self, i: int) -> Memory:
        return type(self)(self._gamma_with(i))

    def remove_extruder(self, i: int) -> Memory:
        return type(self)(self.gamma - {i})

    def admissible_causes(self, k, host):
        return [k | self.gamma]

    def refine_cause_consistent(self, cause) -> bool:
        return self.gamma <= cause

    def interlocked(self, early: int, late: int, early_refined: bool) -> bool:
        # as for dcc: a refined cause snapshots the extruders, and a later
        # extrusion of the name changes them
        return late in self.gamma and early_refined


class ShapeKind:
    """A run configuration whose only job is to hand out the empty memory."""

    def __init__(self, value: str, empty: Memory):
        self.value, self.empty = value, empty

    def new(self) -> Memory:
        return self.empty


CONJUNCTIVE = ShapeKind("conjunctive", ConjunctiveMemory())

#: every shape the laws must hold for
SHAPES = pytest.mark.parametrize("kind", ALL_KINDS + [CONJUNCTIVE], ids=lambda k: k.value)


# --------------------------------------------------------------------------- #
# the memory algebra (init / empty / + / # / membership)
# --------------------------------------------------------------------------- #

def test_new_is_empty():
    assert MemoryKind.RPI.new().render() == "set{}"
    assert MemoryKind.BSC.new().render() == "iset{}@*"
    assert MemoryKind.DCC.new().render() == "sset{}@{*}"
    for kind in ALL_KINDS:
        assert not kind.new().gamma
        assert 1 not in kind.new().gamma


def test_add_set():
    m = MemoryKind.RPI.new().add(1)
    assert m.render() == "set{1}"
    assert m.gamma


def test_add_indexed_set_fixes_first_extruder():
    m = MemoryKind.BSC.new().add(1)
    assert m.render() == "iset{1}@1"
    m = m.add(2)
    assert m.render() == "iset{1,2}@1"


def test_add_cause_set_accumulates():
    m = MemoryKind.DCC.new().add(1)
    assert m.render() == "sset{1}@{*,1}"
    assert m.add(2).render() == "sset{1,2}@{*,1,2}"


def test_add_duplicate_is_an_error():
    m = MemoryKind.RPI.new().add(1)
    with pytest.raises(DuplicateKeyError):
        m.add(1)


def test_contains_ignores_index():
    assert 1 in BscMemory(frozenset({1}), STAR).gamma
    assert 1 not in MemoryKind.RPI.new().gamma
    assert 2 not in DccMemory(frozenset({1}), STAR_SET).gamma


@given(st.frozensets(st.integers(1, 6), max_size=4), st.integers(1, 6))
def test_add_contains_all_kinds(gamma, i):
    for kind in ALL_KINDS:
        m = kind.new()
        for g in sorted(gamma):
            m = m.add(g)
        if i in gamma:
            assert i in m.gamma
        else:
            assert i in m.add(i).gamma


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True))
def test_indexed_set_index_is_stable(keys):
    m = MemoryKind.BSC.new()
    for k in keys:
        m = m.add(k)
        assert m.index == keys[0]


# --------------------------------------------------------------------------- #
# key stripping over processes
# --------------------------------------------------------------------------- #

def _res(mem, body=Nil()):
    return RRes("a", mem, body)


def test_strip_indexed_set():
    x = _res(BscMemory(frozenset({1, 2}), 1))
    got = strip_key(x, 1)
    assert got.mem == BscMemory(frozenset({1, 2}), STAR)
    # other indices untouched
    assert strip_key(x, 2).mem == x.mem


def test_strip_cause_set():
    x = _res(DccMemory(frozenset({1, 2}), frozenset({STAR, 1, 2})))
    got = strip_key(x, 1)
    assert got.mem == DccMemory(frozenset({1, 2}), frozenset({STAR, 2}))


def test_strip_plain_set_and_leaf():
    x = _res(RpiMemory(frozenset({1})))
    assert strip_key(x, 1) == x
    assert strip_key(parse("b!a.0"), 1) == parse("b!a.0")


def test_strip_shares_what_it_leaves_alone():
    # only the path to a memory that mentions key 1 is copied
    extruded = PastOutput(AnnotatedName("b"), AnnotatedName("a"), 1, STAR_SET, Nil())
    x = Par(RRes("a", BscMemory(frozenset({1}), 1), Par(extruded, parse("c!d.0"))),
            RRes("e", BscMemory(frozenset({2}), 2), parse("f!g.0")))
    got = strip_key(x, 1)
    assert got.left.mem == BscMemory(frozenset({1}), STAR)
    assert got.right is x.right
    assert got.left.body.right is x.left.body.right
    assert strip_key(x, 3) is x


def test_strip_is_idempotent():
    for x in (_res(BscMemory(frozenset({1, 2}), 1)),
              _res(DccMemory(frozenset({1}), frozenset({STAR, 1})))):
        once = strip_key(x, 1)
        assert strip_key(once, 1) == once


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True),
       st.data())
def test_remove_extruder_forgets_stripped_index(added, data):
    # undoing a close removes its key from a memory stripped of that key;
    # the result must not depend on the strip
    stripped = data.draw(st.sets(st.sampled_from(added)))
    k = data.draw(st.sampled_from(added))
    for kind in ALL_KINDS:
        m = kind.new()
        for g in added:
            m = m.add(g)
        x = RRes("a", m, Nil())
        for g in sorted(stripped):
            x = strip_key(x, g)
        assert strip_key(x, k).mem.remove_extruder(k) == x.mem.remove_extruder(k)


def test_remove_extruder_inverts_add():
    for kind in ALL_KINDS:
        m = kind.new().add(3)
        assert m.remove_extruder(3) == kind.new()
        m2 = kind.new().add(3).add(5)
        assert m2.remove_extruder(5) == kind.new().add(3)


# --------------------------------------------------------------------------- #
# the laws every shape obeys, on memories built by add, remove and strip
# --------------------------------------------------------------------------- #

_OPS = st.lists(st.tuples(st.sampled_from(["add", "remove", "strip"]), st.integers(1, 5)),
                max_size=8)

#: the cause sets a label can carry: unconstrained, or refined to a key
_CAUSES = st.one_of(st.just(STAR_SET), st.integers(1, 5).flatmap(
    lambda i: st.sampled_from([frozenset({i}), frozenset({STAR, i})])))

#: a body without history, and one where the input keyed 1 instantiated
#: the channel of the output keyed 2
_HOSTS = st.sampled_from([
    Nil(),
    PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
              PastOutput(AnnotatedName("a", 1), AnnotatedName("c"), 2, STAR_SET, Nil())),
])


def _built(kind, ops):
    """The memory a run of ``ops`` leaves, from ``kind``'s empty one: an
    add of a recorded key and a removal of an unrecorded one are skipped."""
    m = kind.new()
    for op, i in ops:
        if op == "add" and i not in m.gamma:
            m = m.add(i)
        elif op == "remove" and i in m.gamma:
            m = m.remove_extruder(i)
        elif op == "strip":
            m = m.strip(i)
    return m


@SHAPES
@given(ops=_OPS, data=st.data())
def test_law_remove_extruder_undoes_add(kind, ops, data):
    m = _built(kind, ops)
    i = data.draw(st.integers(1, 6).filter(lambda i: i not in m.gamma))
    assert m.add(i).remove_extruder(i) == m


@SHAPES
@given(ops=_OPS, i=st.integers(1, 5), j=st.integers(1, 5))
def test_law_strip_and_remove_extruder_commute(kind, ops, i, j):
    m = _built(kind, ops)
    assert m.strip(i).remove_extruder(j) == m.remove_extruder(j).strip(i)
    assert m.strip(j).remove_extruder(j) == m.remove_extruder(j)


@SHAPES
@given(ops=_OPS, k=_CAUSES, host=_HOSTS)
def test_law_admissible_causes_are_refine_consistent(kind, ops, k, host):
    m = _built(kind, ops)
    if not m.gamma:
        return  # the name is private: no action crosses it
    causes = m.admissible_causes(k, host)
    assert causes
    assert all(m.refine_cause_consistent(c) for c in causes)


@SHAPES
@given(ops=_OPS, k=_CAUSES)
def test_law_open_cause_is_open_consistent(kind, ops, k):
    m = _built(kind, ops)
    assert m.open_cause_consistent(m.open_cause(k))


@SHAPES
@given(ops=_OPS)
def test_law_empty_exactly_when_new(kind, ops):
    m = _built(kind, ops)
    assert (not m.gamma) == (m == kind.new())


@SHAPES
@given(ops=_OPS)
def test_law_every_key_held_is_recorded(kind, ops):
    # every key in a field, other than star, is in gamma: what lets every
    # caller read a memory's emptiness and its keys off gamma alone
    m = _built(kind, ops)
    held = set()
    for f in fields(m):
        value = getattr(m, f.name)
        held |= value if isinstance(value, frozenset) else {value}
    assert held - {STAR} <= m.gamma


@SHAPES
@given(ops1=_OPS, ops2=_OPS)
def test_law_render_is_injective(kind, ops1, ops2):
    m1, m2 = _built(kind, ops1), _built(kind, ops2)
    assert (m1.render() == m2.render()) == (m1 == m2)


# --------------------------------------------------------------------------- #
# parametricity: the fourth shape runs through the engine unchanged
# --------------------------------------------------------------------------- #

def test_the_fourth_shape_passes_the_suites(corpus_entries):
    rendered = set()
    for name, p in corpus_entries:
        engine = Engine(CONJUNCTIVE)
        for suite, violations in (
                ("loop", checks.check_loop(p, engine, 4)),
                ("square", checks.check_square(p, engine, 4)),
                ("bisim", checks.check_bisim(p, engine, 4)),
                ("consistency", checks.check_consistency(p, engine, maxlen=4))):
            assert violations == [], (name, suite, violations[:1])
        rendered |= {syntax.format(x) for x in checks.reachable_states(p, engine, 4)}
    # the shape was exercised: some name was extruded twice
    assert any("cset{1,2}" in text for text in rendered)


@syntax.record
class _UnlockedConjunctiveMemory(ConjunctiveMemory):
    interlocked = Memory.interlocked


def test_a_snapshot_cause_must_interlock_with_later_extrusions():
    # without the interlock, an action whose cause took in the extruders
    # is judged concurrent with a later extrusion, and the square fails
    p = parse("nu a.(b!a.0 | c!a.0 | a?(x).0)")
    unlocked = ShapeKind("unlocked", _UnlockedConjunctiveMemory())
    assert checks.check_square(p, Engine(unlocked), 4)
    assert checks.check_square(p, Engine(CONJUNCTIVE), 4) == []


# --------------------------------------------------------------------------- #
# instantiation relation
# --------------------------------------------------------------------------- #

def _brute_instantiation(x, i1, i2):
    # independent oracle: enumerate (input prefix, nested prefix) pairs
    pairs = []

    def inputs(t, above):
        if isinstance(t, (PastOutput, PastInput)):
            if isinstance(t, PastInput):
                inner = [node for node, _, _ in syntax.history(t.cont)
                         if isinstance(node, syntax.PastPrefix)]
                pairs.extend((t.key, p.key, p.chan.inst) for p in inner)
            inputs(t.cont, above)
        elif hasattr(t, "left"):
            inputs(t.left, above)
            inputs(t.right, above)
        elif isinstance(t, RRes):
            inputs(t.body, above)

    inputs(x, [])
    return any(a == i1 and b == i2 and inst == i1 for a, b, inst in pairs)


def test_instantiation_related_positive():
    x = PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
                  PastOutput(AnnotatedName("a", 1), AnnotatedName("c"), 2,
                             STAR_SET, Nil()))
    assert instantiation_related(x, 1, 2)
    assert _brute_instantiation(x, 1, 2)


def test_instantiation_related_needs_matching_instantiator():
    x = PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
                  PastOutput(AnnotatedName("a"), AnnotatedName("c"), 2,
                             STAR_SET, Nil()))
    assert not instantiation_related(x, 1, 2)
    assert not _brute_instantiation(x, 1, 2)


def test_instantiation_related_not_reflexive_on_single_prefix():
    x = PastInput(AnnotatedName("b"), "x", 1, STAR_SET, Nil())
    assert not instantiation_related(x, 1, 1)


def test_instantiation_related_agrees_with_oracle_on_run():
    steps = run("b!a.0 | b?(x).x!c.0", ["tau", "a!c"])
    state = steps[-1].target
    for i1 in (1, 2):
        for i2 in (1, 2):
            assert instantiation_related(state, i1, i2) == \
                _brute_instantiation(state, i1, i2)


# --------------------------------------------------------------------------- #
# cause selection
# --------------------------------------------------------------------------- #

def test_admissible_causes_plain_set_choice():
    m = RpiMemory(frozenset({1, 2}))
    got = m.admissible_causes(STAR_SET, Nil())
    assert got == [frozenset({1}), frozenset({2})]


def test_admissible_causes_indexed_set():
    m = BscMemory(frozenset({1}), 1)
    got = m.admissible_causes(STAR_SET, Nil())
    assert got == [frozenset({STAR, 1})]


def test_admissible_causes_cause_set():
    m = DccMemory(frozenset({1, 2}), frozenset({STAR, 1, 2}))
    got = m.admissible_causes(STAR_SET, Nil())
    assert got == [frozenset({STAR, 1, 2})]


def test_admissible_causes_requires_nonempty():
    with pytest.raises(ValueError):
        MemoryKind.RPI.new().admissible_causes(STAR_SET, Nil())


def test_admissible_causes_keeps_refined_cause():
    m = RpiMemory(frozenset({2, 3}))
    got = m.admissible_causes(frozenset({2}), Nil())
    assert frozenset({2}) in got


def test_admissible_causes_instantiation_refinement():
    # the current cause 1 instantiated the action keyed 2, so {2} is an
    # alternative refinement
    host = PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
                     PastOutput(AnnotatedName("a", 1), AnnotatedName("c"), 2,
                                STAR_SET, Nil()))
    m = RpiMemory(frozenset({2}))
    got = m.admissible_causes(frozenset({1}), host)
    assert got == [frozenset({1}), frozenset({2})]


def test_open_cause():
    assert RpiMemory(frozenset({1})).open_cause(STAR_SET) == STAR_SET
    assert BscMemory(frozenset({1}), 1).open_cause(STAR_SET) == frozenset({STAR, 1})
    assert MemoryKind.BSC.new().open_cause(STAR_SET) == STAR_SET
    assert DccMemory(frozenset({1}), frozenset({STAR, 1})).open_cause(STAR_SET) == STAR_SET
