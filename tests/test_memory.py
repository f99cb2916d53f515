import pytest
from hypothesis import given, strategies as st

from conftest import parse, run, start
from revpi import memory, syntax
from revpi.memory import (
    DuplicateKeyError, Memory, MemoryKind, admissible_causes,
    instantiation_related, mem_add, mem_contains, mem_new,
    mem_remove_extruder, open_cause, strip_key,
)
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, Leaf, Nil, PastInput, PastOutput, RRes,
)

ALL_KINDS = list(MemoryKind)


# --------------------------------------------------------------------------- #
# the memory algebra (init / empty / + / # / membership)
# --------------------------------------------------------------------------- #

def test_new_is_empty():
    assert mem_new(MemoryKind.RPI).render() == "set{}"
    assert mem_new(MemoryKind.BSC).render() == "iset{}@*"
    assert mem_new(MemoryKind.DCC).render() == "sset{}@{*}"
    for kind in ALL_KINDS:
        assert mem_new(kind).is_empty()
        assert not mem_contains(mem_new(kind), 1)


def test_add_set():
    m = mem_add(mem_new(MemoryKind.RPI), 1)
    assert m.render() == "set{1}"
    assert not m.is_empty()


def test_add_indexed_set_fixes_first_extruder():
    m = mem_add(mem_new(MemoryKind.BSC), 1)
    assert m.render() == "iset{1}@1"
    m = mem_add(m, 2)
    assert m.render() == "iset{1,2}@1"


def test_add_cause_set_accumulates():
    m = mem_add(mem_new(MemoryKind.DCC), 1)
    assert m.render() == "sset{1}@{*,1}"
    assert mem_add(m, 2).render() == "sset{1,2}@{*,1,2}"


def test_add_duplicate_is_an_error():
    m = mem_add(mem_new(MemoryKind.RPI), 1)
    with pytest.raises(DuplicateKeyError):
        mem_add(m, 1)


def test_contains_ignores_index():
    m = Memory(MemoryKind.BSC, frozenset({1}), STAR)
    assert mem_contains(m, 1)
    assert not mem_contains(mem_new(MemoryKind.RPI), 1)
    assert not mem_contains(Memory(MemoryKind.DCC, frozenset({1}), STAR_SET), 2)


@given(st.frozensets(st.integers(1, 6), max_size=4), st.integers(1, 6))
def test_add_contains_all_kinds(gamma, i):
    for kind in ALL_KINDS:
        m = mem_new(kind)
        for g in sorted(gamma):
            m = mem_add(m, g)
        if i in gamma:
            assert mem_contains(m, i)
        else:
            assert mem_contains(mem_add(m, i), i)


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True))
def test_indexed_set_index_is_stable(keys):
    m = mem_new(MemoryKind.BSC)
    for k in keys:
        m = mem_add(m, k)
        assert m.index == keys[0]


# --------------------------------------------------------------------------- #
# key stripping over processes
# --------------------------------------------------------------------------- #

def _res(kind, gamma, index, body=Leaf(Nil())):
    return RRes("a", Memory(kind, frozenset(gamma), index), body)


def test_strip_indexed_set():
    x = _res(MemoryKind.BSC, {1, 2}, 1)
    got = strip_key(x, 1)
    assert got.mem == Memory(MemoryKind.BSC, frozenset({1, 2}), STAR)
    # other indices untouched
    assert strip_key(x, 2).mem == x.mem


def test_strip_cause_set():
    x = _res(MemoryKind.DCC, {1, 2}, frozenset({STAR, 1, 2}))
    got = strip_key(x, 1)
    assert got.mem == Memory(MemoryKind.DCC, frozenset({1, 2}), frozenset({STAR, 2}))


def test_strip_plain_set_and_leaf():
    x = _res(MemoryKind.RPI, {1}, None)
    assert strip_key(x, 1) == x
    assert strip_key(Leaf(parse("b!a.0")), 1) == Leaf(parse("b!a.0"))


def test_strip_is_idempotent():
    for x in (_res(MemoryKind.BSC, {1, 2}, 1), _res(MemoryKind.DCC, {1}, frozenset({STAR, 1}))):
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
        m = mem_new(kind)
        for g in added:
            m = mem_add(m, g)
        x = RRes("a", m, Leaf(Nil()))
        for g in sorted(stripped):
            x = strip_key(x, g)
        assert mem_remove_extruder(strip_key(x, k).mem, k) == mem_remove_extruder(x.mem, k)


def test_remove_extruder_inverts_add():
    for kind in ALL_KINDS:
        m = mem_add(mem_new(kind), 3)
        assert mem_remove_extruder(m, 3) == mem_new(kind)
        m2 = mem_add(mem_add(mem_new(kind), 3), 5)
        assert mem_remove_extruder(m2, 5) == mem_add(mem_new(kind), 3)


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
                             STAR_SET, Leaf(Nil())))
    assert instantiation_related(x, 1, 2)
    assert _brute_instantiation(x, 1, 2)


def test_instantiation_related_needs_matching_instantiator():
    x = PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
                  PastOutput(AnnotatedName("a"), AnnotatedName("c"), 2,
                             STAR_SET, Leaf(Nil())))
    assert not instantiation_related(x, 1, 2)
    assert not _brute_instantiation(x, 1, 2)


def test_instantiation_related_not_reflexive_on_single_prefix():
    x = PastInput(AnnotatedName("b"), "x", 1, STAR_SET, Leaf(Nil()))
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
    m = Memory(MemoryKind.RPI, frozenset({1, 2}))
    got = admissible_causes(m, STAR_SET, Leaf(Nil()))
    assert got == [frozenset({1}), frozenset({2})]


def test_admissible_causes_indexed_set():
    m = Memory(MemoryKind.BSC, frozenset({1}), 1)
    got = admissible_causes(m, STAR_SET, Leaf(Nil()))
    assert got == [frozenset({STAR, 1})]


def test_admissible_causes_cause_set():
    m = Memory(MemoryKind.DCC, frozenset({1, 2}), frozenset({STAR, 1, 2}))
    got = admissible_causes(m, STAR_SET, Leaf(Nil()))
    assert got == [frozenset({STAR, 1, 2})]


def test_admissible_causes_requires_nonempty():
    with pytest.raises(ValueError):
        admissible_causes(mem_new(MemoryKind.RPI), STAR_SET, Leaf(Nil()))


def test_admissible_causes_keeps_refined_cause():
    m = Memory(MemoryKind.RPI, frozenset({2, 3}))
    got = admissible_causes(m, frozenset({2}), Leaf(Nil()))
    assert frozenset({2}) in got


def test_admissible_causes_instantiation_refinement():
    # the current cause 1 instantiated the action keyed 2, so {2} is an
    # alternative refinement
    host = PastInput(AnnotatedName("b"), "x", 1, STAR_SET,
                     PastOutput(AnnotatedName("a", 1), AnnotatedName("c"), 2,
                                STAR_SET, Leaf(Nil())))
    m = Memory(MemoryKind.RPI, frozenset({2}))
    got = admissible_causes(m, frozenset({1}), host)
    assert got == [frozenset({1}), frozenset({2})]


def test_open_cause():
    assert open_cause(Memory(MemoryKind.RPI, frozenset({1})),
                      STAR_SET) == STAR_SET
    assert open_cause(Memory(MemoryKind.BSC, frozenset({1}), 1),
                      STAR_SET) == frozenset({STAR, 1})
    assert open_cause(mem_new(MemoryKind.BSC),
                      STAR_SET) == STAR_SET
    assert open_cause(Memory(MemoryKind.DCC, frozenset({1}), frozenset({STAR, 1})),
                      STAR_SET) == STAR_SET
