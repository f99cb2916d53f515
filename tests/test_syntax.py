import dataclasses

import pytest
from hypothesis import given, strategies as st

from conftest import parse, procs, start
from oracles import binders_unique, check_key_invariant
from revpi import checks, corpus, memory, syntax
from revpi.engine import Engine
from revpi.memory import BscMemory, MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, FreeOut, InAct, Input, Label,
    Nil, Output, Par, ParseError, PastInput, PastOutput, PiBoundOut,
    PiFreeOut, PiTau, RRes, Res, Tau,
)
from test_memory import SHAPES
from test_output_digests import FAULT_TERMS
from test_symmetry import SWEEP_WITNESSES


def ann(name, inst=STAR):
    return AnnotatedName(name, inst)


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #

def test_parse_nil():
    assert parse("0") == Nil()


def test_parse_visible_pair():
    p = parse("b!a.0 | b?(x).x!c.0")
    assert p == Par(
        Output(ann("b"), ann("a"), Nil()),
        Input(ann("b"), "x", Output(ann("x"), ann("c"), Nil())),
    )


def test_parse_three_extruders():
    p = parse("nu a.(b!a.0 | c!a.0 | a?(x).0)")
    assert isinstance(p, Res)
    assert p.name == "a"
    assert isinstance(p.body, Par)
    assert isinstance(p.body.left, Par)


def test_parse_annotations():
    p = parse("a{1}!c{*}.0")
    assert p == Output(ann("a", 1), ann("c"), Nil())


def test_parse_par_associativity():
    p = parse("a!b.0 | c!d.0 | e!f.0")
    assert isinstance(p, Par) and isinstance(p.left, Par)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("b!a.")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse("b!!a.0")
    with pytest.raises(ParseError):
        parse("b!a.0 | 5")


@pytest.mark.parametrize("text, line, col", [
    ("nu!a.0", 1, 1),            # channel
    ("nu{1}?(x).0", 1, 1),       # annotated channel
    ("a!nu.0", 1, 3),            # datum
    ("a?(nu).0", 1, 4),          # binder
    ("nu nu.0", 1, 4),           # restricted name
    ("a!b.0 |\n  c!nu{2}.0", 2, 5),
])
def test_nu_is_reserved_in_every_name_position(text, line, col):
    with pytest.raises(ParseError, match="'nu' is reserved") as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_names_that_start_with_nu_are_names():
    assert parse("nu nua.nua!nub.0") == Res("nua", Output(ann("nua"), ann("nub"), Nil()))


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_every_reachable_erasure_parses_back(corpus_entries, kind):
    # the text of each plain term the engine reaches is a term of the grammar
    states = 0
    for _, p in corpus_entries:
        for x in checks.reachable_states(p, Engine(kind), 4):
            plain = syntax.erase(x)
            assert parse(syntax.format(plain)) == plain, syntax.format(x)
            states += 1
    assert states > 700


def test_parse_renames_duplicate_binders():
    p = parse("a?(x).0 | a?(x).0")
    assert binders_unique(p)
    assert isinstance(p.left, Input) and isinstance(p.right, Input)
    assert p.left.binder != p.right.binder


def test_parse_renames_binder_shadowing_free_name():
    p = parse("nu a.(b!a.0) | c!a.0")
    assert binders_unique(p)
    # the free a on the right is untouched, the binder moved aside
    assert p.right == Output(ann("c"), ann("a"), Nil())
    assert p.left.name != "a"


# --------------------------------------------------------------------------- #
# formatting
# --------------------------------------------------------------------------- #

def test_format_nil():
    assert syntax.format(Nil()) == "0"


def test_format_past_output():
    x = PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil())
    assert syntax.format(x) == "b!a[1;{*}].0"


def test_format_memory_restriction():
    m = BscMemory(frozenset({1}), 1)
    x = RRes("a", m, Nil())
    assert syntax.format(x) == "nu a:iset{1}@1.0"


def test_format_labels():
    lbl = Label(1, STAR_SET, STAR, FreeOut("b", "a"))
    assert syntax.format(lbl) == "(1,{*},*): b!a"
    lbl = Label(2, frozenset({STAR, 1}), 3, BoundOut("b", "a", MemoryKind.RPI.new()))
    assert syntax.format(lbl) == "(2,{*,1},3): b!(nu a:set{})"
    assert syntax.format(Label(1, STAR_SET, STAR, Tau())) == "(1,{*},*): tau"


def test_roundtrip_corpus(corpus_entries):
    for name, p in corpus_entries:
        text = syntax.format(p)
        assert syntax.format(parse(text)) == text, name


@given(st.sampled_from(corpus.generated_terms()))
def test_roundtrip_generated(text):
    p = parse(text)
    assert parse(syntax.format(p)) == p


@given(procs())
def test_format_parse_stable(p):
    q = parse(syntax.format(p))  # q is the uniquified form of p
    assert binders_unique(q)
    assert parse(syntax.format(q)) == q


# --------------------------------------------------------------------------- #
# initial / erase
# --------------------------------------------------------------------------- #

def test_initial_nil():
    assert start("0") == Nil()


def test_initial_restriction_kinds():
    p = parse("nu a.(b!a.0)")
    x = syntax.initial(p, MemoryKind.RPI)
    assert x == RRes("a", MemoryKind.RPI.new(), Output(ann("b"), ann("a"), Nil()))
    y = syntax.initial(p, MemoryKind.BSC)
    assert y.mem == MemoryKind.BSC.new()
    z = syntax.initial(p, MemoryKind.DCC)
    assert z.mem == MemoryKind.DCC.new()


@given(procs(), st.sampled_from(list(MemoryKind)))
def test_erase_initial_identity(p, kind):
    q = parse(syntax.format(p))
    assert syntax.erase(syntax.initial(q, kind)) == q
    assert syntax.keys(syntax.initial(q, kind)) == frozenset()


def test_erase_drops_history():
    x = Par(
        PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
        PastInput(ann("b"), "x", 1, STAR_SET,
                  Output(ann("a", 1), ann("c"), Nil())),
    )
    assert syntax.erase(x) == parse("0 | a!c.0")


def test_erase_drops_used_restriction():
    m = RpiMemory(frozenset({1}))
    x = RRes("a", m, PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()))
    assert syntax.erase(x) == Nil()


def _nodes(x, out):
    """Every term node of ``x``, continuations included."""
    out.append(x)
    for child in ("cont", "left", "right", "body"):
        if hasattr(x, child):
            _nodes(getattr(x, child), out)
    return out


@pytest.mark.parametrize("text", ["0", "a!b.0", "a?(x).x!b.0", "nu a.(b!a.0 | 0) | c?(x).0"])
def test_erasure_keeps_no_node_on_itself(text):
    # a node kept on itself would hold itself, and ``0`` is its own erasure
    x = start(text)
    assert syntax.erase(x) == syntax.strip_insts(parse(text))
    for node in _nodes(x, []):
        for slot, value in vars(node).items():
            if slot.startswith("_") and dataclasses.is_dataclass(value):
                assert not any(n is node for n in _nodes(value, [])), (slot, node)


def test_a_node_that_is_its_own_result_is_not_kept_on_itself():
    calls = []

    @syntax.kept_on_node("_probe")
    def same(x):
        calls.append(x)
        return x

    x = syntax.Par(syntax.Nil(), syntax.Nil())
    assert same(x) is x and same(x) is x
    assert len(calls) == 1 and vars(x)["_probe"] is not x


#: the nodes a state is built of outside its unfired prefixes; below one
#: the term is plain
REVERSIBLE_NODES = (Nil, Output, Input, Par, PastOutput, PastInput, RRes)
PLAIN_NODES = (Nil, Output, Input, Par, Res)


def _assert_term_model(x):
    if isinstance(x, (Output, Input)):
        assert all(isinstance(n, PLAIN_NODES) for n in _nodes(x, [])), syntax.format(x)
        return
    assert isinstance(x, REVERSIBLE_NODES), syntax.format(x)
    for child in ("cont", "left", "right", "body"):
        if hasattr(x, child):
            _assert_term_model(getattr(x, child))


@SHAPES
def test_every_state_is_built_of_the_reversible_nodes(corpus_entries, kind):
    for _, p in corpus_entries:
        assert syntax.as_plain(syntax.lift(p, kind)) == p
    terms = [p for _, p in corpus_entries] + [parse(t) for t in FAULT_TERMS + SWEEP_WITNESSES]
    for p in terms:
        for x in checks.reachable_states(p, kind, 4):
            _assert_term_model(x)


def test_erase_label():
    assert syntax.erase_label(Label(1, STAR_SET, STAR, FreeOut("b", "a"))) == PiFreeOut("b", "a")
    empty = MemoryKind.RPI.new()
    assert syntax.erase_label(
        Label(1, STAR_SET, STAR, BoundOut("b", "a", empty))) == PiBoundOut("b", "a")
    used = RpiMemory(frozenset({1}))
    assert syntax.erase_label(
        Label(2, frozenset({1}), STAR, BoundOut("b", "a", used))) == PiFreeOut("b", "a")
    assert syntax.erase_label(Label(1, STAR_SET, STAR, Tau())) == PiTau()


# --------------------------------------------------------------------------- #
# keys and names
# --------------------------------------------------------------------------- #

def test_keys_examples():
    assert syntax.keys(parse("b!a.0")) == frozenset()
    y2 = Par(
        PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
        PastInput(ann("b"), "x", 1, STAR_SET,
                  Output(ann("a", 1), ann("c"), Nil())),
    )
    assert syntax.keys(y2) == frozenset({1})
    m = RpiMemory(frozenset({1, 2}))
    x = RRes("a", m, Par(
        Par(PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()),
            PastOutput(ann("c"), ann("a"), 2, STAR_SET, Nil())),
        parse("a?(x).0")))
    assert syntax.keys(x) == frozenset({1, 2})


def test_free_names_plain():
    assert syntax.free_names(parse("nu a.(b!a.0)")) == {"b"}
    assert syntax.free_names(parse("b?(x).x!c.0")) == {"b", "c"}


def test_free_names_used_restriction_no_longer_binds():
    # oracle: structural recursion where only empty-memory restrictions
    # bind; computed by hand on this term
    m = RpiMemory(frozenset({1}))
    x = RRes("a", m, PastOutput(ann("b"), ann("a"), 1, STAR_SET,
                                parse("a?(x).0")))
    assert syntax.free_names(x) == {"a", "b"}


# --------------------------------------------------------------------------- #
# history
# --------------------------------------------------------------------------- #

def _out(key, cont=Nil()):
    return PastOutput(ann("a"), ann("b"), key, STAR_SET, cont)


def _in(key, cont=Nil()):
    return PastInput(ann("a"), "x", key, STAR_SET, cont)


def test_history_lists_paths_and_the_prefixes_above():
    inner = RRes("n", MemoryKind.RPI.new(), _in(3))
    second = _in(2, inner)
    first = _out(1, second)
    x = RRes("m", MemoryKind.RPI.new(), Par(first, parse("c!d.0")))
    assert syntax.history(x) == [
        (x, (), ()),
        (first, ("body", "left"), ()),
        (second, ("body", "left", "cont"), (first,)),
        (inner, ("body", "left", "cont", "cont"), (first, second)),
        (inner.body, ("body", "left", "cont", "cont", "body"), (first, second)),
    ]


@pytest.mark.parametrize("x, reason", [
    (Par(Par(_out(1), _in(1)), _in(1)), "key 1 occurs 3 times"),
    (Par(_out(1), _out(1)), "key 1 is not an output/input pair"),
    (_out(1, RRes("m", MemoryKind.RPI.new(), _in(1))),
     "key 1 pair does not straddle a parallel"),
])
def test_key_invariant_rejections(x, reason):
    with pytest.raises(AssertionError, match=reason):
        check_key_invariant(x)


# --------------------------------------------------------------------------- #
# substitution
# --------------------------------------------------------------------------- #

def test_substitute_example():
    x = parse("x!c.0")
    got = syntax.substitute(x, "x", "a", 1)
    assert got == Output(ann("a", 1), ann("c"), Nil())


def test_substitute_nil():
    assert syntax.substitute(Nil(), "x", "a", 1) == Nil()


def test_substitute_under_binder():
    # structural-recursion oracle: the inner binder y is untouched, both
    # free x occurrences (subject and object) are hit
    x = parse("x?(y).y!x.0")
    got = syntax.substitute(x, "x", "a", 2)
    assert got == Input(ann("a", 2), "y",
                             Output(ann("y"), ann("a", 2), Nil()))


def test_substitute_key_discipline():
    x = parse("x!c.0")
    got = syntax.substitute(x, "x", "a", 7)
    assert syntax.keys(got) <= syntax.keys(x)
    assert syntax.occurring_keys(got) <= syntax.occurring_keys(x) | {7}


def test_substitute_shares_what_it_leaves_alone():
    # only the paths to the occurrences of x are copied, plain ones too
    x = Par(PastInput(ann("a"), "x", 1, STAR_SET, parse("x!b.(c!d.0 | x!e.0)")),
            parse("f!g.0"))
    got = syntax.substitute(x, "x", "h", 1)
    assert syntax.format(got) == "a?(x)[1;{*}].h{1}!b.(c!d.0 | h{1}!e.0) | f!g.0"
    assert got.right is x.right
    assert got.left.cont.cont.left is x.left.cont.cont.left
    assert syntax.substitute(x, "y", "h", 1) is x


def test_unsubstitute_shares_what_it_leaves_alone():
    x = Par(PastInput(ann("a"), "x", 1, STAR_SET,
                      parse("h{1}!b.(c!d.0 | h{1}!e.0)")),
            parse("h{2}!g.0"))
    got = syntax.unsubstitute(x, "h", 1, "x")
    assert syntax.format(got) == "a?(x)[1;{*}].x!b.(c!d.0 | x!e.0) | h{2}!g.0"
    assert got.right is x.right
    assert got.left.cont.cont.left is x.left.cont.cont.left
    assert syntax.unsubstitute(x, "h", 3, "x") is x


def test_unsubstitute_inverts():
    x = parse("x?(y).y!x.0")
    sub = syntax.substitute(x, "x", "a", 2)
    assert syntax.unsubstitute(sub, "a", 2, "x") == x


# --------------------------------------------------------------------------- #
# nesting bound
# --------------------------------------------------------------------------- #

def _nested(kind, n):
    if kind == "prefix":
        return "a!b." * n + "0"
    if kind == "restriction":
        return "nu a." * n + "0"
    return " | ".join(["a!b.0"] * n)


@pytest.mark.parametrize("kind", ["prefix", "restriction", "par"])
def test_parse_accepts_the_nesting_bound(kind):
    p = parse(_nested(kind, syntax.MAX_NESTING))
    assert parse(syntax.format(p)) == p


@pytest.mark.parametrize("kind", ["prefix", "restriction", "par"])
def test_parse_rejects_deeper_nesting(kind):
    with pytest.raises(ParseError) as exc:
        parse(_nested(kind, syntax.MAX_NESTING + 1))
    assert "nested deeper than %d" % syntax.MAX_NESTING in str(exc.value)


def test_parse_bounds_redundant_parentheses():
    assert parse("(" * syntax.MAX_NESTING + "0" + ")" * syntax.MAX_NESTING) == Nil()
    with pytest.raises(ParseError):
        parse("(" * 5000 + "0" + ")" * 5000)


# --------------------------------------------------------------------------- #
# rebuilding
# --------------------------------------------------------------------------- #

def test_rebuild_without_maps_copies_history_and_shares_plain_parts():
    x = start("nu a.(b!a.0 | b?(x).x!c.0)")
    got = syntax.rebuild(x)
    assert got == x
    assert got.body.left is x.body.left


def test_rebuild_maps_memories_and_causes():
    cont = parse("c!d.0")
    x = RRes("a", MemoryKind.RPI.new(),
             PastOutput(ann("b"), ann("a"), 1, STAR_SET, cont))
    marked = RpiMemory(frozenset({1}))
    got = syntax.rebuild(x, mem=lambda m: marked,
                         cause=lambda key, cause: frozenset({key + 1}))
    assert got == RRes("a", marked,
                       PastOutput(ann("b"), ann("a"), 1, frozenset({2}), cont))


def test_substitute_reaches_past_prefixes_under_restrictions():
    x = RRes("a", MemoryKind.RPI.new(),
             PastInput(ann("x"), "y", 1, STAR_SET, parse("x!y.0")))
    got = syntax.substitute(x, "x", "e", 3)
    assert got == RRes("a", MemoryKind.RPI.new(),
                       PastInput(ann("e", 3), "y", 1, STAR_SET,
                                 Output(ann("e", 3), ann("y"), Nil())))
    assert syntax.unsubstitute(got, "e", 3, "x") == x


# --------------------------------------------------------------------------- #
# render cache
# --------------------------------------------------------------------------- #

def _fresh_tight(x):
    text = _fresh(x)
    if isinstance(x, Par):
        return "(%s)" % text
    return text


def _fresh(x):
    """The rendering of a reversible term, computed from its fields alone."""
    if isinstance(x, (Nil, Output, Input)):
        return syntax.format(x)
    if isinstance(x, PastOutput):
        return "%s!%s[%d;%s].%s" % (x.chan, x.datum, x.key,
                                    syntax.render_cause(x.cause), _fresh_tight(x.cont))
    if isinstance(x, PastInput):
        return "%s?(%s)[%d;%s].%s" % (x.chan, x.binder, x.key,
                                      syntax.render_cause(x.cause), _fresh_tight(x.cont))
    if isinstance(x, Par):
        return "%s | %s" % (_fresh(x.left), _fresh_tight(x.right))
    return "nu %s:%s.%s" % (x.name, x.mem.render(), _fresh_tight(x.body))


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_cached_rendering_is_the_fresh_one(corpus_entries, kind):
    for _, p in corpus_entries:
        order, _ = checks.explore(p, Engine(kind), 4)
        # no label ties in a corpus batch, so no state is rendered before
        # it is asked for
        assert not any("_text" in x.__dict__ for x in order)
        for x in order:
            assert syntax.format(x) == _fresh(x)


def _renders_afresh(old, new):
    syntax.format(old)
    assert "_text" not in new.__dict__
    assert syntax.format(new) == _fresh(new) != syntax.format(old)


def test_rebuilt_terms_render_their_own_fields():
    prefix = PastOutput(ann("b"), ann("a"), 1, STAR_SET, parse("c!d.0"))
    _renders_afresh(prefix, dataclasses.replace(prefix, key=2))
    _renders_afresh(prefix, dataclasses.replace(prefix, cont=parse("c!e.0")))
    _renders_afresh(prefix, syntax.rebuild(prefix, cause=lambda key, cause: frozenset({5})))

    x = RRes("a", MemoryKind.RPI.new(),
             PastInput(ann("x"), "y", 1, STAR_SET, parse("x!y.0")))
    _renders_afresh(x, syntax.substitute(x, "x", "e", 3))
    assert syntax.format(syntax.substitute(x, "x", "e", 3)) == (
        "nu a:set{}.e{3}?(y)[1;{*}].e{3}!y.0")

    closed = RRes("a", BscMemory(frozenset({1}), 1),
                  PastOutput(ann("b"), ann("a"), 1, STAR_SET, Nil()))
    stripped = memory.strip_key(closed, 1)
    _renders_afresh(closed, stripped)
    assert syntax.format(stripped) == "nu a:iset{1}@*.b!a[1;{*}].0"


def test_rendering_leaves_equality_hash_and_repr_alone(corpus_entries):
    for _, p in corpus_entries[:10]:
        order, _ = checks.explore(p, Engine(MemoryKind.DCC), 3)
        for x in order:
            rendered = syntax.format(x)
            # rebuilding every name builds every node anew, unrendered
            copy = syntax.rebuild(x, names=lambda a: a)
            assert "_text" not in copy.__dict__ and "_text" in x.__dict__
            assert copy == x and x == copy
            assert hash(copy) == hash(x)
            assert repr(copy) == repr(x)
            assert syntax.format(copy) == rendered


def _insts(*names):
    return frozenset(a.inst for a in names if a.inst is not STAR)


def _plain_occurring(p):
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Output):
        return _insts(p.chan, p.datum) | _plain_occurring(p.cont)
    if isinstance(p, Input):
        return _insts(p.chan) | _plain_occurring(p.cont)
    if isinstance(p, Par):
        return _plain_occurring(p.left) | _plain_occurring(p.right)
    return _plain_occurring(p.body)


def _fresh_keys(x):
    """The keys of a term's executed prefixes, computed from its fields alone."""
    if isinstance(x, (Nil, Output, Input)):
        return frozenset()
    if isinstance(x, (PastOutput, PastInput)):
        return frozenset({x.key}) | _fresh_keys(x.cont)
    if isinstance(x, Par):
        return _fresh_keys(x.left) | _fresh_keys(x.right)
    return _fresh_keys(x.body)


def _fresh_occurring(x):
    """Every key a term mentions, computed from its fields alone."""
    if isinstance(x, (Nil, Output, Input)):
        return _plain_occurring(x)
    if isinstance(x, (PastOutput, PastInput)):
        named = (x.chan, x.datum) if isinstance(x, PastOutput) else (x.chan,)
        return (frozenset({x.key}) | {k for k in x.cause if k is not STAR}
                | _insts(*named) | _fresh_occurring(x.cont))
    if isinstance(x, Par):
        return _fresh_occurring(x.left) | _fresh_occurring(x.right)
    return frozenset(x.mem.mentioned_keys()) | _fresh_occurring(x.body)


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_cached_key_sets_are_the_fresh_ones(corpus_entries, kind):
    for _, p in corpus_entries:
        order, _ = checks.explore(p, Engine(kind), 4)
        for x in order:
            for fold, fresh in ((syntax.keys, _fresh_keys),
                                (syntax.occurring_keys, _fresh_occurring)):
                got = fold(x)
                assert isinstance(got, frozenset) and got == fresh(x)
                assert fold(x) is got  # kept on the node


def test_rebuilt_terms_compute_their_own_key_sets():
    def prefix(key):
        return PastOutput(ann("b"), ann("a", 4), key, frozenset({3}), parse("c{5}!d.0"))

    x = prefix(1)
    assert syntax.keys(x) == {1}
    assert syntax.occurring_keys(x) == {1, 3, 4, 5}
    assert "_keys" in x.__dict__ and "_occurring" in x.__dict__
    copy = dataclasses.replace(x, key=2)
    assert "_keys" not in copy.__dict__ and "_occurring" not in copy.__dict__
    assert syntax.keys(copy) == {2}
    assert syntax.occurring_keys(copy) == {2, 3, 4, 5}
    twin = prefix(1)  # equal to x, nothing kept on it yet
    assert repr(x) == repr(twin) and "_keys" not in repr(x) and "_occurring" not in repr(x)
    assert x == twin and hash(x) == hash(twin)


def test_sort_steps_renders_only_tied_labels():
    rendered = []

    def render(step):
        rendered.append(step)
        return step[1]

    steps = [(2, "b"), (1, "z"), (2, "a"), (3, "c")]
    assert syntax.sort_steps(steps, lambda s: s[0], render) == (
        (1, "z"), (2, "a"), (2, "b"), (3, "c"))
    assert sorted(rendered) == [(2, "a"), (2, "b")]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                max_size=12, unique=True))
def test_sort_steps_orders_by_the_full_key_and_renders_only_ties(steps):
    # a step is (label key, rendered target, payload); the rules never
    # derive a step twice, so neither does this input
    rendered = []

    def render(step):
        rendered.append(step)
        return step[1]

    out = syntax.sort_steps(steps, lambda s: s[0], render)
    label_keys = [s[0] for s in steps]
    assert out == tuple(sorted(steps, key=lambda s: (s[0], s[1])))
    assert sorted(rendered) == sorted(s for s in steps if label_keys.count(s[0]) > 1)


def test_a_memory_is_rendered_once():
    calls = []

    class Counted(RpiMemory):
        def render(self):
            calls.append(self)
            return super().render()

    mem = syntax.record(Counted)(frozenset({1, 2}))
    body = syntax.Nil()
    first, second = syntax.RRes("a", mem, body), syntax.RRes("b", mem, body)
    assert syntax.format(first) == "nu a:set{1,2}.0" and syntax.format(second) == "nu b:set{1,2}.0"
    assert syntax.memory_text(mem) == "set{1,2}" and calls == [mem]
