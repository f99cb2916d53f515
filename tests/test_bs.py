import pytest
from hypothesis import given, settings

from conftest import parse, procs, run
from oracles import BsStep, bs_object_caused, free_names, late_pi_batch
from revpi import bs, checks, syntax
from revpi.bs import BsLabel, bs_transitions, gamma, pi_transitions, replacing_cause
from revpi.engine import Engine
from revpi.memory import MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, Caused, FreeOut, InAct, Label, Nil, Par,
    PiBoundOut, Res, Tau,
)


def find(batch, pred):
    hits = [pair for pair in batch if pred(pair[0])]
    assert len(hits) == 1
    return hits[0]


# --------------------------------------------------------------------------- #
# transitions
# --------------------------------------------------------------------------- #

def test_output_creates_cause_wrapper():
    (label, target), = bs_transitions(parse("b!a.0"))
    assert label == BsLabel(1, FreeOut("b", "a"), frozenset())
    assert target == Caused(frozenset({1}), Nil())


def test_cause_wrapper_accumulates():
    a = Caused(frozenset({1}), parse("c!d.0"))
    (label, target), = bs_transitions(a)
    assert label == BsLabel(2, FreeOut("c", "d"), frozenset({1}))
    assert target == Caused(frozenset({1}), Caused(frozenset({2}), Nil()))


def test_communication_merges_causes():
    # hand-run: both premises get key 1; the conclusion replaces it by the
    # other side's (empty) causes on each half
    a = parse("a!b.0 | a?(x).d!e.0")
    taus = [pair for pair in bs_transitions(a) if isinstance(pair[0].act, Tau)]
    assert len(taus) == 1
    label, target = taus[0]
    assert label == BsLabel(None, Tau(), frozenset())
    assert target == Par(
        Caused(frozenset(), Nil()),
        Caused(frozenset(), parse("d!e.0")),
    )
    # the dependent output then carries no causes
    follow = bs_transitions(target, used=frozenset({1}))
    (flabel, _), = [p for p in follow if isinstance(p[0].act, FreeOut)]
    assert flabel == BsLabel(2, FreeOut("d", "e"), frozenset())


def test_open_consumes_restriction():
    a = parse("nu a.(b!a.0)")
    (label, target), = bs_transitions(a)
    assert label == BsLabel(1, PiBoundOut("b", "a"), frozenset())
    assert target == Caused(frozenset({1}), Nil())


def test_close_rewraps():
    a = parse("nu a.(b!a.0) | b?(x).x!c.0")
    taus = [p for p in bs_transitions(a) if isinstance(p[0].act, Tau)]
    assert len(taus) == 1
    _, target = taus[0]
    assert isinstance(target, Res) and target.name == "a"
    assert syntax.erase(target) == parse("nu a.(0 | a!c.0)")


def test_private_subject_blocked():
    a = parse("nu a.(b!a.0 | a?(x).0)")
    kinds = [type(p[0].act) for p in bs_transitions(a)]
    assert kinds == [PiBoundOut]


def test_par_requires_fresh_key():
    # a key already spent stays spent even though the term forgot it
    a = parse("a!b.0 | a?(x).d!e.0")
    (_, target), = [p for p in bs_transitions(a) if isinstance(p[0].act, Tau)]
    batch = bs_transitions(target, used=frozenset({1}))
    assert all(p[0].key != 1 for p in batch if p[0].key is not None)


# --------------------------------------------------------------------------- #
# cause surgery and erasure
# --------------------------------------------------------------------------- #

def cause_replace(a, k, ks):
    return syntax.rebuild(a, cause=replacing_cause(k, ks))


def test_cause_replace():
    assert cause_replace(Caused(frozenset({1}), Nil()), 1, frozenset()) \
        == Caused(frozenset(), Nil())
    a = Caused(frozenset({2}), Nil())
    assert cause_replace(a, 1, frozenset({9})) == a
    assert cause_replace(Caused(frozenset({1, 3}), Nil()), 1, frozenset({2})) \
        == Caused(frozenset({2, 3}), Nil())


def test_occurring_keys_are_the_causes():
    assert syntax.occurring_keys(parse("b!a.0")) == frozenset()
    a = Caused(frozenset({1}), Par(Caused(frozenset({2}), Nil()), Nil()))
    assert syntax.occurring_keys(a) == frozenset({1, 2})


def test_visible_step_records_its_key():
    for text in ("b!a.0", "b?(x).0"):
        (label, target), = bs_transitions(parse(text))
        assert label.key in syntax.occurring_keys(target)


def test_erase_drops_the_causes():
    assert syntax.erase(Caused(frozenset({1}), Nil())) == Nil()
    # a plain term without instantiators is its own erasure
    p = parse("b!a.0")
    assert syntax.erase(p) is p and syntax.erase(Caused(frozenset({1}), p)) is p
    a = Res("a", Caused(frozenset({1}), parse("b!a.0")))
    assert syntax.erase(a) == parse("nu a.(b!a.0)")


def test_erase_ignores_cause_surgery():
    a = Caused(frozenset({1}), Par(parse("b!a.0"), Nil()))
    assert syntax.erase(cause_replace(a, 1, frozenset({7}))) == syntax.erase(a)


def test_the_term_functions_read_a_causal_term():
    # one causal term with a cause set under a parallel composition and one
    # under a restriction: every function of ``syntax`` has a branch for it
    a = Par(Caused(frozenset({1}), parse("b!a.0")),
            Res("m", Caused(frozenset({1, 2}), parse("m!c.a?(x).x!m.0 | 0"))))
    assert syntax.format(a) == "{1}::b!a.0 | nu m.{1,2}::(m!c.a?(x).x!m.0 | 0)"
    assert syntax.erase(a) == parse("b!a.0 | nu m.(m!c.a?(x).x!m.0 | 0)")
    assert syntax.occurring_keys(a) == frozenset({1, 2})
    assert free_names(a) == {"a", "b", "c"}
    assert syntax.mentioned_names(a) == {"a", "b", "c", "m", "x"}
    assert cause_replace(a, 1, frozenset({5})) == Par(
        Caused(frozenset({5}), parse("b!a.0")),
        Res("m", Caused(frozenset({2, 5}), parse("m!c.a?(x).x!m.0 | 0"))))
    renamed = syntax.rebuild(a, names=lambda n: AnnotatedName("d") if n.name == "a" else n)
    assert renamed == Par(Caused(frozenset({1}), parse("b!d.0")),
                          Res("m", Caused(frozenset({1, 2}), parse("m!c.d?(x).x!m.0 | 0"))))
    # the default keys spent are the keys the term still holds
    got = bs_transitions(a)
    assert got == bs_transitions(a, used=syntax.occurring_keys(a))
    assert {label.key for label, _ in got} == {3}


# --------------------------------------------------------------------------- #
# label mapping
# --------------------------------------------------------------------------- #

def test_gamma():
    empty = MemoryKind.RPI.new()
    used = RpiMemory(frozenset({1}))
    assert gamma(Label(1, STAR_SET, STAR, BoundOut("b", "a", empty))) \
        == (1, PiBoundOut("b", "a"))
    assert gamma(Label(2, frozenset({1}), STAR, BoundOut("b", "a", used))) \
        == (2, FreeOut("b", "a"))
    assert gamma(Label(1, STAR_SET, STAR, Tau())) == (None, Tau())
    assert gamma(Label(3, STAR_SET, 1, InAct("b", "x"))) == (3, InAct("b", "x"))


# --------------------------------------------------------------------------- #
# object causality on reference traces
# --------------------------------------------------------------------------- #

def _object_caused(steps, m, n):
    """Whether step ``n`` uses the name step ``m`` introduced, read step by
    step as the correspondence walk reads it (``bs.introduced``), and held
    to the oracle that reads the whole run."""
    name = bs.introduced(steps[m].label.act)
    got = name is not None and name in bs._label_names(steps[n].label.act)
    assert got == bs_object_caused(steps, m, n)
    return got


def _run_bs(text, picks):
    a = parse(text)
    used = frozenset()
    steps = []
    for pick in picks:
        batch = bs_transitions(a, used=used)
        hits = [(l, t) for l, t in batch if pick(l)]
        assert len(hits) == 1, [l for l, _ in batch]
        label, target = hits[0]
        steps.append(BsStep(label, a, target))
        if label.key is not None:
            used = used | {label.key}
        else:
            used = used | {min(set(range(1, len(used) + 2)) - used)}
        a = target
    return steps


def test_object_cause_via_extruded_names():
    # two extrusions feeding a later output that uses both names
    steps = _run_bs(
        "nu a.(nu b2.(c!b2.0 | d!a.0 | b2!a.0))",
        [lambda l: l.act == PiBoundOut("c", "b2"),
         lambda l: l.act == PiBoundOut("d", "a"),
         lambda l: l.act == FreeOut("b2", "a")],
    )
    assert _object_caused(steps, 0, 2)
    assert _object_caused(steps, 1, 2)
    assert not _object_caused(steps, 0, 1)


def test_object_cause_via_input_variable():
    steps = _run_bs("b?(x).x!c.0",
                    [lambda l: isinstance(l.act, InAct)])
    a = steps[-1].target
    batch = bs_transitions(a, used=frozenset({1}))
    (label, target), = batch
    steps.append(BsStep(label, a, target))
    assert label.act == FreeOut("x", "c")
    assert _object_caused(steps, 0, 1)


def test_tau_introduces_nothing():
    steps = _run_bs("a!b.0 | a?(x).d!e.0",
                    [lambda l: isinstance(l.act, Tau)])
    a = steps[-1].target
    (label, target), = [p for p in bs_transitions(a, used=frozenset({1}))
                        if isinstance(p[0].act, FreeOut)]
    steps.append(BsStep(label, a, target))
    assert not _object_caused(steps, 0, 1)


def test_a_step_introduces_only_a_fresh_name():
    # an input binder or a bound output's datum, which is always fresh
    # (test_correspondence checks that on every paired step)
    assert bs.introduced(InAct("b", "x")) == "x"
    assert bs.introduced(PiBoundOut("b", "m")) == "m"
    assert bs.introduced(FreeOut("b", "m")) is None
    assert bs.introduced(Tau()) is None


# --------------------------------------------------------------------------- #
# the erased reference: bisim's late-pi oracle
# --------------------------------------------------------------------------- #

def test_pi_communication():
    got = pi_transitions(parse("b!a.0 | b?(x).x!c.0"))
    taus = [(l, t) for l, t in got if isinstance(l, Tau)]
    assert taus == [(Tau(), parse("0 | a!c.0"))]


def test_pi_open():
    got = pi_transitions(parse("nu a.(b!a.0)"))
    assert got == ((PiBoundOut("b", "a"), Nil()),)


def test_pi_nil_and_blocked():
    assert pi_transitions(Nil()) == ()
    got = pi_transitions(parse("nu a.(a!b.0)"))
    assert got == ()


def test_pi_close():
    got = pi_transitions(parse("nu a.(b!a.0) | b?(x).x!c.0"))
    taus = [(l, t) for l, t in got if isinstance(l, Tau)]
    assert taus == [(Tau(), parse("nu a.(0 | a!c.0)"))]


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_pi_batches_are_ordered_by_label_then_rendered_target(corpus_entries, kind):
    plains = {syntax.erase(x) for _, p in corpus_entries
              for x in checks.reachable_states(p, kind, 3)}
    plains.add(parse("a!m.0 | a!m.0"))  # two steps with one label
    for p in plains:
        assert pi_transitions(p) == late_pi_batch(p)


@settings(deadline=None, max_examples=300)
@given(procs(depth=4).map(syntax.format))
def test_the_erased_reference_is_the_plain_late_semantics(text):
    # the oracle of the erasure bisimulation, the reference relation with
    # its causes erased, agrees with the late semantics written on plain
    # terms, step for step and in the same order
    frontier = [parse(text)]
    for _ in range(2):
        nxt = []
        for p in frontier:
            got = pi_transitions(p)
            assert got == late_pi_batch(p)
            nxt += [tgt for _, tgt in got]
        frontier = nxt


def test_bisim_reports_engine_steps_in_the_engine_order(monkeypatch):
    # against an empty oracle every engine step is missing, and the
    # records list them in the order the engine gives them, whatever the
    # hash seed
    p = parse(" | ".join("c%d!d.0" % i for i in range(8)))
    monkeypatch.setattr(bs, "pi_transitions", lambda plain: ())
    engine = Engine(MemoryKind.RPI)
    expected = []
    for x in checks.reachable_states(p, engine, 2, syntax.canonical_keys):
        steps = dict.fromkeys((syntax.erase_label(t.label), syntax.erase(t.target))
                              for t in engine.forward(x))
        expected += [(syntax.format(x), str(lbl)) for lbl, _ in steps]
    report = checks.check_bisim(p, engine, 2)
    assert len(expected) > 8
    assert [(v["state"], v["label"]) for v in report] == expected
    assert {v["reason"] for v in report} == {"engine step missing from the oracle"}


def test_reference_batches_are_ordered_by_label_then_rendered_target(corpus_entries):
    def full(pr):
        return bs._pi_sort(pr[0].act), tuple(sorted(pr[0].causes)), syntax.format(pr[1])

    frontier = [syntax.strip_insts(p) for _, p in corpus_entries]
    frontier.append(parse("a!m.0 | a!m.0"))
    for _ in range(3):
        nxt = []
        for a in frontier:
            got = bs_transitions(a)
            assert len(set(got)) == len(got) and list(got) == sorted(got, key=full)
            nxt += [tgt for _, tgt in got]
        frontier = nxt
