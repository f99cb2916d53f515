import pytest
from hypothesis import given, settings

from conftest import parse, procs, run
from oracles import late_pi_batch
from revpi import bs, checks, syntax
from revpi.bs import (
    BsLabel, BsStep, Caused, bs_object_caused, bs_transitions, cau,
    erase_lambda, gamma, pi_transitions, rebuild_causal, replacing_cause,
)
from revpi.memory import MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, BoundOut, FreeOut, InAct, Label, Nil, Par, PiBoundOut,
    PiFreeOut, PiIn, PiTau, Res, Tau,
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
    assert label == BsLabel(1, PiFreeOut("b", "a"), frozenset())
    assert target == Caused(frozenset({1}), Nil())


def test_cause_wrapper_accumulates():
    a = Caused(frozenset({1}), parse("c!d.0"))
    (label, target), = bs_transitions(a)
    assert label == BsLabel(2, PiFreeOut("c", "d"), frozenset({1}))
    assert target == Caused(frozenset({1}), Caused(frozenset({2}), Nil()))


def test_communication_merges_causes():
    # hand-run: both premises get key 1; the conclusion replaces it by the
    # other side's (empty) causes on each half
    a = parse("a!b.0 | a?(x).d!e.0")
    taus = [pair for pair in bs_transitions(a) if isinstance(pair[0].act, PiTau)]
    assert len(taus) == 1
    label, target = taus[0]
    assert label == BsLabel(None, PiTau(), frozenset())
    assert target == Par(
        Caused(frozenset(), Nil()),
        Caused(frozenset(), parse("d!e.0")),
    )
    # the dependent output then carries no causes
    follow = bs_transitions(target, used=frozenset({1}))
    (flabel, _), = [p for p in follow if isinstance(p[0].act, PiFreeOut)]
    assert flabel == BsLabel(2, PiFreeOut("d", "e"), frozenset())


def test_open_consumes_restriction():
    a = parse("nu a.(b!a.0)")
    (label, target), = bs_transitions(a)
    assert label == BsLabel(1, PiBoundOut("b", "a"), frozenset())
    assert target == Caused(frozenset({1}), Nil())


def test_close_rewraps():
    a = parse("nu a.(b!a.0) | b?(x).x!c.0")
    taus = [p for p in bs_transitions(a) if isinstance(p[0].act, PiTau)]
    assert len(taus) == 1
    _, target = taus[0]
    assert isinstance(target, Res) and target.name == "a"
    assert erase_lambda(target) == parse("nu a.(0 | a!c.0)")


def test_private_subject_blocked():
    a = parse("nu a.(b!a.0 | a?(x).0)")
    kinds = [type(p[0].act) for p in bs_transitions(a)]
    assert kinds == [PiBoundOut]


def test_par_requires_fresh_key():
    # a key already spent stays spent even though the term forgot it
    a = parse("a!b.0 | a?(x).d!e.0")
    (_, target), = [p for p in bs_transitions(a) if isinstance(p[0].act, PiTau)]
    batch = bs_transitions(target, used=frozenset({1}))
    assert all(p[0].key != 1 for p in batch if p[0].key is not None)


# --------------------------------------------------------------------------- #
# cause surgery and erasure
# --------------------------------------------------------------------------- #

def cause_replace(a, k, ks):
    return rebuild_causal(a, causes=replacing_cause(k, ks))


def test_cause_replace():
    assert cause_replace(Caused(frozenset({1}), Nil()), 1, frozenset()) \
        == Caused(frozenset(), Nil())
    a = Caused(frozenset({2}), Nil())
    assert cause_replace(a, 1, frozenset({9})) == a
    assert cause_replace(Caused(frozenset({1, 3}), Nil()), 1, frozenset({2})) \
        == Caused(frozenset({2, 3}), Nil())


def test_cau():
    assert cau(parse("b!a.0")) == frozenset()
    a = Caused(frozenset({1}), Par(Caused(frozenset({2}), Nil()), Nil()))
    assert cau(a) == frozenset({1, 2})


def test_visible_step_records_its_key():
    for text in ("b!a.0", "b?(x).0"):
        (label, target), = bs_transitions(parse(text))
        assert label.key in cau(target)


def test_erase_lambda():
    assert erase_lambda(Caused(frozenset({1}), Nil())) == Nil()
    assert erase_lambda(parse("b!a.0")) == parse("b!a.0")
    a = Res("a", Caused(frozenset({1}), parse("b!a.0")))
    assert erase_lambda(a) == parse("nu a.(b!a.0)")


def test_erase_lambda_ignores_cause_surgery():
    a = Caused(frozenset({1}), Par(parse("b!a.0"), Nil()))
    assert erase_lambda(cause_replace(a, 1, frozenset({7}))) == erase_lambda(a)


# --------------------------------------------------------------------------- #
# label mapping
# --------------------------------------------------------------------------- #

def test_gamma():
    empty = MemoryKind.RPI.new()
    used = RpiMemory(frozenset({1}))
    assert gamma(Label(1, STAR_SET, STAR, BoundOut("b", "a", empty))) \
        == (1, PiBoundOut("b", "a"))
    assert gamma(Label(2, frozenset({1}), STAR, BoundOut("b", "a", used))) \
        == (2, PiFreeOut("b", "a"))
    assert gamma(Label(1, STAR_SET, STAR, Tau())) == (None, PiTau())
    assert gamma(Label(3, STAR_SET, 1, InAct("b", "x"))) == (3, PiIn("b", "x"))


# --------------------------------------------------------------------------- #
# object causality on reference traces
# --------------------------------------------------------------------------- #

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
         lambda l: l.act == PiFreeOut("b2", "a")],
    )
    assert bs_object_caused(steps, 0, 2)
    assert bs_object_caused(steps, 1, 2)
    assert not bs_object_caused(steps, 0, 1)


def test_object_cause_via_input_variable():
    steps = _run_bs("b?(x).x!c.0",
                    [lambda l: isinstance(l.act, PiIn)])
    a = steps[-1].target
    batch = bs_transitions(a, used=frozenset({1}))
    (label, target), = batch
    steps.append(BsStep(label, a, target))
    assert label.act == PiFreeOut("x", "c")
    assert bs_object_caused(steps, 0, 1)


def test_tau_introduces_nothing():
    steps = _run_bs("a!b.0 | a?(x).d!e.0",
                    [lambda l: isinstance(l.act, PiTau)])
    a = steps[-1].target
    (label, target), = [p for p in bs_transitions(a, used=frozenset({1}))
                        if isinstance(p[0].act, PiFreeOut)]
    steps.append(BsStep(label, a, target))
    assert not bs_object_caused(steps, 0, 1)


# --------------------------------------------------------------------------- #
# the erased reference: bisim's late-pi oracle
# --------------------------------------------------------------------------- #

def test_pi_communication():
    got = pi_transitions(parse("b!a.0 | b?(x).x!c.0"))
    taus = [(l, t) for l, t in got if isinstance(l, PiTau)]
    assert taus == [(PiTau(), parse("0 | a!c.0"))]


def test_pi_open():
    got = pi_transitions(parse("nu a.(b!a.0)"))
    assert got == ((PiBoundOut("b", "a"), Nil()),)


def test_pi_nil_and_blocked():
    assert pi_transitions(Nil()) == ()
    got = pi_transitions(parse("nu a.(a!b.0)"))
    assert got == ()


def test_pi_close():
    got = pi_transitions(parse("nu a.(b!a.0) | b?(x).x!c.0"))
    taus = [(l, t) for l, t in got if isinstance(l, PiTau)]
    assert taus == [(PiTau(), parse("nu a.(0 | a!c.0)"))]


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


def test_reference_batches_are_ordered_by_label_then_rendered_target(corpus_entries):
    def full(pr):
        return bs._pi_sort(pr[0].act), tuple(sorted(pr[0].causes)), bs.format_causal(pr[1])

    frontier = [syntax.strip_insts(p) for _, p in corpus_entries]
    frontier.append(parse("a!m.0 | a!m.0"))
    for _ in range(3):
        nxt = []
        for a in frontier:
            got = bs_transitions(a)
            assert len(set(got)) == len(got) and list(got) == sorted(got, key=full)
            nxt += [tgt for _, tgt in got]
        frontier = nxt
