"""Acceptance suite: the engine's contract, one criterion per test.

Each test prints a single PASS line once its criterion holds on the whole
corpus (paper-style worked examples plus the bounded generated family) at
the stated depth and tolerance; tolerances are exact (zero violations).
"""

import pytest

import oracles
from conftest import fire, parse, run, start
from revpi import checks, corpus, correspondence, semantics, syntax
from revpi.memory import BscMemory, DccMemory, MemoryKind, RpiMemory
from revpi.syntax import (
    STAR, STAR_SET, AnnotatedName, Direction, Nil, Output, Par, PastInput,
    PastOutput, RRes, Tau,
)

ALL_KINDS = list(MemoryKind)
DEPTH = 4


def _announce(criterion, label, violations):
    status = "PASS" if not violations else "FAIL (%d violations)" % len(violations)
    print("criterion %d (%s): %s" % (criterion, label, status))
    assert not violations, violations[:5]


@pytest.fixture(scope="module")
def entries():
    return corpus.acceptance_corpus()


# --------------------------------------------------------------------------- #
# 1. golden worked examples
# --------------------------------------------------------------------------- #

def _ann(name, inst=STAR):
    return AnnotatedName(name, inst)


def test_criterion_1_golden_examples():
    failures = []

    # visible pair and communication on one shared channel
    x = start("b!a.0 | b?(x).x!c.0")
    fwd = semantics.forward_transitions(x, MemoryKind.RPI)
    expect_tau_target = Par(
        PastOutput(_ann("b"), _ann("a"), 1, STAR_SET, Nil()),
        PastInput(_ann("b"), "x", 1, STAR_SET,
                  Output(_ann("a", 1), _ann("c"), Nil())),
    )
    if [syntax.format(t.label) for t in fwd] != \
            ["(1,{*},*): b!a", "(1,{*},*): b?(x)", "(1,{*},*): tau"]:
        failures.append("visible pair labels")
    if fire(x, "tau").target != expect_tau_target:
        failures.append("communication target")

    # the communication undoes only as a whole, restoring the source
    back = semantics.backward_transitions(expect_tau_target)
    if len(back) != 1 or not isinstance(back[0].label.act, Tau):
        failures.append("partial undo not blocked")
    elif back[0].target != x:
        failures.append("undo target")
    y1 = fire(fire(x, "b!a").target, "b?(x)").target
    if {t.label.key for t in semantics.backward_transitions(y1)} != {1, 2}:
        failures.append("independent actions must reverse in either order")

    # one name, two extruders, one input: the plain-set semantics offers a
    # choice of cause drawn from the memory
    t1, t2 = run("nu a.(b!a.0 | c!a.0 | a?(x).0)", ["b!(nu", "c!(nu"])
    if t2.target.mem != RpiMemory(frozenset({1, 2})):
        failures.append("extrusion memory")
    ins = semantics.forward_transitions(t2.target, MemoryKind.RPI)
    if [syntax.format(t.label) for t in ins] != \
            ["(3,{1},*): a?(x)", "(3,{2},*): a?(x)"]:
        failures.append("cause choice")

    # first-extruder semantics: index pins the cause of both later actions
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                ["b!(nu", "c!(nu", "a?(x)"], MemoryKind.BSC)
    final = steps[-1].target
    if final.mem != BscMemory(frozenset({1, 2}), 1):
        failures.append("indexed memory")
    pref_c = final.body.left.right
    pref_in = final.body.right
    if pref_c.cause != frozenset({STAR, 1}) or pref_in.cause != frozenset({STAR, 1}):
        failures.append("first-extruder causes")

    # cause-set semantics: the whole index set becomes the cause
    steps = run("nu a.(b!a.0 | c!a.0 | a?(x).0)",
                ["b!(nu", "c!(nu", "a?(x)"], MemoryKind.DCC)
    if steps[-1].label.cause != frozenset({STAR, 1, 2}):
        failures.append("cause-set cause")

    # the indexed-set label trace: later actions all cite the first key
    steps = run("nu a.(b!a.0 | c!a.0 | a?(z).0)",
                ["b!(nu", "c!(nu", "a?(z)"], MemoryKind.BSC)
    k2, k3 = steps[1].label.cause, steps[2].label.cause
    if not (k2 == k3 and 1 in k2 and k2 <= frozenset({STAR, 1})):
        failures.append("label causes on the indexed-set trace")
    if steps[0].label.cause != STAR_SET:
        failures.append("first extrusion unconstrained")

    _announce(1, "golden examples", failures)


# --------------------------------------------------------------------------- #
# 2-5, 8. engine-wide properties
# --------------------------------------------------------------------------- #

def test_criterion_2_loop(entries):
    violations = []
    for kind in ALL_KINDS:
        for name, p in entries:
            for v in checks.check_loop(p, kind, DEPTH):
                violations.append((kind.value, name, v))
    _announce(2, "do/undo bijection", violations)


def test_criterion_3_square(entries):
    violations = []
    for kind in ALL_KINDS:
        for name, p in entries:
            for v in checks.check_square(p, kind, DEPTH):
                violations.append((kind.value, name, v))
    _announce(3, "commuting squares", violations)


def test_criterion_4_causal_consistency(entries):
    violations = []
    for kind in ALL_KINDS:
        for name, p in entries:
            for v in checks.check_consistency(p, kind, maxlen=4):
                violations.append((kind.value, name, v))
    _announce(4, "causal consistency", violations)


def test_criterion_5_erasure_bisimulation(entries):
    violations = []
    for kind in ALL_KINDS:
        for name, p in entries:
            for v in checks.check_bisim(p, kind, DEPTH):
                violations.append((kind.value, name, v))
    _announce(5, "erasure bisimulation", violations)


def test_criterion_8_label_determinism(entries):
    violations = []
    for kind in ALL_KINDS:
        for name, p in entries:
            for v in oracles.check_determinism(p, kind, DEPTH):
                violations.append((kind.value, name, v))
    _announce(8, "label determinism", violations)


# --------------------------------------------------------------------------- #
# 6-7. correspondence with the reference causal semantics
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def correspondence_reports(entries):
    # one paired walk per term serves both criteria
    return [(name, correspondence.check_correspondence(p, DEPTH))
            for name, p in entries]


def test_criterion_6_structural_correspondence(correspondence_reports):
    violations = []
    saw_strict_multiset = False
    for name, (report, _) in correspondence_reports:
        for v in report.violations:
            violations.append((name, v))
        for c in report.checks:
            kf = c["kf"]
            if len(kf) != len(set(kf)) and c["kb"] == []:
                saw_strict_multiset = True
    if not saw_strict_multiset:
        violations.append(("corpus", "no strict-multiset ancestry exercised"))
    _announce(6, "structural correspondence", violations)


def test_criterion_7_causal_correspondence(correspondence_reports):
    violations = []
    for name, (_, report) in correspondence_reports:
        for v in report.violations:
            violations.append((name, v))
    _announce(7, "causal correspondence", violations)


# --------------------------------------------------------------------------- #
# 9. unit algebra and parser round trips
# --------------------------------------------------------------------------- #

def test_criterion_9_unit_algebra(entries):
    failures = []

    if MemoryKind.RPI.new().render() != "set{}":
        failures.append("plain init")
    if MemoryKind.BSC.new().render() != "iset{}@*":
        failures.append("indexed init")
    if MemoryKind.DCC.new().render() != "sset{}@{*}":
        failures.append("cause-set init")
    for kind in ALL_KINDS:
        if not kind.new().is_empty():
            failures.append("init not empty: %s" % kind.value)
        if kind.new().add(1).is_empty():
            failures.append("add left empty: %s" % kind.value)
        if 1 not in kind.new().add(1).gamma:
            failures.append("membership: %s" % kind.value)
    if MemoryKind.BSC.new().add(1).add(2).render() != "iset{1,2}@1":
        failures.append("index fixed by first extruder")
    if MemoryKind.DCC.new().add(1).render() != "sset{1}@{*,1}":
        failures.append("cause set accumulation")
    if 1 not in BscMemory(frozenset({1}), STAR).gamma:
        failures.append("membership ignores index")

    from revpi.memory import strip_key
    x = RRes("a", BscMemory(frozenset({1, 2}), 1), Nil())
    if strip_key(x, 1).mem.render() != "iset{1,2}@*":
        failures.append("index strip")
    y = RRes("a", DccMemory(frozenset({1, 2}), frozenset({STAR, 1, 2})), Nil())
    if strip_key(y, 1).mem.render() != "sset{1,2}@{*,2}":
        failures.append("cause-set strip")

    for name, p in entries:
        rendered = syntax.format(p)
        if syntax.format(parse(rendered)) != rendered:
            failures.append("round trip: %s" % name)

    _announce(9, "unit algebra and round trips", failures)
