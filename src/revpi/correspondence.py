"""The structural causes of a step, and the walk that pairs the engine
with the reference semantics.

In the paper the structural causes of a key are the vertices of the
history graph (one per executed prefix, the two halves of a
communication linked both ways) that reach an occurrence of the key;
contracting each communication's twins leaves the cause set of the
reference semantics.  Twins share a key, so ``rem`` reads the same
multiset off the table ``causality.history_by_key`` keeps on the state;
the graph is the reference it is tested against (``tests/oracles.py``).

The engine's causal order on a paired run is ``traces.extend``'s, the
fold the normal forms of the consistency check take; the walk holds it
to the order the reference labels give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import bs as bsmod
from . import causality, syntax, traces
from .bs import BsLabel, bs_transitions, gamma
from .engine import Engine
from .memory import MemoryKind
from .semantics import Transition
# not called here any more (the engine calls it through ``semantics``), but
# perfbench's tracer test still looks the name up on this module
from .semantics import forward_transitions  # noqa: F401
from .syntax import CausalProcess, Process, RProcess, Tau


class KeyNotInHistoryError(KeyError):
    pass


def rem(x: RProcess, key: int) -> tuple[tuple, frozenset]:
    """Structural-cause multiset of ``key`` in the history of ``x``, and
    the cause set left after contracting communication pairs: the keys
    reached from ``key`` by going up from each occurrence of a key to the
    keys above it, and of those the ones that occur once."""
    touched, _ = causality.history_by_key(x)
    if key not in touched:
        raise KeyNotInHistoryError("key %d is not in the history of %s"
                                   % (key, syntax.format(x)))
    reached, todo = {key}, [key]
    while todo:
        for *_, above in touched[todo.pop()]:
            new = set(above) - reached
            reached |= new
            todo += new
    reached.discard(key)
    kf = tuple(sorted(k for k in reached for _ in touched[k]))
    kb = frozenset(k for k in reached if len(touched[k]) == 1)
    return kf, kb


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #

@dataclass
class Report:
    """What one walk reports: process, depth bound, checks made, violations found."""

    process: str
    depth: int
    checks: list = field(default_factory=list)
    violations: list = field(default_factory=list)


def _bs_label_str(z: BsLabel) -> str:
    # the action as ``syntax.format`` writes an engine label's
    act = z.act
    if isinstance(act, Tau):
        return "tau"
    causes = ",".join(str(k) for k in sorted(z.causes))
    return "%d:%s/{%s}" % (z.key, syntax._fmt_act(act), causes)


def _match(t: Transition, z: BsLabel, a2: CausalProcess) -> bool:
    return gamma(t.label) == (z.key, z.act) and syntax.erase(t.target) == syntax.erase(a2)


def _bsc_engine(engine: Engine | None) -> Engine:
    # the walk runs the engine with first-extruder memories
    if engine is None:
        return Engine(MemoryKind.BSC)
    if engine.kind is not MemoryKind.BSC:
        raise ValueError("correspondence runs under bsc, not %s" % engine.kind.value)
    return engine


# --------------------------------------------------------------------------- #
# The paired walk
# --------------------------------------------------------------------------- #

def check_correspondence(p: Process, depth: int,
                         engine: Engine | None = None) -> tuple[Report, Report]:
    """Walk the engine (first-extruder memories) and the reference
    semantics side by side; return the structural and the causal report.

    Structural: at every paired step the erasures must agree, the labels
    must match under the label mapping, and the contracted
    structural-cause multiset must equal the reference cause set.  This
    is judged on the first visit of each pair (engine state, causal
    term): every forward step spends one key, so a pair is reached at
    one depth only and its subtree is the same on every visit.

    Causal: on every paired forward run, the engine's causal preorder
    must agree with the reference one, restricted to the visible steps
    (silent steps do not exist as causality carriers in the reference
    semantics).  A run is its prefix and one step more, and so are both
    orders, each a row per step, one bit per key: the engine's is that of
    ``traces.extend``, whose survivors the walk carries; in the
    reference, a new step's row (``causality.causal_row``) follows each
    earlier step whose key its label cites or whose introduced name
    (``bs.introduced``) it mentions.

    ``engine``, of kind ``bsc``, may be shared with other checks of the
    term; by default the walk starts its own.
    """
    engine = _bsc_engine(engine)
    structural = Report(syntax.format(p), depth)
    causal = Report(syntax.format(p), depth)
    x0 = engine.initial(p)
    a0 = syntax.strip_insts(p)
    erasures_agree = syntax.erase(x0) == syntax.erase(a0)
    if not erasures_agree:
        structural.violations.append({"at": "initial", "reason": "erasures differ"})
    walk = _Walk(engine, depth, structural, causal, erasures_agree)
    _explore(walk, x0, a0, (), (), [], 0)
    return structural, causal


@dataclass
class _Walk:
    """What one paired walk shares: its engine, bound and reports, whether
    the structural report judges (the initial erasures agree), and each
    pair (engine state, causal term) met so far, with each engine step
    and the reference steps it matches."""

    engine: Engine
    depth: int
    structural: Report
    causal: Report
    judge: bool
    paired: dict[tuple[RProcess, CausalProcess], list] = field(default_factory=dict)


class _Paired(NamedTuple):
    """The reference half of one step of a paired run: its label, the
    name it introduces, if any, and its row of the reference order, one
    bit per key, as ``traces.extend`` keys the engine's."""

    label: BsLabel
    fresh: str | None
    ref_row: int


def _explore(w: _Walk, x: RProcess, a: CausalProcess, alive: tuple, run: tuple[_Paired, ...],
             path: list[str], d: int) -> None:
    # ``alive``: the survivors of ``traces.extend`` for the engine half of
    # ``run``, one per step.  Module-level, as ``syntax._history``: a
    # nested recursion's cycle would hold ``paired``, and so every state
    # of the walk, until the cycle collector ran
    if run:
        _compare(w.causal, alive, run, path)
    if d >= w.depth:
        return
    steps = w.paired.get((x, a))
    judge = steps is None and w.judge
    if steps is None:
        refsteps = bs_transitions(a, used=frozenset(syntax.keys(x)))
        steps = w.paired[(x, a)] = [
            (t, [(z, a2) for z, a2 in refsteps if _match(t, z, a2)])
            for t in w.engine.forward(x)]
        if judge:
            matched = {pair for _, matches in steps for pair in matches}
            for z, a2 in refsteps:
                if (z, a2) not in matched:
                    w.structural.violations.append({
                        "at": " . ".join(path) or "start",
                        "reason": "reference step has no engine counterpart",
                        "label": _bs_label_str(z),
                    })
    for t, matches in steps:
        label = syntax.format(t.label)
        if judge and not matches:
            w.structural.violations.append({
                "at": " . ".join(path) or "start",
                "reason": "engine step has no reference counterpart",
                "label": label,
            })
        if not matches:
            continue
        grown = traces.extend(alive, t)
        for z, a2 in matches:
            here = path + [label]
            if judge:
                _judge_causes(w.structural, t, z, here)
            mentioned = bsmod._label_names(z.act)
            # a silent step has no key here, and never enters a row: no
            # label cites it, and it introduces no name
            ref_row = causality.causal_row(
                (e.label.key, e.ref_row) for e in run
                if e.label.key in z.causes or e.fresh in mentioned)
            step = _Paired(z, bsmod.introduced(z.act), ref_row)
            _explore(w, t.target, a2, grown, run + (step,), here, d + 1)


def _compare(causal: Report, alive: tuple, run: tuple[_Paired, ...], path: list[str]) -> None:
    # the engine's and the reference order on the visible steps of a run,
    # each step's row read at the key of each visible step: a row holds
    # only earlier steps, so only pairs m < k of positions can differ
    visible = [(i, e.label.key) for i, e in enumerate(run) if not isinstance(e.label.act, Tau)]
    mism = [{"pair": [m, k],
             "engine": bool(alive[k].follows >> key & 1),
             "reference": bool(run[k].ref_row >> key & 1)}
            for m, key in visible for k, _ in visible
            if (alive[k].follows ^ run[k].ref_row) >> key & 1]
    causal.checks.append({"trace": path, "visible": len(visible)})
    if mism:
        causal.violations.append({"trace": path, "mismatches": mism})


def _judge_causes(structural: Report, t: Transition, z: BsLabel, path: list[str]) -> None:
    # the contracted structural causes of a paired step against the
    # reference step's cause set
    kf, kb = rem(t.target, t.label.key)
    entry = {"label": path[-1], "kf": list(kf), "kb": sorted(kb)}
    if not isinstance(z.act, Tau):
        entry["reference_causes"] = sorted(z.causes)
        if kb != z.causes:
            structural.violations.append({
                "at": " . ".join(path),
                "reason": "contracted causes disagree",
                "kf": list(kf),
                "kb": sorted(kb),
                "reference": sorted(z.causes),
            })
    structural.checks.append(entry)


def check_structural_correspondence(p: Process, depth: int,
                                    engine: Engine | None = None) -> Report:
    """The structural report of ``check_correspondence``."""
    return check_correspondence(p, depth, engine)[0]


def check_causal_correspondence(p: Process, depth: int,
                                engine: Engine | None = None) -> Report:
    """The causal report of ``check_correspondence``."""
    return check_correspondence(p, depth, engine)[1]
