"""Causality over keys, transitions, and traces.

Structural causality comes from prefix nesting (a key below another in
the history), object causality from contextual cause sets (an action
citing the key of the extrusion that made its subject visible).  Their
joint reflexive-transitive closure is the causal preorder; transitions
outside it are concurrent and may be permuted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memory, syntax
from .semantics import Transition, reverse_transition
from .syntax import STAR_SET, BoundOut, Direction, Label, PastOutput, PastPrefix, RProcess


@dataclass(frozen=True)
class Trace:
    """A sequence of composable transitions."""

    steps: tuple[Transition, ...]

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.target != b.source:
                raise ValueError("trace is not composable at %s / %s" % (a, b))

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> Transition:
        return self.steps[i]

    @property
    def source(self) -> RProcess:
        return self.steps[0].source

    @property
    def target(self) -> RProcess:
        return self.steps[-1].target


def trace_of(*steps: Transition) -> Trace:
    return Trace(tuple(steps))


def coinitial(s1: Trace, s2: Trace) -> bool:
    return len(s1) > 0 and len(s2) > 0 and s1.source == s2.source


def cofinal(s1: Trace, s2: Trace) -> bool:
    return s1.target == s2.target


# --------------------------------------------------------------------------- #
# Structural causality
# --------------------------------------------------------------------------- #

def structural_leq_keys(x: RProcess, i1: int, i2: int) -> bool:
    """Key order induced by the history: some past prefix keyed ``i2``
    sits below one keyed ``i1``."""
    return any(isinstance(node, PastPrefix) and node.key == i2
               and any(a.key == i1 for a in above)
               for node, _, above in syntax.history(x))


def _structural_base(tr: Trace, m: int, n: int) -> bool:
    if m >= n:
        return False
    tm, tn = tr[m], tr[n]
    if tm.dir is Direction.FORWARD and tn.dir is Direction.FORWARD:
        return structural_leq_keys(tn.target, tm.label.key, tn.label.key)
    if tm.dir is Direction.BACKWARD and tn.dir is Direction.BACKWARD:
        return structural_leq_keys(tm.source, tn.label.key, tm.label.key)
    return False


def stored_causes(t: Transition) -> frozenset:
    """Union of the cause sets written (or erased) by a transition.

    For a visible action this is the label's cause set; a silent action
    shows ``{*}`` in its label but its two history entries may cite the
    keys the crossing picked up, and those citations are causal.
    """
    out: frozenset = t.label.cause
    for rec in transition_records(t):
        out = out | rec[4]
    return out


def _memory_interlock(t_early: Transition, t_late: Transition,
                      state: RProcess) -> bool:
    """Order dependences induced by the memory bookkeeping itself, read
    off every restriction of ``state`` (see ``memory.interlocked``)."""
    early_subjects = {
        rec[1].name for rec in transition_records(t_early)
        if rec[4] != STAR_SET
    }
    return any(
        memory.interlocked(r.mem, t_early.label.key, t_late.label.key,
                           r.name in early_subjects)
        for r in syntax.restrictions(state))


def _object_base(tr: Trace, m: int, n: int) -> bool:
    if m >= n:
        return False
    tm, tn = tr[m], tr[n]
    if tm == reverse_transition(tn):
        return False
    if tm.dir is Direction.FORWARD and tn.dir is Direction.FORWARD:
        return (tm.label.key in stored_causes(tn)
                or _memory_interlock(tm, tn, tn.target))
    if tm.dir is Direction.BACKWARD and tn.dir is Direction.BACKWARD:
        return (tn.label.key in stored_causes(tm)
                or _memory_interlock(tn, tm, tm.source))
    # opposed directions: transitions touching the same prefix occurrence
    # (an undo and a re-execution of the freed prefix) are never
    # independent, whatever their keys; neither are an extrusion undo and
    # a fresh extrusion recorded by a first-extruder memory of one name
    if fired_positions(tm) & fired_positions(tn):
        return True
    return bool(_ordered_extrusion_names(tm) & _ordered_extrusion_names(tn))


def _ordered_extrusion_names(t: Transition) -> set[str]:
    """Names whose restriction records this transition's key in a memory
    that orders extrusions, read in the state where the key is present."""
    state = t.target if t.dir is Direction.FORWARD else t.source
    return {r.name for r in syntax.restrictions(state)
            if memory.orders_extrusions(r.mem, t.label.key)}


def _closure(tr, base) -> set[tuple[int, int]]:
    """Reflexive-transitive closure of ``base(tr, i, j)`` over the
    positions of a sequence of steps (Warshall's algorithm)."""
    n = len(tr)
    rel = {(i, j) for i in range(n) for j in range(n) if i == j or base(tr, i, j)}
    for k in range(n):
        for i in range(n):
            if (i, k) in rel:
                rel.update((i, j) for j in range(n) if (k, j) in rel)
    return rel


def structurally_caused(tr: Trace, m: int, n: int) -> bool:
    """Reflexive-transitive closure of the prefix-nesting order."""
    return (m, n) in _closure(tr, _structural_base)


def object_caused(tr: Trace, m: int, n: int) -> bool:
    """Reflexive-transitive closure of contextual-cause citation."""
    return (m, n) in _closure(tr, _object_base)


def causal_preorder(tr: Trace) -> set[tuple[int, int]]:
    """The full causal preorder on trace positions."""
    return _closure(tr, lambda t, i, j: _structural_base(t, i, j) or _object_base(t, i, j))


def causally_precedes(tr: Trace, m: int, n: int) -> bool:
    return (m, n) in causal_preorder(tr)


def concurrent(tr: Trace, m: int, n: int) -> bool:
    pre = causal_preorder(tr)
    return (m, n) not in pre and (n, m) not in pre


def concurrent_pair(t1: Transition, t2: Transition) -> bool:
    """Concurrency of two composable transitions, judged in isolation.

    On two positions the causal preorder is the reflexive closure of the
    base relations, and neither base relates the second to the first.
    """
    tr = Trace((t1, t2))
    return not (_structural_base(tr, 0, 1) or _object_base(tr, 0, 1))


# --------------------------------------------------------------------------- #
# Label and prefix equivalence
# --------------------------------------------------------------------------- #

def label_shape(label: Label) -> tuple:
    """A label up to the memory payload of bound outputs: key, cause set,
    instantiator and action, a bound output cut down to its channel and
    datum."""
    act = label.act
    if isinstance(act, BoundOut):
        act = ("boundout", act.chan, act.datum)
    return (label.key, label.cause, label.inst, act)


def label_equiv(l1: Label, l2: Label) -> bool:
    """Equality of labels up to the memory payload of bound outputs."""
    return label_shape(l1) == label_shape(l2)


def _touched(t: Transition) -> list[tuple]:
    """The history entries ``(node, path, above)`` of the prefixes a
    transition writes (forward) or erases (backward); a communication
    touches one on each side."""
    term = t.target if t.dir is Direction.FORWARD else t.source
    return [entry for entry in syntax.history(term)
            if isinstance(entry[0], PastPrefix) and entry[0].key == t.label.key]


def transition_records(t: Transition) -> frozenset:
    """The history entries a transition writes (forward) or erases
    (backward), wherever they sit."""
    return frozenset(
        ("out", pref.chan, pref.datum, pref.key, pref.cause)
        if isinstance(pref, PastOutput)
        else ("in", pref.chan, pref.binder, pref.key, pref.cause)
        for pref, _, _ in _touched(t))


def prefix_equiv(t1: Transition, t2: Transition) -> bool:
    """Transitions writing (or erasing) identical history entries,
    wherever those entries sit."""
    if t1.dir is not t2.dir:
        return False
    return transition_records(t1) == transition_records(t2)


def fired_positions(t: Transition) -> frozenset:
    """Positions of the prefixes a transition touches, stated in terms
    of parallel/continuation structure only (restriction wrappers come
    and go with closes, so they do not count)."""
    return frozenset(tuple(s for s in path if s != "body")
                     for _, path, _ in _touched(t))


# --------------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------------- #

def causality_dot(tr: Trace) -> str:
    """DOT digraph of the base causal relations of a trace: solid edges
    for structural causes, dashed for object causes."""
    lines = ["digraph causality {"]
    for i, t in enumerate(tr.steps):
        tag = "+" if t.dir is Direction.FORWARD else "-"
        lines.append('  n%d [label="%d%s %s"];' % (i, i, tag, syntax.format(t.label)))
    n = len(tr)
    for i in range(n):
        for j in range(n):
            if i != j and _structural_base(tr, i, j):
                lines.append("  n%d -> n%d [style=solid];" % (i, j))
            if i != j and _object_base(tr, i, j):
                lines.append("  n%d -> n%d [style=dashed];" % (i, j))
    lines.append("}")
    return "\n".join(lines)
