"""Causality over keys, transitions, and traces.

The causal preorder on the steps of a trace is the reflexive-transitive
closure of two base relations, which ``_depends`` judges on a pair of
steps: structural (prefix nesting) and object (cause citation and memory
bookkeeping).  Steps outside the preorder are concurrent and may be
permuted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memory, syntax
from .semantics import Transition, reverse_transition
from .syntax import STAR_SET, BoundOut, Direction, Label, RProcess, RRes


@dataclass(frozen=True)
class Trace:
    """A sequence of composable transitions."""

    steps: tuple[Transition, ...]

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            _require_composable(a, b)

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


def _require_composable(a: Transition, b: Transition) -> None:
    if a.target != b.source:
        raise ValueError("trace is not composable at %s / %s" % (a, b))


# --------------------------------------------------------------------------- #
# Dependence between two steps
# --------------------------------------------------------------------------- #

def _footprints(x: RProcess, *keys: int) -> list[tuple[list, list]]:
    """One walk of the history of ``x``, split by key: for each key, the
    entries ``(node, path, above)`` of the prefixes carrying it, one on
    each side for a communication, and the restrictions of ``x``."""
    touched: dict[int, list] = {k: [] for k in keys}
    res = []
    for entry in syntax.history(x):
        if isinstance(entry[0], RRes):
            res.append(entry[0])
        elif entry[0].key in touched:
            touched[entry[0].key].append(entry)
    return [(touched[k], res) for k in keys]


def _footprint(t: Transition) -> tuple[list, list]:
    """The footprint of a step in the state that holds its key: the
    target of a forward step, the source of a backward one."""
    return _footprints(t.target if t.dir is Direction.FORWARD else t.source,
                       t.label.key)[0]


def _positions(touched: list) -> frozenset:
    return frozenset(tuple(s for s in path if s != "body") for _, path, _ in touched)


def _depends(tm: Transition, fm: tuple, tn: Transition, fn: tuple) -> tuple[bool, bool]:
    """The base relations ``(structural, object)`` from step ``tm`` to a
    later step ``tn`` of a trace, given their footprints.

    Of a forward pair ``tm`` is the causally earlier step, of a backward
    pair ``tn``.  The later one depends on it structurally when one of
    its prefixes sits below the earlier key, and by object when its label
    or its history entries cite that key (a silent label shows ``{*}``)
    or a memory interlocks the two.  An opposed pair depends by object
    when both steps touch one prefix occurrence or extrude one name into
    a first-extruder memory, unless one step undoes the other.
    """
    if tm.dir is not tn.dir:
        if tm == reverse_transition(tn):
            return False, False
        ordered = [{r.name for r in res if memory.orders_extrusions(r.mem, t.label.key)}
                   for t, (_, res) in ((tm, fm), (tn, fn))]
        return False, bool(_positions(fm[0]) & _positions(fn[0])
                           or ordered[0] & ordered[1])
    pair = [(tm, fm), (tn, fn)] if tm.dir is Direction.FORWARD else [(tn, fn), (tm, fm)]
    (early, (early_touched, _)), (late, (late_touched, late_res)) = pair
    key = early.label.key
    structural = any(a.key == key for _, _, above in late_touched for a in above)
    refined = {pref.chan.name for pref, _, _ in early_touched if pref.cause != STAR_SET}
    return structural, (
        key in late.label.cause
        or any(key in pref.cause for pref, _, _ in late_touched)
        or any(memory.interlocked(r.mem, key, late.label.key, r.name in refined)
               for r in late_res))


def _base_relations(tr: Trace) -> dict[tuple[int, int], tuple[bool, bool]]:
    # every pair of positions m < n, from one footprint per step
    fps = [_footprint(t) for t in tr.steps]
    return {(m, n): _depends(tr[m], fps[m], tr[n], fps[n])
            for m in range(len(tr)) for n in range(m + 1, len(tr))}


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


def causal_preorder(tr: Trace) -> set[tuple[int, int]]:
    """The causal preorder on trace positions: the closure of the union
    of the two base relations."""
    base = _base_relations(tr)
    return _closure(tr, lambda _, i, j: i < j and any(base[i, j]))


def concurrent_pair(t1: Transition, t2: Transition) -> bool:
    """Concurrency of two composable transitions, judged in isolation.

    On two positions the causal preorder is the reflexive closure of the
    base relations, and neither base relates the second to the first.
    """
    _require_composable(t1, t2)
    if t1.dir is Direction.FORWARD and t2.dir is Direction.BACKWARD:
        # the state between the steps holds both keys: walk it once
        f1, f2 = _footprints(t2.source, t1.label.key, t2.label.key)
    else:
        f1, f2 = _footprint(t1), _footprint(t2)
    return not any(_depends(t1, f1, t2, f2))


# --------------------------------------------------------------------------- #
# Label equivalence
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
    for (i, j), (structural, obj) in _base_relations(tr).items():
        if structural:
            lines.append("  n%d -> n%d [style=solid];" % (i, j))
        if obj:
            lines.append("  n%d -> n%d [style=dashed];" % (i, j))
    lines.append("}")
    return "\n".join(lines)
