"""Causality over keys, transitions, and traces.

The causal preorder on the steps of a trace is the reflexive-transitive
closure of two base relations on a pair of steps: structural (prefix
nesting) and object (cause citation and memory bookkeeping).  Only their
union enters the preorder, so ``_depends`` returns the union, judging
the structural relation first and stopping at the first that holds; the
pair of the two, which ``causality_dot`` draws, is ``_base_relations``.
Steps outside the preorder are concurrent and may be permuted.

The closure is taken one step at a time, in trace order: a new step's
row of the order is what ``causal_row`` makes of the earlier steps it
depends on directly.  ``causal_preorder`` folds that rule over a whole
trace; ``traces.extend`` and the correspondence walk extend a prefix's
rows by one step, so no order is ever closed twice.

Both relations read a step's footprint off the history of the state
that holds its key.  That history is walked once, split by key, and kept
on the state (``history_by_key``); a run holds one instance per state, so
each state's history is walked at most once per run, whatever pairs,
traces and the structural causes of the correspondence ask about it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax
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

@syntax.kept_on_node("_footprints")
def history_by_key(x: RProcess) -> tuple[dict, list]:
    """One walk of the history of ``x``, split by key: for each key, the
    entries of the prefixes carrying it, one on each side for a
    communication; and the ``(name, memory)`` of each restriction of ``x``.

    Kept on ``x``, so it holds what ``_depends`` and
    ``correspondence.rem`` read and no node: an entry is ``(cause,
    channel name, path, keys above)``, the cause set, the name of the
    channel and the path of the prefix, and the keys of the past prefixes
    above it.  A node would be ``x`` itself where ``x`` is a past prefix
    or a restriction, and a state that holds itself waits for the cycle
    collector to go."""
    touched: dict[int, list] = {}
    res = []
    for node, path, above in syntax.history(x):
        if isinstance(node, RRes):
            res.append((node.name, node.mem))
        else:
            touched.setdefault(node.key, []).append(
                (node.cause, node.chan.name, path, tuple([a.key for a in above])))
    return touched, res


def _footprint(t: Transition) -> tuple[list, list]:
    """The footprint of a step in the state that holds its key (the
    target of a forward step, the source of a backward one): the history
    entries of its key and the restrictions of that state."""
    touched, res = history_by_key(t.target if t.dir is Direction.FORWARD else t.source)
    return touched.get(t.label.key, []), res


def _positions(touched: list) -> frozenset:
    return frozenset(tuple(s for s in path if s != "body") for _, _, path, _ in touched)


def _structural(tm: Transition, fm: tuple, tn: Transition, fn: tuple) -> bool:
    """The structural base relation from step ``tm`` to a later step
    ``tn``, given their footprints: of a pair in one direction, the later
    one (``tn`` of a forward pair, ``tm`` of a backward one) has a prefix
    below the earlier one's key.  An opposed pair is never related so."""
    if tm.dir is not tn.dir:
        return False
    early, late_touched = (tm, fn[0]) if tm.dir is Direction.FORWARD else (tn, fm[0])
    key = early.label.key
    return any(key in above for _, _, _, above in late_touched)


def _object(tm: Transition, fm: tuple, tn: Transition, fn: tuple) -> bool:
    """The object base relation from step ``tm`` to a later step ``tn``,
    given their footprints.

    Of a pair in one direction, the later step depends on the earlier one
    when its label or its history entries cite the earlier key (a silent
    label shows ``{*}``) or a memory interlocks the two.  An opposed pair
    depends when both steps touch one prefix occurrence or extrude one
    name into a memory that orders its extrusions, unless one step undoes
    the other.
    """
    if tm.dir is not tn.dir:
        if tm == reverse_transition(tn):
            return False
        ordered = [{name for name, mem in res if mem.orders_extrusions(t.label.key)}
                   for t, (_, res) in ((tm, fm), (tn, fn))]
        return bool(_positions(fm[0]) & _positions(fn[0]) or ordered[0] & ordered[1])
    pair = [(tm, fm), (tn, fn)] if tm.dir is Direction.FORWARD else [(tn, fn), (tm, fm)]
    (early, (early_touched, _)), (late, (late_touched, late_res)) = pair
    key = early.label.key
    refined = {chan for cause, chan, _, _ in early_touched if cause != STAR_SET}
    return (key in late.label.cause
            or any(key in cause for cause, _, _, _ in late_touched)
            or any(mem.interlocked(key, late.label.key, name in refined)
                   for name, mem in late_res))


def _depends(tm: Transition, fm: tuple, tn: Transition, fn: tuple) -> bool:
    """Whether the later step ``tn`` of a trace depends directly on the
    earlier step ``tm``, given their footprints: the union of the two base
    relations, judged structural first and stopping at the first that
    holds.  Of a forward pair ``tm`` is the causally earlier step, of a
    backward pair ``tn``."""
    return _structural(tm, fm, tn, fn) or _object(tm, fm, tn, fn)


def _base_relations(tr: Trace) -> dict[tuple[int, int], tuple[bool, bool]]:
    # every pair of positions m < n, from one footprint per step
    fps = [_footprint(t) for t in tr.steps]
    return {(m, n): (_structural(tr[m], fps[m], tr[n], fps[n]),
                     _object(tr[m], fps[m], tr[n], fps[n]))
            for m in range(len(tr)) for n in range(m + 1, len(tr))}


def causal_row(direct) -> int:
    """The row of a new step of a causal order, one bit per earlier
    step, at a position no other step holds (its place in the trace, or
    its key in ``traces.extend``): the union, over the ``(position,
    row)`` of each earlier step it depends on directly, of that
    position's bit and that row.
    Rows built in trace order are closed: an earlier row already holds
    every step the earlier one follows."""
    row = 0
    for at, earlier in direct:
        row |= 1 << at | earlier
    return row


def causal_preorder(tr: Trace) -> set[tuple[int, int]]:
    """The causal preorder on trace positions: the reflexive-transitive
    closure of the union of the two base relations, one row per step."""
    base = _base_relations(tr)
    rows: list[int] = []
    for n in range(len(tr)):
        rows.append(causal_row((m, rows[m]) for m in range(n) if any(base[m, n])))
    return {(m, n) for n, row in enumerate(rows) for m in range(n + 1)
            if m == n or row >> m & 1}


def concurrent_pair(t1: Transition, t2: Transition) -> bool:
    """Concurrency of two composable transitions, judged in isolation.

    On two positions the causal preorder is the reflexive closure of the
    base relations, and neither base relates the second to the first.
    """
    _require_composable(t1, t2)
    return not _depends(t1, _footprint(t1), t2, _footprint(t2))


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
