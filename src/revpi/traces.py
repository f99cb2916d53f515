"""Trace algebra: residual squares, cancellation, rewrite closures, JSON.

Two coinitial traces are equivalent when one rewrites into the other by
swapping adjacent concurrent steps and cancelling adjacent inverse
pairs.  ``_closure_sets`` grows the rewrite closure of a trace under a
budget; ``checks.check_consistency`` decides equivalence within each
endpoint class by looking for a meeting point of the closures.  The
serialisers write transitions and traces in the JSON schema the CLI
prints.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING

from . import syntax
from .causality import Trace, label_equiv, label_shape
from .semantics import Transition, reverse_transition
from .syntax import STAR, BoundOut, Direction, FreeOut, InAct, RProcess

if TYPE_CHECKING:
    from .engine import Engine


class NotConcurrentError(ValueError):
    pass


class NotInverseError(ValueError):
    pass


class SquareNotFoundError(RuntimeError):
    """No commuting square exists where one is guaranteed: an engine bug."""


def _enumerate(x: RProcess, direction: Direction, key: int,
               engine: Engine) -> tuple[Transition, ...]:
    if direction is Direction.FORWARD:
        return engine.forward(x, key)
    return engine.backward(x)


def residual_swap(tr: Trace, at: int, engine: Engine) -> Trace:
    """Commute the concurrent steps at positions ``at`` and ``at + 1``.

    The commuted pair is rebuilt from the transitions of the common
    source, enumerated by the run's ``engine``; labels survive up to the
    memory payload of bound outputs, keys exactly.  This is the uncached
    primitive: ``engine.residual_swap`` remembers its pairs.
    """
    t1, t2 = tr[at], tr[at + 1]
    if t1.label.key == t2.label.key:
        raise NotConcurrentError(
            "steps %d and %d share a key: cancellation, not a square" % (at, at + 1))
    if not engine.concurrent(t1, t2):
        raise NotConcurrentError("steps %d and %d are causally related" % (at, at + 1))
    source = t1.source
    first = [t for t in _enumerate(source, t2.dir, t2.label.key, engine)
             if t.label.key == t2.label.key and label_equiv(t.label, t2.label)]
    if not first:
        raise SquareNotFoundError("no residual for %s from %s" % (t2, syntax.format(source)))
    for cand in first:
        closing = [t for t in _enumerate(cand.target, t1.dir, t1.label.key, engine)
                   if t.label.key == t1.label.key and label_equiv(t.label, t1.label)
                   and t.target == t2.target]
        if closing:
            steps = (tr.steps[:at] + (cand, closing[0]) + tr.steps[at + 2:])
            return Trace(steps)
    raise SquareNotFoundError("square does not close for steps %d/%d" % (at, at + 1))


def cancel_inverse(tr: Trace, at: int) -> Trace:
    """Delete the adjacent inverse pair at ``at`` and ``at + 1``."""
    t1, t2 = tr[at], tr[at + 1]
    if t2 != reverse_transition(t1):
        raise NotInverseError("steps %d and %d are not mutually inverse" % (at, at + 1))
    return Trace(tr.steps[:at] + tr.steps[at + 2:])


def _rewrite_neighbours(tr: Trace, engine: Engine) -> list[Trace]:
    out = []
    for at in range(len(tr) - 1):
        t1, t2 = tr[at], tr[at + 1]
        if t2 == reverse_transition(t1):
            out.append(cancel_inverse(tr, at))
        if t1.label.key != t2.label.key and engine.concurrent(t1, t2):
            out.append(engine.residual_swap(tr, at))
    return out


def _canon(tr: Trace):
    # stepwise label comparison ignores bound-output memories; the final
    # state pins everything else down.  A fully cancelled trace is just
    # its (shared, coinitial) source, so no endpoint is needed.
    if not tr.steps:
        return ((), None)
    return (tuple((t.dir, label_shape(t.label)) for t in tr.steps), tr.target)


def _closure_sets(tr: Trace, budget: int, engine: Engine):
    """Canonical keys of every trace reachable by at most ``budget``
    rewrites; also reports whether the closure saturated."""
    start = _canon(tr)
    seen = {start}
    frontier = deque([(tr, 0)])
    saturated = True
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= budget:
            saturated = False
            continue
        for nxt in _rewrite_neighbours(cur, engine):
            key = _canon(nxt)
            if key not in seen:
                seen.add(key)
                frontier.append((nxt, depth + 1))
    return seen, saturated


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #

def _json_key(k) -> object:
    return "*" if k is STAR else k


def _act_fields(act) -> tuple[tuple[str, str], ...]:
    if isinstance(act, FreeOut):
        return (("kind", "out"), ("chan", act.chan), ("datum", act.datum))
    if isinstance(act, InAct):
        return (("kind", "in"), ("chan", act.chan), ("datum", act.binder))
    if isinstance(act, BoundOut):
        return (("kind", "boundout"), ("chan", act.chan), ("datum", act.datum),
                ("mem", act.mem.render()))
    return (("kind", "tau"),)


def transition_fields(t: Transition, ends: tuple[int, int] | None = None) -> tuple:
    """The JSON record of a transition as ``(field, value)`` pairs in
    output order; the value of ``act`` is such pairs too.

    With ``ends`` the record is an edge of an exported transition system:
    it starts with the numbers of its two states and carries the rendered
    label after the direction.  ``transition_json`` and the ``enumerate``
    JSON writer both read this one definition.
    """
    label = t.label
    rest = (("key", label.key),
            ("cause", [_json_key(k) for k in sorted(label.cause, key=syntax.key_sort)]),
            ("inst", _json_key(label.inst)),
            ("act", _act_fields(label.act)),
            ("state", syntax.format(t.target)))
    if ends is None:
        return (("dir", t.dir.value),) + rest
    return (("from", ends[0]), ("to", ends[1]), ("dir", t.dir.value),
            ("label", syntax.format(label))) + rest


def transition_json(t: Transition) -> dict:
    return {field: dict(value) if field == "act" else value
            for field, value in transition_fields(t)}


def trace_json(tr: Trace) -> list[dict]:
    return [transition_json(t) for t in tr.steps]


def trace_json_str(tr: Trace) -> str:
    return json.dumps(trace_json(tr), indent=2)
