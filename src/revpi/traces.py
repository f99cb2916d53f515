"""Trace algebra: residuals, permutation equivalence, normalization.

Two coinitial traces are equivalent when one rewrites into the other by
swapping adjacent concurrent steps and cancelling adjacent inverse
pairs.  Equivalence is decided by growing the rewrite closures of both
traces and checking for a meeting point; endpoints decide negatives
immediately (causal consistency: coinitial traces are cofinal exactly
when they are equivalent).
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING

from . import causality, syntax
from .causality import Trace, label_equiv
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


class EquivalenceBudgetError(RuntimeError):
    """The rewrite search ran out of budget before reaching a verdict."""


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


def _canon_step(t: Transition):
    act = t.label.act
    if isinstance(act, BoundOut):
        shape = ("boundout", act.chan, act.datum)
    elif isinstance(act, FreeOut):
        shape = ("out", act.chan, act.datum)
    elif isinstance(act, InAct):
        shape = ("in", act.chan, act.binder)
    else:
        shape = ("tau",)
    return (t.dir.value, t.label.key,
            tuple(sorted(t.label.cause, key=syntax.key_sort)),
            t.label.inst, shape)


def _canon(tr: Trace):
    # stepwise label comparison ignores bound-output memories; the final
    # state pins everything else down.  A fully cancelled trace is just
    # its (shared, coinitial) source, so no endpoint is needed.
    if not tr.steps:
        return ((), None)
    return (tuple(_canon_step(t) for t in tr.steps), tr.target)


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


def equivalent_up_to_permutation(s1: Trace, s2: Trace, engine: Engine,
                                 budget: int | None = None) -> bool:
    """Decide equivalence of two coinitial traces under a rewrite budget.

    Differing endpoints are a definite negative.  Matching endpoints with
    an exhausted budget raise ``EquivalenceBudgetError`` rather than
    produce a verdict.
    """
    if not causality.coinitial(s1, s2):
        raise ValueError("traces are not coinitial")
    if budget is None:
        budget = 4 * (len(s1) + len(s2))
    if s1.target != s2.target:
        return False
    c1, sat1 = _closure_sets(s1, budget, engine)
    c2, sat2 = _closure_sets(s2, budget, engine)
    if c1 & c2:
        return True
    if sat1 and sat2:
        return False
    raise EquivalenceBudgetError(
        "no verdict within %d rewrites (traces of length %d and %d)"
        % (budget, len(s1), len(s2)))


def normalize_parabolic(s: Trace, engine: Engine) -> Trace:
    """Rewrite a trace into backward-steps-then-forward-steps shape.

    Forward-then-backward adjacencies either cancel (same key: the pair
    is mutually inverse) or commute (different keys: consecutive opposed
    steps are never causally related).
    """
    if len(s) == 0:
        return s
    limit = 4 * (len(s) + 1) ** 2 + 16
    cur = s
    for _ in range(limit):
        pivot = None
        for at in range(len(cur) - 1):
            if (cur[at].dir is Direction.FORWARD
                    and cur[at + 1].dir is Direction.BACKWARD):
                pivot = at
                break
        if pivot is None:
            return cur
        t1, t2 = cur[pivot], cur[pivot + 1]
        if t1.label.key == t2.label.key:
            cur = cancel_inverse(cur, pivot)
        else:
            cur = engine.residual_swap(cur, pivot)
    raise RuntimeError("parabolic normalization did not terminate")


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #

def _json_key(k) -> object:
    return "*" if k is STAR else k


def _act_json(act) -> dict:
    if isinstance(act, FreeOut):
        return {"kind": "out", "chan": act.chan, "datum": act.datum}
    if isinstance(act, InAct):
        return {"kind": "in", "chan": act.chan, "datum": act.binder}
    if isinstance(act, BoundOut):
        return {"kind": "boundout", "chan": act.chan, "datum": act.datum,
                "mem": act.mem.render()}
    return {"kind": "tau"}


def transition_json(t: Transition) -> dict:
    return {
        "dir": t.dir.value,
        "key": t.label.key,
        "cause": [_json_key(k) for k in sorted(t.label.cause, key=syntax.key_sort)],
        "inst": _json_key(t.label.inst),
        "act": _act_json(t.label.act),
        "state": syntax.format(t.target),
    }


def trace_json(tr: Trace) -> list[dict]:
    return [transition_json(t) for t in tr.steps]


def trace_json_str(tr: Trace, indent: int | None = 2) -> str:
    return json.dumps(trace_json(tr), indent=indent)
