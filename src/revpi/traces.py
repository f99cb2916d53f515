"""Trace algebra: residual squares, cancellation, normal forms, JSON.

Two coinitial traces are equivalent when one rewrites into the other by
swapping adjacent concurrent steps and cancelling adjacent inverse
pairs.  ``checks.check_consistency`` compares one normal form per trace,
a ``NormalForm`` value folded step by step: each trace's value is its
prefix's extended by the last step, so the check pays per step and not
per trace.  The rewrite closure ``_closure_sets``, searched breadth
first, is the reference its tests hold it to, and the form computed
from the whole trace at once is kept with the test oracles.
``residual_swap`` and ``cancel_inverse`` are the two rewrites, each
validated.  The serialisers write transitions and traces in the JSON
schema the CLI prints; ``json_text`` writes what ``json.dumps(...,
indent=2)`` does for them and for the CLI's reports, without leaving a
reference cycle.
"""

from __future__ import annotations

import json
from collections import deque
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from . import causality, syntax
from .causality import Trace, label_equiv, label_shape
from .semantics import Transition, reverse_transition
from .syntax import STAR, BoundOut, Direction, FreeOut, InAct, Label, RProcess

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


def residual_swap(t1: Transition, t2: Transition,
                  engine: Engine) -> tuple[Transition, Transition]:
    """Commute the concurrent composable steps ``t1`` and ``t2``.

    The commuted pair is rebuilt from the transitions of the common
    source, enumerated by the run's ``engine``; labels survive up to the
    memory payload of bound outputs, keys exactly.
    """
    if t1.label.key == t2.label.key:
        raise NotConcurrentError("steps 0 and 1 share a key: cancellation, not a square")
    if not engine.concurrent(t1, t2):
        raise NotConcurrentError("steps 0 and 1 are causally related")
    source = t1.source
    first = [t for t in _enumerate(source, t2.dir, t2.label.key, engine)
             if t.label.key == t2.label.key and label_equiv(t.label, t2.label)]
    if not first:
        raise SquareNotFoundError("no residual for %s from %s" % (t2, syntax.format(source)))
    for cand in first:
        for t in _enumerate(cand.target, t1.dir, t1.label.key, engine):
            if (t.label.key == t1.label.key and label_equiv(t.label, t1.label)
                    and t.target == t2.target):
                return cand, t
    raise SquareNotFoundError("square does not close for steps 0/1")


def cancel_inverse(tr: Trace, at: int) -> Trace:
    """Delete the adjacent inverse pair at ``at`` and ``at + 1``."""
    t1, t2 = tr[at], tr[at + 1]
    if t2 != reverse_transition(t1):
        raise NotInverseError("steps %d and %d are not mutually inverse" % (at, at + 1))
    return Trace(tr.steps[:at] + tr.steps[at + 2:])


class _Survivor(NamedTuple):
    """A surviving do step of a ``NormalForm``: its position on the
    stack, label shape, transition and footprint; ``follows``, the
    earlier survivors it causally follows, one bit per position; and
    ``order``, its row of the causal order: the pair of each such
    survivor's shape with its own, and of its own shape with itself."""

    at: int
    shape: tuple
    do: Transition
    footprint: tuple
    follows: int
    order: frozenset


class NormalForm:
    """The normal form of a trace from a plain term, kept per trace prefix
    and extended one step at a time (``then``): undo steps cancelled
    against their do steps, and the surviving events with their causal
    order (Danos and Krivine's parabolic lemma, CONCUR 2004, and
    Mazurkiewicz's dependence graphs).

    A value stands for the trace's cancellation stack, what is left once
    each adjacent inverse pair is dropped, as ``_closure_sets`` cancels
    one.  It holds the value of the stack below its top step, the top
    step, the surviving do steps, and whether an undo blocked.

    - A step that undoes the top step returns the value below it, blocked
      or not: the pair never happened.
    - A do step survives.  It follows each earlier survivor it depends on
      (``causality._depends``, one call per survivor), and what that one
      follows.
    - An undo cancels the latest survivor of its label shape, unless a
      later survivor follows that one; then, or when there is none, the
      value is blocked, and so is every value above it in the stack.

    ``form()`` is the survivors' label shapes with their causal order, or
    ``None`` when blocked.  A trace without a form is a class of its own.
    That is sound: the blocked undo is never declared equivalent to
    anything, so a block can add a violation and never hide one.  It is
    exact wherever the engine's dependence relation is invariant under
    its own swaps; F3's interlocked ``bsc`` memory is the known case
    where it is not, and there the form splits 2 endpoint classes of the
    sweep-correspondence term at maxlen 5 that the rewrite closure joins.
    """

    __slots__ = ("below", "top", "alive", "blocked", "size")

    def __init__(self, below: NormalForm | None = None, top: Transition | None = None,
                 alive: tuple[_Survivor, ...] = (), blocked: bool = False):
        self.below = below
        self.top = top
        self.alive = alive
        self.blocked = blocked
        self.size = 0 if below is None else below.size + 1  # steps on the stack

    def then(self, t: Transition) -> NormalForm:
        """The value of this trace extended by ``t``."""
        top = self.top
        if (top is not None and t.dir is not top.dir and t.label == top.label
                and (t.target is top.source or t.target == top.source)):
            return self.below
        if self.blocked:
            return NormalForm(self, t, self.alive, True)
        shape = label_shape(t.label)
        alive = self.alive
        if t.dir is Direction.FORWARD:
            fp = causality._footprint(t)
            follows = 0
            for s in alive:
                if any(causality._depends(s.do, s.footprint, t, fp)):
                    follows |= 1 << s.at | s.follows
            order = frozenset([(s.shape, shape) for s in alive if follows >> s.at & 1]
                              + [(shape, shape)])
            return NormalForm(self, t, alive + (_Survivor(
                self.size, shape, t, fp, follows, order),))
        for n in range(len(alive) - 1, -1, -1):
            if alive[n].shape == shape:
                gone = alive[n].at
                if any(s.follows >> gone & 1 for s in alive[n + 1:]):
                    break
                return NormalForm(self, t, alive[:n] + alive[n + 1:])
        return NormalForm(self, t, alive, True)

    def form(self) -> tuple[frozenset, frozenset] | None:
        """The survivors' label shapes and the pairs of shapes of their
        causal order, reflexive, or ``None`` when an undo blocked."""
        if self.blocked:
            return None
        return (frozenset([s.shape for s in self.alive]),
                frozenset().union(*[s.order for s in self.alive]))


def _closure_sets(steps: tuple[Transition, ...], budget: int, engine: Engine):
    """Keys of every trace reachable from ``steps`` by at most ``budget``
    rewrites, searched breadth first, and whether the closure saturated:
    the reference ``NormalForm`` is tested against.

    Two adjacent steps cancel when the second undoes the first: opposite
    directions, one label, and the second ends where the first began.
    They swap when their keys differ and the engine judges them
    concurrent.  A trace is keyed by the direction and label shape of
    each step and by its target, which pins everything else down; a
    fully cancelled trace is just its (shared, coinitial) source.  The
    direction enters the key as a bool, which hashes in C, where the
    ``Direction`` member's hash runs ``Enum.__hash__`` in Python.
    """
    def shape(t: Transition) -> tuple:
        return (t.dir is Direction.FORWARD, label_shape(t.label))

    ids = tuple(map(shape, steps))
    seen = {(ids, steps[-1].target) if steps else ((), None)}
    frontier = deque([(steps, ids, 0)])
    saturated = True
    while frontier:
        cur, ids, depth = frontier.popleft()
        if depth >= budget:
            saturated = False
            continue
        found = []
        for at in range(len(cur) - 1):
            t1, t2 = cur[at], cur[at + 1]
            if (t1.dir is not t2.dir and t1.label == t2.label
                    and (t2.target is t1.source or t2.target == t1.source)):
                found.append((cur[:at] + cur[at + 2:], ids[:at] + ids[at + 2:]))
            if t1.label.key != t2.label.key and engine.concurrent(t1, t2):
                pair = residual_swap(t1, t2, engine)
                found.append((cur[:at] + pair + cur[at + 2:],
                              ids[:at] + (shape(pair[0]), shape(pair[1])) + ids[at + 2:]))
        for nxt, nids in found:
            key = (nids, nxt[-1].target) if nxt else ((), None)
            if key not in seen:
                seen.add(key)
                frontier.append((nxt, nids, depth + 1))
    return seen, saturated


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #

def _json_key(k) -> object:
    return "*" if k is STAR else k


def _act_record(act) -> dict:
    if isinstance(act, FreeOut):
        return {"kind": "out", "chan": act.chan, "datum": act.datum}
    if isinstance(act, InAct):
        return {"kind": "in", "chan": act.chan, "datum": act.binder}
    if isinstance(act, BoundOut):
        return {"kind": "boundout", "chan": act.chan, "datum": act.datum,
                "mem": syntax.memory_text(act.mem)}
    return {"kind": "tau"}


def label_fields(label: Label) -> dict:
    """The fields a transition record takes from its label, in output
    order.  A trace step (``transition_json``) and an edge of an exported
    transition system (``cli``'s JSON writer) both read this one
    definition."""
    return {"key": label.key,
            "cause": [_json_key(k) for k in sorted(label.cause, key=syntax.key_sort)],
            "inst": _json_key(label.inst),
            "act": _act_record(label.act)}


def transition_json(t: Transition) -> dict:
    return {"dir": t.dir.value, **label_fields(t.label), "state": syntax.format(t.target)}


def trace_json(tr: Trace) -> list[dict]:
    return [transition_json(t) for t in tr.steps]


def trace_json_str(tr: Trace) -> str:
    return json_text(trace_json(tr))


def json_text(value, level: int = 0) -> str:
    """``value``, a dict, list, string or number, as ``json.dumps(...,
    indent=2)`` writes it ``level`` levels deep.  ``json.dumps`` with an
    indent builds closures that refer to each other, a reference cycle
    left behind every call; this writes the same text without one.  A
    string or an int is written as ``json.dumps`` writes it, by the same
    functions, without the encoder it sets up per call; any other scalar
    goes through ``json.dumps``."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        items = ["%s: %s" % (encode_basestring_ascii(k), json_text(v, level + 1))
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        items = [json_text(v, level + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return "%s%s%s\n%s%s" % (brackets[0], pad, ("," + pad).join(items),
                             "  " * level, brackets[1])
