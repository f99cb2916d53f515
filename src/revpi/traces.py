"""Trace algebra: residual squares, cancellation, normal forms.

Two coinitial traces are equivalent when one rewrites into the other by
swapping adjacent concurrent steps and cancelling adjacent inverse
pairs.  ``checks.check_consistency`` compares their normal forms, the
survivors of a trace extended one step at a time (``extend``) and read
off by ``form``; its walk extends each (state, form) node once per step,
not each trace.  The rewrite closure ``_closure_sets``, searched breadth
first, is the reference its tests hold the forms to, and the form
computed from the whole trace at once is kept with the test oracles.
``residual_swap`` and ``cancel_inverse`` are the two rewrites, each
validated.  ``extend`` is also the one fold of a run's causal order:
the correspondence walk reads the engine's order off its survivors.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from . import causality, syntax
from .causality import Trace, label_equiv, label_shape
from .semantics import Transition, reverse_transition
from .syntax import Direction

if TYPE_CHECKING:
    from .engine import Engine


class NotConcurrentError(ValueError):
    pass


class NotInverseError(ValueError):
    pass


class SquareNotFoundError(RuntimeError):
    """No commuting square exists where one is guaranteed: an engine bug."""


def residual_swap(t1: Transition, t2: Transition,
                  engine: Engine) -> tuple[Transition, Transition]:
    """Commute the concurrent composable steps ``t1`` and ``t2``, or raise
    ``NotConcurrentError`` when they share a key or
    ``causality.concurrent_pair`` judges them dependent.

    The commuted pair is rebuilt from the transitions of the common
    source, enumerated by the run's ``engine``; labels survive up to the
    memory payload of bound outputs, keys exactly.  It leads from
    ``t1.source`` to ``t2.target``: its first step is enumerated from the
    source, and its second is kept only if it ends at ``t2.target``.
    """
    if t1.label.key == t2.label.key:
        raise NotConcurrentError("steps 0 and 1 share a key: cancellation, not a square")
    if not causality.concurrent_pair(t1, t2):
        raise NotConcurrentError("steps 0 and 1 are causally related")
    source = t1.source
    first = [t for t in engine.steps(source, t2.dir, t2.label.key)
             if t.label.key == t2.label.key and label_equiv(t.label, t2.label)]
    if not first:
        raise SquareNotFoundError("no residual for %s from %s" % (t2, syntax.format(source)))
    for cand in first:
        for t in engine.steps(cand.target, t1.dir, t1.label.key):
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
    """A surviving do step of a trace's normal form: its label shape,
    transition and footprint, and ``follows``, the earlier survivors it
    causally follows, one bit per key."""

    shape: tuple
    do: Transition
    footprint: tuple
    follows: int


def extend(alive: tuple[_Survivor, ...], t: Transition) -> tuple[_Survivor, ...] | None:
    """The survivors of a trace's normal form extended by the step ``t``,
    or ``None`` when ``t`` is an undo that blocks: the trace then has no
    form (Danos and Krivine's parabolic lemma, CONCUR 2004, and
    Mazurkiewicz's dependence graphs).

    - A do step survives.  It follows each survivor it depends on
      (``causality._depends``, one call per survivor), and what that one
      follows.
    - An undo cancels the survivor of its label shape, unless a later
      survivor follows that one; then, or when there is none, it blocks.

    A survivor is known by its key, the first field of its shape.  The
    state a trace reaches holds one event per survivor, so their keys are
    distinct, and a do step draws a key no survivor holds.

    A trace without a form is a class of its own.  That is sound: the
    blocked undo is never declared equivalent to anything, so a block can
    add a violation and never hide one.  The form is exact wherever the
    engine's dependence relation is invariant under its own swaps; F3's
    interlocked ``bsc`` memory is the known case where it is not, and
    there the form splits 2 endpoint classes of the sweep-correspondence
    term at maxlen 5 that the rewrite closure joins.
    """
    shape = label_shape(t.label)
    if t.dir is Direction.FORWARD:
        fp = causality._footprint(t)
        follows = causality.causal_row(
            (s.shape[0], s.follows) for s in alive
            if causality._depends(s.do, s.footprint, t, fp))
        return alive + (_Survivor(shape, t, fp, follows),)
    n = next((n for n, s in enumerate(alive) if s.shape == shape), None)
    if n is None or any(later.follows >> t.label.key & 1 for later in alive[n + 1:]):
        return None
    return alive[:n] + alive[n + 1:]


def form(alive: tuple[_Survivor, ...]) -> tuple[frozenset, frozenset]:
    """The survivors' label shapes and the pairs of shapes of their causal
    order, reflexive: the normal form ``checks.check_consistency``
    compares."""
    return (frozenset([s.shape for s in alive]),
            frozenset([(s.shape, u.shape) for u in alive for s in alive
                       if s is u or u.follows >> s.shape[0] & 1]))


def _closure_sets(steps: tuple[Transition, ...], budget: int, engine: Engine):
    """Keys of every trace reachable from ``steps`` by at most ``budget``
    rewrites, searched breadth first, and whether the closure saturated:
    the reference the normal forms are tested against.

    Two adjacent steps cancel when the second undoes the first
    (``reverse_transition``).  They swap when their keys differ and
    ``residual_swap`` does not reject them as dependent
    (``causality.concurrent_pair``).  A trace is keyed by the direction
    and label shape of each step and by its target, which pins
    everything else down; a fully cancelled trace is just its (shared,
    coinitial) source.  The direction enters the key as a bool, which
    hashes in C, where the ``Direction`` member's hash runs
    ``Enum.__hash__`` in Python.
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
            if t2 == reverse_transition(t1):
                found.append((cur[:at] + cur[at + 2:], ids[:at] + ids[at + 2:]))
            if t1.label.key == t2.label.key:
                continue
            try:
                pair = residual_swap(t1, t2, engine)
            except NotConcurrentError:
                continue
            found.append((cur[:at] + pair + cur[at + 2:],
                          ids[:at] + (shape(pair[0]), shape(pair[1])) + ids[at + 2:]))
        for nxt, nids in found:
            key = (nids, nxt[-1].target) if nxt else ((), None)
            if key not in seen:
                seen.add(key)
                frontier.append((nxt, nids, depth + 1))
    return seen, saturated
