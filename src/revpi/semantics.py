"""The labelled transition system: exhaustive forward and backward steps.

Forward rules fire unexecuted prefixes (stamping them with a fresh key),
let actions cross parallels and restrictions, pair complementary actions
into communications, and -- at a restriction -- either extrude the name
(turning the label into a bound output and recording the key in the
memory) or refine the action's contextual cause when its subject is an
already-extruded name.

Backward rules are the exact mirrors: a past prefix whose continuation
is history-free rolls back, communications undo both halves at once, and
an undo is blocked while any parallel component still mentions its key
(as a prefix key, a cause, an instantiator, or inside a memory).  That
occurs-check is what makes reversal causally consistent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import memory as mem
from . import syntax
from .memory import MemoryKind
from .syntax import (
    STAR, STAR_SET, BoundOut, Direction, FreeOut, InAct, Input, Label,
    Leaf, Output, PastInput, PastOutput, PastPrefix, RPar, RProcess, RRes,
    Tau, act_object, act_subject,
)


class NoSuchTransitionError(ValueError):
    pass


@syntax.cached_hash
@dataclass(frozen=True)
class Transition:
    source: RProcess
    dir: Direction
    label: Label
    target: RProcess

    def __str__(self) -> str:
        arrow = "-->" if self.dir is Direction.FORWARD else "~~>"
        return "%s  %s %s  %s" % (
            syntax.format(self.source), arrow, syntax.format(self.label),
            syntax.format(self.target))


def reverse_transition(t: Transition) -> Transition:
    """Same label, opposite direction, endpoints swapped."""
    d = Direction.BACKWARD if t.dir is Direction.FORWARD else Direction.FORWARD
    return Transition(t.target, d, t.label, t.source)


def label_sort_key(label: Label):
    act = label.act
    return (
        label.key,
        type(act).__name__,
        act_subject(act) or "",
        act_object(act) or "",
        tuple(syntax.render_key(k) for k in sorted(label.cause, key=syntax.key_sort)),
        syntax.render_key(label.inst),
    )


def _sorted_transitions(trs: list[Transition]) -> tuple[Transition, ...]:
    return syntax.sort_steps(trs, lambda t: label_sort_key(t.label),
                             lambda t: syntax.format(t.target))


# --------------------------------------------------------------------------- #
# Contextual cause update
# --------------------------------------------------------------------------- #

def cause_update(x: RProcess, i: int, new_cause: frozenset) -> RProcess:
    """Rewrite the stored cause of the past prefixes keyed ``i``.

    The full term is searched (the acting prefix may sit below other
    history); terms without such a prefix come back unchanged.
    """
    return syntax.rebuild(x, cause=lambda key, cause: new_cause if key == i else cause)


def _cause_joinable(k: frozenset, j) -> bool:
    # the communication side condition: either side unconstrained, or the
    # instantiator of one subject is among the other's causes
    return STAR in k or j is STAR or j in k


def _joinable(lo: Label, li: Label) -> bool:
    """An output premise and an input premise that may communicate."""
    return (isinstance(li.act, InAct) and li.act.chan == lo.act.chan
            and _cause_joinable(lo.cause, li.inst)
            and _cause_joinable(li.cause, lo.inst))


# --------------------------------------------------------------------------- #
# Premise tables
# --------------------------------------------------------------------------- #

class Premises:
    """A run's premise tables: the forward premises of each subterm it
    has met, by subterm and key, and the backward ones, by subterm.

    The rules are compositional, and a successor shares every untouched
    subtree with its source, so a run that keeps one holder (an
    ``engine.Engine`` does, for its one kind) derives the premises of each
    subterm once: the computed table of a BDD package.  ``forward`` and
    ``backward`` look the answer up before they apply the rule,
    ``_forward`` or ``_backward``.  The tables hold proper subterms only:
    ``forward_transitions`` and ``backward_transitions`` apply the rule to
    the whole state themselves, because the engine's own memo answers a
    state asked again.  The holder hashes by identity.
    """

    def __init__(self):
        self._forward: dict[tuple[RProcess, int], tuple[tuple[Label, RProcess], ...]] = {}
        self._backward: dict[RProcess, tuple[tuple[Label, RProcess], ...]] = {}

    def forward(self, x: RProcess, key: int, kind: MemoryKind) -> tuple:
        memo = (x, key)
        out = self._forward.get(memo)
        if out is None:
            out = self._forward[memo] = _forward(x, key, kind, self)
        return out

    def backward(self, x: RProcess) -> tuple:
        out = self._backward.get(x)
        if out is None:
            out = self._backward[x] = _backward(x, self)
        return out


# --------------------------------------------------------------------------- #
# Forward transitions
# --------------------------------------------------------------------------- #

def forward_transitions(x: RProcess, kind: MemoryKind, key: int | None = None,
                        premises: Premises | None = None) -> tuple[Transition, ...]:
    """All forward transitions of ``x``.

    ``kind`` is the run's memory kind: restrictions below a firing prefix
    enter the reversible layer with a fresh memory of that kind.  ``key``
    overrides the canonical fresh key (the smallest unused positive
    integer) -- commuting transitions in a square needs the key of the
    step being replayed.  ``premises`` are the run's tables; without them
    the answer is computed afresh.
    """
    if key is None:
        key = syntax.fresh_key(x)
    elif key in syntax.keys(x):
        raise ValueError("key %d is not fresh" % key)
    if premises is None:
        premises = Premises()
    return _sorted_transitions(
        [Transition(x, Direction.FORWARD, lbl, tgt)
         for lbl, tgt in _forward(x, key, kind, premises)])


def _forward(x: RProcess, key: int, kind: MemoryKind,
             premises: Premises) -> tuple[tuple[Label, RProcess], ...]:
    if isinstance(x, Leaf):
        p = x.proc
        if isinstance(p, Output):
            lbl = Label(key, STAR_SET, p.chan.inst, FreeOut(p.chan.name, p.datum.name))
            tgt = PastOutput(p.chan, p.datum, key, STAR_SET, syntax.lift(p.cont, kind))
            return ((lbl, tgt),)
        if isinstance(p, Input):
            lbl = Label(key, STAR_SET, p.chan.inst, InAct(p.chan.name, p.binder))
            tgt = PastInput(p.chan, p.binder, key, STAR_SET, syntax.lift(p.cont, kind))
            return ((lbl, tgt),)
        return ()

    if isinstance(x, PastPrefix):
        # history congruence: executed prefixes never block the future
        return tuple((lbl, dataclasses.replace(x, cont=tgt))
                     for lbl, tgt in premises.forward(x.cont, key, kind))

    if isinstance(x, RPar):
        lefts = premises.forward(x.left, key, kind)
        rights = premises.forward(x.right, key, kind)
        return tuple(_interleave(x, lefts, rights)
                     + _sync(lefts, rights, out_on_left=True)
                     + _sync(rights, lefts, out_on_left=False))

    if isinstance(x, RRes):
        out = []
        for lbl, tgt in premises.forward(x.body, key, kind):
            out.extend(_cross_restriction(x, lbl, tgt))
        return tuple(out)

    raise TypeError(x)


def _interleave(x: RPar, lefts, rights) -> list[tuple[Label, RProcess]]:
    """Let either side of ``x`` act alone.  A premise whose key occurs in
    the other side is blocked: the occurs-check of the parallel rules."""
    out = []
    if lefts:
        blocked = syntax.occurring_keys(x.right)
        out += [(lbl, RPar(tgt, x.right)) for lbl, tgt in lefts if lbl.key not in blocked]
    if rights:
        blocked = syntax.occurring_keys(x.left)
        out += [(lbl, RPar(x.left, tgt)) for lbl, tgt in rights if lbl.key not in blocked]
    return out


def _sync(outs, ins, out_on_left: bool) -> list[tuple[Label, RProcess]]:
    """Pair an output premise with an input premise into a silent step."""
    result = []
    for lo, to in outs:
        if not isinstance(lo.act, (FreeOut, BoundOut)):
            continue
        for li, ti in ins:
            if not _joinable(lo, li):
                continue
            key = lo.key
            ti_sub = syntax.substitute(ti, li.act.binder, lo.act.datum, key)
            tau = Label(key, STAR_SET, STAR, Tau())
            closes = isinstance(lo.act, BoundOut)
            sent = mem.strip_key(to, key) if closes else to
            pair = RPar(sent, ti_sub) if out_on_left else RPar(ti_sub, sent)
            result.append((tau, RRes(lo.act.datum, lo.act.mem, pair) if closes else pair))
    return result


def _cross_restriction(res: RRes, lbl: Label, tgt: RProcess) -> list[tuple[Label, RProcess]]:
    a, m = res.name, res.mem
    act = lbl.act
    subj = act_subject(act)
    if isinstance(act, (FreeOut, BoundOut)) and act.datum == a and subj != a:
        # extrusion: the label turns into a bound output carrying the
        # memory as it was before this key was recorded
        new_cause = mem.open_cause(m, lbl.cause)
        new_lbl = Label(lbl.key, new_cause, lbl.inst, BoundOut(subj, a, m))
        body = cause_update(tgt, lbl.key, new_cause)
        return [(new_lbl, RRes(a, mem.mem_add(m, lbl.key), body))]
    if subj == a:
        if m.is_empty():
            return []  # the name is still private: nothing may use it
        out = []
        for k2 in mem.admissible_causes(m, lbl.cause, res.body):
            new_lbl = Label(lbl.key, k2, lbl.inst, act)
            out.append((new_lbl, RRes(a, m, cause_update(tgt, lbl.key, k2))))
        return out
    return [(lbl, RRes(a, m, tgt))]


# --------------------------------------------------------------------------- #
# Backward transitions
# --------------------------------------------------------------------------- #

def backward_transitions(x: RProcess,
                         premises: Premises | None = None) -> tuple[Transition, ...]:
    """All backward transitions of ``x`` (labels mirror the forward ones).
    ``premises`` are the run's tables; without them the answer is
    computed afresh."""
    if premises is None:
        premises = Premises()
    return _sorted_transitions(
        [Transition(x, Direction.BACKWARD, lbl, tgt) for lbl, tgt in _backward(x, premises)])


def _backward(x: RProcess, premises: Premises) -> tuple[tuple[Label, RProcess], ...]:
    if isinstance(x, Leaf):
        return ()

    if isinstance(x, PastPrefix):
        if syntax.keys(x.cont):
            return tuple((lbl, dataclasses.replace(x, cont=tgt))
                         for lbl, tgt in premises.backward(x.cont))
        cont = syntax.as_plain(x.cont)
        if isinstance(x, PastOutput):
            act, tgt = FreeOut(x.chan.name, x.datum.name), Output(x.chan, x.datum, cont)
        else:
            act, tgt = InAct(x.chan.name, x.binder), Input(x.chan, x.binder, cont)
        return ((Label(x.key, x.cause, x.chan.inst, act), Leaf(tgt)),)

    if isinstance(x, RPar):
        return tuple(_par_backward(x, premises.backward(x.left), premises.backward(x.right)))

    if isinstance(x, RRes):
        if isinstance(x.body, RPar):
            # the body's premises serve both its own steps and the close undos
            lefts, rights = premises.backward(x.body.left), premises.backward(x.body.right)
            out = _unsync(lefts, rights, x, out_on_left=True)
            out += _unsync(rights, lefts, x, out_on_left=False)
            body = _par_backward(x.body, lefts, rights)
        else:
            out, body = [], premises.backward(x.body)
        for lbl, tgt in body:
            out.extend(_cross_restriction_back(x, lbl, tgt))
        return tuple(out)

    raise TypeError(x)


def _par_backward(x: RPar, lefts, rights) -> list[tuple[Label, RProcess]]:
    return (_interleave(x, lefts, rights)
            + _unsync(lefts, rights, None, out_on_left=True)
            + _unsync(rights, lefts, None, out_on_left=False))


def _unsync(outs, ins, res: RRes | None, out_on_left: bool) -> list[tuple[Label, RProcess]]:
    """Undo a communication, the mirror of ``_sync``: an output premise and
    the input premise of the same key roll back together, and the
    substitution is reverted on the input side.

    Without ``res`` the communication is a plain one, and its output half
    is a free output.  With it, it closed the scope of ``res``: the output
    half is the bound output that crosses ``res`` with the memory of
    ``res``, and the enclosing restriction vanishes.
    """
    result = []
    for lo, to in outs:
        if not _sends(lo.act, res):
            continue
        for li, ti in ins:
            if li.key != lo.key or not _joinable(lo, li):
                continue
            ti_unsub = syntax.unsubstitute(ti, lo.act.datum, lo.key, li.act.binder)
            tau = Label(lo.key, STAR_SET, STAR, Tau())
            result.append((tau, RPar(to, ti_unsub) if out_on_left else RPar(ti_unsub, to)))
    return result


def _sends(act, res: RRes | None) -> bool:
    """Whether ``act`` is the output half of the communication being
    undone: a free output, or for a close the bound output that crossed
    ``res``.

    Invariant: in a reachable state, a backward bound output of
    ``res.name`` out of the body of ``res`` that is joinable with an input
    premise of its key already carries ``res.mem``.  ``_sync`` gives the
    restriction of a close the memory of its bound output, the crossed
    memory before the closing key was added, and undoing the crossing
    removes that key again.  So the comparison never rejects such a pair;
    it stays as the rule's side condition.
    """
    if res is None:
        return isinstance(act, FreeOut)
    return isinstance(act, BoundOut) and act.datum == res.name and act.mem == res.mem


def _cross_restriction_back(res: RRes, lbl: Label, tgt: RProcess) -> list[tuple[Label, RProcess]]:
    a, m = res.name, res.mem
    act = lbl.act
    subj = act_subject(act)
    if isinstance(act, (FreeOut, BoundOut)) and act.datum == a and subj != a:
        # undo the extrusion recorded for this key
        if not mem.mem_contains(m, lbl.key):
            return []
        m2 = mem.mem_remove_extruder(m, lbl.key)
        if not mem.open_cause_consistent(m2, lbl.cause):
            return []
        new_lbl = Label(lbl.key, lbl.cause, lbl.inst, BoundOut(subj, a, m2))
        return [(new_lbl, RRes(a, m2, tgt))]
    if subj == a and (m.is_empty() or not mem.refine_cause_consistent(m, lbl.cause)):
        return []
    return [(lbl, RRes(a, m, tgt))]


# --------------------------------------------------------------------------- #
# Step selection
# --------------------------------------------------------------------------- #

def step(x: RProcess, label: Label, direction: Direction,
         kind: MemoryKind) -> RProcess:
    """Target of the unique transition with this label and direction."""
    if direction is Direction.FORWARD:
        candidates = forward_transitions(x, kind, key=label.key)
    else:
        candidates = backward_transitions(x)
    hits = [t for t in candidates if t.label == label]
    if not hits:
        near = [t for t in candidates if t.label.key == label.key]
        detail = ""
        if near:
            detail = "; nearest by key: %s" % ", ".join(
                syntax.format(t.label) for t in near)
        raise NoSuchTransitionError(
            "no %s transition labelled %s%s" % (
                direction.value, syntax.format(label), detail))
    targets = {t.target for t in hits}
    if len(targets) > 1:
        raise NoSuchTransitionError(
            "label %s is ambiguous here (%d targets)" % (
                syntax.format(label), len(targets)))
    return hits[0].target
