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

The rules take the run they enumerate for, an ``engine.Engine``: its
kind is the memory a restriction below a firing prefix enters the
reversible layer with, its unique table holds every node the rules
build and every term a rewrite returns, and its tables answer the
premises of each proper subterm and the label half of each crossing of
a restriction.  The rules that build labels stay here; the run only
remembers what they answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import syntax
from .memory import Memory, MemoryKind, strip_key
from .syntax import (
    STAR, STAR_SET, BoundOut, Direction, FreeOut, InAct, Input, Label,
    Nil, Output, Par, PastInput, PastOutput, PastPrefix, RProcess, RRes,
    Tau, act_object, act_subject,
)

if TYPE_CHECKING:
    from .engine import Engine


class NoSuchTransitionError(ValueError):
    pass


@syntax.record
class Transition:
    """One step of a run: ``source`` to ``target`` in ``dir``, under ``label``."""

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


@syntax.kept_on_node("_sort_key")
def label_sort_key(label: Label):
    """The key a batch is sorted by, before the rendered target; kept on
    the label, which the premise tables share between states."""
    act = label.act
    return (
        label.key,
        type(act).__name__,
        act_subject(act) or "",
        act_object(act) or "",
        tuple(syntax.render_key(k) for k in sorted(label.cause, key=syntax.key_sort)),
        syntax.render_key(label.inst),
    )


def _sorted_transitions(x: RProcess, direction: Direction, steps) -> tuple[Transition, ...]:
    """The transitions of one batch, out of ``x`` in ``direction``, from
    the rules' ``(label, target)`` pairs, without repeats and in the order
    of ``(label_sort_key(label), rendered target)``.  A batch has one
    source and one direction, so the pairs decide both.  The rules build
    every target through the run's unique table, so each transition points
    at the run's one instance of its target."""
    if len(steps) > 1:
        steps = syntax.sort_steps(steps, lambda s: label_sort_key(s[0]),
                                  lambda s: syntax.format(s[1]))
    return tuple([Transition(x, direction, lbl, tgt) for lbl, tgt in steps])


# --------------------------------------------------------------------------- #
# Contextual cause update
# --------------------------------------------------------------------------- #

def cause_update(x: RProcess, i: int, new_cause: frozenset) -> RProcess:
    """Rewrite the stored cause of the past prefixes keyed ``i``.

    The full term is searched (the acting prefix may sit below other
    history); a subterm without such a prefix comes back as it is.
    """
    return syntax.rebuild(x, cause=lambda key, cause: new_cause if key == i else cause,
                          keep=lambda t: i not in syntax.keys(t))


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
# Forward transitions
# --------------------------------------------------------------------------- #

def forward_transitions(x: RProcess, kind: MemoryKind, key: int | None = None,
                        run: Engine | None = None) -> tuple[Transition, ...]:
    """All forward transitions of ``x``.

    ``kind`` is the memory kind: restrictions below a firing prefix enter
    the reversible layer with a fresh memory of that kind.  ``key``
    overrides the canonical fresh key (the smallest unused positive
    integer) -- commuting transitions in a square needs the key of the
    step being replayed -- and is checked to be unused.  ``run`` is the
    engine whose tables answer the premises, and must be of ``kind``;
    without it the answer is computed by a throwaway run.
    """
    if run is None:
        from .engine import Engine
        run = Engine(kind)
    elif run.kind != kind:
        raise ValueError("a run under %s cannot enumerate under %s"
                         % (run.kind.value, kind.value))
    x = run.canon(x)
    if key is None:
        key = syntax.fresh_key(x)
    elif key in syntax.keys(x):
        raise ValueError("key %d is not fresh" % key)
    return _sorted_transitions(x, Direction.FORWARD, _forward(x, key, run))


def _forward(x: RProcess, key: int, run: Engine) -> tuple[tuple[Label, RProcess], ...]:
    if isinstance(x, Output):
        lbl = Label(key, STAR_SET, x.chan.inst, FreeOut(x.chan.name, x.datum.name))
        return ((lbl, run.node(PastOutput, (x.chan, x.datum, key, STAR_SET),
                                 run.canon(syntax.lift(x.cont, run.kind)))),)
    if isinstance(x, Input):
        lbl = Label(key, STAR_SET, x.chan.inst, InAct(x.chan.name, x.binder))
        return ((lbl, run.node(PastInput, (x.chan, x.binder, key, STAR_SET),
                                 run.canon(syntax.lift(x.cont, run.kind)))),)
    if isinstance(x, Nil):
        return ()

    if isinstance(x, PastPrefix):
        # history congruence: executed prefixes never block the future
        return tuple((lbl, run.past(x, tgt)) for lbl, tgt in run.forward_premises(x.cont, key))

    if isinstance(x, Par):
        lefts = run.forward_premises(x.left, key)
        rights = run.forward_premises(x.right, key)
        return tuple(_interleave(x, lefts, rights, run)
                     + _sync(lefts, rights, run, out_on_left=True)
                     + _sync(rights, lefts, run, out_on_left=False))

    if isinstance(x, RRes):
        out = []
        for lbl, tgt in run.forward_premises(x.body, key):
            out.extend(_cross_restriction(x, lbl, tgt, run))
        return tuple(out)

    raise TypeError(x)


def _interleave(x: Par, lefts, rights, run: Engine) -> list[tuple[Label, RProcess]]:
    """Let either side of ``x`` act alone.  A premise whose key occurs in
    the other side is blocked: the occurs-check of the parallel rules."""
    out = []
    if lefts:
        blocked = syntax.occurring_keys(x.right)
        out += [(lbl, run.par(tgt, x.right)) for lbl, tgt in lefts if lbl.key not in blocked]
    if rights:
        blocked = syntax.occurring_keys(x.left)
        out += [(lbl, run.par(x.left, tgt)) for lbl, tgt in rights if lbl.key not in blocked]
    return out


def _sync(outs, ins, run: Engine, out_on_left: bool) -> list[tuple[Label, RProcess]]:
    """Pair an output premise with an input premise into a silent step."""
    result = []
    for lo, to in outs:
        if not isinstance(lo.act, (FreeOut, BoundOut)):
            continue
        for li, ti in ins:
            if not _joinable(lo, li):
                continue
            key = lo.key
            ti_sub = run.canon(syntax.substitute(ti, li.act.binder, lo.act.datum, key))
            tau = Label(key, STAR_SET, STAR, Tau())
            closes = isinstance(lo.act, BoundOut)
            sent = run.canon(strip_key(to, key)) if closes else to
            pair = run.par(sent, ti_sub) if out_on_left else run.par(ti_sub, sent)
            if closes:
                pair = run.node(RRes, (lo.act.datum, lo.act.mem), pair)
            result.append((tau, pair))
    return result


def _cross_restriction(res: RRes, lbl: Label, tgt: RProcess,
                       run: Engine) -> list[tuple[Label, RProcess]]:
    a, m = res.name, res.mem
    act = lbl.act
    subj = act_subject(act)
    if isinstance(act, (FreeOut, BoundOut)) and act.datum == a and subj != a:
        # extrusion: the label turns into a bound output carrying the
        # memory as it was before this key was recorded
        ((new_lbl, recorded),) = run.crossing(_extrude, a, m, lbl)
        opened = run.canon(cause_update(tgt, lbl.key, new_lbl.cause))
        return [(new_lbl, run.node(RRes, (a, recorded), opened))]
    if subj == a:
        # refinement reads the body (``admissible_causes``): not memoized
        if not m.gamma:
            return []  # the name is still private: nothing may use it
        out = []
        for k2 in m.admissible_causes(lbl.cause, res.body):
            new_lbl = Label(lbl.key, k2, lbl.inst, act)
            refined = run.canon(cause_update(tgt, lbl.key, k2))
            out.append((new_lbl, run.node(RRes, (a, m), refined)))
        return out
    return [(lbl, run.node(RRes, (a, m), tgt))]


def _extrude(a: str, m: Memory, lbl: Label) -> tuple[tuple[Label, Memory]]:
    """The one ``(label, memory)`` pair of the output ``lbl`` of the name
    ``a`` crossing the restriction of ``a`` with memory ``m``: the bound
    output it becomes, and the memory that records it."""
    return ((Label(lbl.key, m.open_cause(lbl.cause), lbl.inst, BoundOut(lbl.act.chan, a, m)),
             m.add(lbl.key)),)


# --------------------------------------------------------------------------- #
# Backward transitions
# --------------------------------------------------------------------------- #

def backward_transitions(x: RProcess, run: Engine | None = None) -> tuple[Transition, ...]:
    """All backward transitions of ``x`` (labels mirror the forward ones),
    with the tables of ``run`` or of a throwaway run.  Backward steps never
    lift, so they need no kind."""
    if run is None:
        from .engine import Engine
        run = Engine(None)
    x = run.canon(x)
    return _sorted_transitions(x, Direction.BACKWARD, _backward(x, run))


def _backward(x: RProcess, run: Engine) -> tuple[tuple[Label, RProcess], ...]:
    if isinstance(x, (Nil, Output, Input)):
        return ()

    if isinstance(x, PastPrefix):
        if syntax.keys(x.cont):
            return tuple((lbl, run.past(x, tgt)) for lbl, tgt in run.backward_premises(x.cont))
        cont = syntax.as_plain(x.cont)
        if isinstance(x, PastOutput):
            act, tgt = FreeOut(x.chan.name, x.datum.name), Output(x.chan, x.datum, cont)
        else:
            act, tgt = InAct(x.chan.name, x.binder), Input(x.chan, x.binder, cont)
        return ((Label(x.key, x.cause, x.chan.inst, act), run.canon(tgt)),)

    if isinstance(x, Par):
        return tuple(_par_backward(x, run.backward_premises(x.left),
                                   run.backward_premises(x.right), run))

    if isinstance(x, RRes):
        if isinstance(x.body, Par):
            # the body's premises serve both its own steps and the close undos
            lefts, rights = run.backward_premises(x.body.left), run.backward_premises(x.body.right)
            out = _unsync(lefts, rights, x, run, out_on_left=True)
            out += _unsync(rights, lefts, x, run, out_on_left=False)
            body = _par_backward(x.body, lefts, rights, run)
        else:
            out, body = [], run.backward_premises(x.body)
        for lbl, tgt in body:
            out += [(new_lbl, run.node(RRes, (x.name, m), tgt))
                    for new_lbl, m in run.crossing(_cross_restriction_back, x.name, x.mem, lbl)]
        return tuple(out)

    raise TypeError(x)


def _par_backward(x: Par, lefts, rights, run: Engine) -> list[tuple[Label, RProcess]]:
    return (_interleave(x, lefts, rights, run)
            + _unsync(lefts, rights, None, run, out_on_left=True)
            + _unsync(rights, lefts, None, run, out_on_left=False))


def _unsync(outs, ins, res: RRes | None, run: Engine,
            out_on_left: bool) -> list[tuple[Label, RProcess]]:
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
            ti_unsub = run.canon(syntax.unsubstitute(ti, lo.act.datum, lo.key, li.act.binder))
            tau = Label(lo.key, STAR_SET, STAR, Tau())
            result.append((tau, run.par(to, ti_unsub) if out_on_left else run.par(ti_unsub, to)))
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


def _cross_restriction_back(a: str, m: Memory, lbl: Label) -> tuple[tuple[Label, Memory], ...]:
    """The ``(label, memory)`` pairs of the backward premise ``lbl``
    crossing the restriction of ``a`` with memory ``m``: the label it
    gives and the memory it leaves, none where it is blocked."""
    act = lbl.act
    subj = act_subject(act)
    if isinstance(act, (FreeOut, BoundOut)) and act.datum == a and subj != a:
        # undo the extrusion recorded for this key
        if lbl.key not in m.gamma:
            return ()
        m2 = m.remove_extruder(lbl.key)
        if not m2.open_cause_consistent(lbl.cause):
            return ()
        return ((Label(lbl.key, lbl.cause, lbl.inst, BoundOut(subj, a, m2)), m2),)
    if subj == a and (not m.gamma or not m.refine_cause_consistent(lbl.cause)):
        return ()
    return ((lbl, m),)


# --------------------------------------------------------------------------- #
# Step selection
# --------------------------------------------------------------------------- #

def step(x: RProcess, label: Label, direction: Direction,
         kind: MemoryKind) -> RProcess:
    """Target of the unique transition with this label and direction."""
    if direction is Direction.FORWARD:
        if label.key in syntax.keys(x):
            raise NoSuchTransitionError(
                "no forward transition labelled %s: key %d is not fresh here" % (
                    syntax.format(label), label.key))
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
