"""Reference late causal semantics (Boreale and Sangiorgi).

A causal term is built of the nodes of ``syntax``: a plain process
whose parallel compositions and restrictions may hold ``Caused``
subterms, where ``K :: A`` records that every action of ``A`` depends
on the keys in ``K``.  Rendering, erasure, the folds and rewriting are
``syntax``'s own (``format``, ``erase``, ``occurring_keys``,
``rebuild``), so this module holds only the rules.  A label's action is
a plain pi-calculus action: the engine's ``FreeOut``, ``InAct`` or
``Tau``, or a ``PiBoundOut``, a bound output with no memory.  Visible
actions get a fresh key and accumulate the cause sets they fire under;
a silent step carries no key and no causes but exchanges the two
participants' cause sets.  With the causes erased, the same relation is
the standard late semantics of plain processes, which the erasure
bisimulation reads (``pi_transitions``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax
from .syntax import (
    AnnotatedName, Caused, CausalProcess, FreeOut, InAct, Input, Label, Nil, Output,
    Par, PiBoundOut, PiLabel, Process, Res, Tau, act_object, act_subject,
)


@dataclass(frozen=True)
class BsLabel:
    """A reference-semantics label: key (``None`` if silent), plain action, causes."""

    key: int | None  # None exactly for silent steps
    act: PiLabel
    causes: frozenset

    def __post_init__(self):
        if isinstance(self.act, Tau):
            assert self.key is None and not self.causes
        else:
            assert self.key is not None


def gamma(label: Label) -> tuple[int | None, PiLabel]:
    """Map an engine label onto the reference semantics' label shape."""
    key = None if isinstance(label.act, Tau) else label.key
    return (key, syntax.erase_label(label))


def replacing_cause(k: int, ks: frozenset):
    """The ``cause`` map of ``syntax.rebuild`` that replaces cause ``k``
    by the set ``ks`` in every cause set."""
    return lambda _, causes: (causes - {k}) | ks if k in causes else causes


# --------------------------------------------------------------------------- #
# Reference transitions
# --------------------------------------------------------------------------- #

def bs_transitions(a: CausalProcess,
                   used: frozenset | None = None) -> tuple[tuple[BsLabel, CausalProcess], ...]:
    """All transitions of a causal term.

    ``used`` is the set of keys already spent along the run; silent steps
    consume their key without leaving it in the term, so callers tracking
    a whole trace should pass it explicitly (the default only sees the
    causes still present in the term).
    """
    if used is None:
        used = syntax.occurring_keys(a)
    key = syntax.first_free_key(used)
    steps = _bs(a, key)
    pairs = []
    for act, causes, tgt in steps:
        if isinstance(act, Tau):
            pairs.append((BsLabel(None, act, frozenset()), tgt))
        else:
            pairs.append((BsLabel(key, act, causes), tgt))
    return syntax.sort_steps(
        pairs, lambda pr: (_pi_sort(pr[0].act), tuple(sorted(pr[0].causes))),
        lambda pr: syntax.format(pr[1]))


def pi_transitions(p: Process) -> tuple[tuple[PiLabel, Process], ...]:
    """Standard late-semantics transitions of a plain process: the
    reference transitions of the term, with the causes erased."""
    # a plain term holds no cause, so key 1 is fresh
    return syntax.sort_steps(
        [(act, syntax.erase(tgt)) for act, _, tgt in _bs(p, 1)],
        lambda pr: _pi_sort(pr[0]), lambda pr: syntax.format(pr[1]))


def _pi_sort(label: PiLabel):
    if isinstance(label, FreeOut):
        return ("out", label.chan, label.datum)
    if isinstance(label, InAct):
        return ("in", label.chan, label.binder)
    if isinstance(label, PiBoundOut):
        return ("boundout", label.chan, label.datum)
    return ("tau", "", "")


def _bs(a: CausalProcess, key: int) -> list[tuple[PiLabel, frozenset, CausalProcess]]:
    if isinstance(a, Output):
        act = FreeOut(a.chan.name, a.datum.name)
        return [(act, frozenset(), Caused(frozenset({key}), a.cont))]
    if isinstance(a, Input):
        act = InAct(a.chan.name, a.binder)
        return [(act, frozenset(), Caused(frozenset({key}), a.cont))]
    if isinstance(a, Nil):
        return []

    if isinstance(a, Caused):
        # a visible action inherits the causes it fires under
        return [(act, causes if isinstance(act, Tau) else causes | a.causes,
                 Caused(a.causes, tgt))
                for act, causes, tgt in _bs(a.body, key)]

    if isinstance(a, Par):
        lefts = _bs(a.left, key)
        rights = _bs(a.right, key)
        out = []
        for act, causes, tgt in lefts:
            out.append((act, causes, Par(tgt, a.right)))
        for act, causes, tgt in rights:
            out.append((act, causes, Par(a.left, tgt)))
        out.extend(_bs_sync(key, lefts, rights, out_on_left=True))
        out.extend(_bs_sync(key, rights, lefts, out_on_left=False))
        return out

    if isinstance(a, Res):
        out = []
        for act, causes, tgt in _bs(a.body, key):
            if isinstance(act, Tau):
                out.append((act, causes, Res(a.name, tgt)))
            elif isinstance(act, FreeOut) and act.datum == a.name and act.chan != a.name:
                out.append((PiBoundOut(act.chan, act.datum), causes, tgt))
            elif a.name in _label_names(act, bound=True):
                continue
            else:
                out.append((act, causes, Res(a.name, tgt)))
        return out

    raise TypeError(a)


def _label_names(label: PiLabel, bound: bool = False) -> set[str]:
    """The free names of a label, and with ``bound`` its bound name too: a
    bound output's datum or an input's binder."""
    names = {act_subject(label)}
    if bound or introduced(label) is None:
        names.add(act_object(label))
    names.discard(None)
    return names


def _bs_sync(key: int, outs, ins, out_on_left: bool):
    # both premises fired with the same fresh key, which the conclusion
    # replaces by the opposite side's causes; the input half also receives
    # the datum for its binder
    result = []
    for lo, ko, to in outs:
        if not isinstance(lo, (FreeOut, PiBoundOut)):
            continue
        for li, ki, ti in ins:
            if not isinstance(li, InAct) or li.chan != lo.chan:
                continue
            out_half = syntax.rebuild(to, cause=replacing_cause(key, ki))
            in_half = syntax.rebuild(
                ti, cause=replacing_cause(key, ko),
                names=lambda n: AnnotatedName(lo.datum) if n.name == li.binder else n)
            pair = Par(out_half, in_half) if out_on_left else Par(in_half, out_half)
            if isinstance(lo, FreeOut):
                result.append((Tau(), frozenset(), pair))
            else:
                result.append((Tau(), frozenset(), Res(lo.datum, pair)))
    return result


# --------------------------------------------------------------------------- #
# Object causality on reference runs
# --------------------------------------------------------------------------- #

def introduced(act: PiLabel) -> str | None:
    """The name a step with action ``act`` introduces, through which a
    later step that mentions it depends on this one: the datum of a bound
    output (an extrusion) or the binder of an input; ``None`` otherwise.

    Such a name is fresh in its run, neither free in the erased source
    nor bound or mentioned by an earlier label: ``parse_process`` makes
    the binders distinct from each other and from the free names, and a
    restricted name leaves its restriction only by that extrusion.  The
    rule with both freshness tests is the tests' reference
    (``bs_object_caused``)."""
    return None if isinstance(act, FreeOut) else act_object(act)
