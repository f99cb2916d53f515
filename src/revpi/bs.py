"""Reference late causal semantics (Boreale and Sangiorgi).

A causal term is a plain process whose parallel compositions and
restrictions may hold ``Caused`` subterms: ``K :: A`` records that
every action of ``A`` depends on the keys in ``K``.  Visible actions get
a fresh key and accumulate the cause sets they fire under; a silent step
carries no key and no causes but exchanges the two participants' cause
sets.  With the causes erased, the same relation is the standard late
semantics of plain processes, which the erasure bisimulation reads
(``pi_transitions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import syntax
from .syntax import (
    AnnotatedName, Input, Label, Nil, Output, Par, PiBoundOut, PiFreeOut,
    PiIn, PiLabel, PiTau, Process, Res, Tau,
)


@dataclass(frozen=True)
class Caused:
    causes: frozenset
    body: "CausalProcess"


#: ``Par`` and ``Res`` here may hold ``Caused`` subterms; below a prefix
#: the term is plain.
CausalProcess = Union[Nil, Output, Input, Par, Res, Caused]


@dataclass(frozen=True)
class BsLabel:
    key: int | None  # None exactly for silent steps
    act: PiLabel
    causes: frozenset

    def __post_init__(self):
        if isinstance(self.act, PiTau):
            assert self.key is None and not self.causes
        else:
            assert self.key is not None


@dataclass(frozen=True)
class BsStep:
    label: BsLabel
    source: CausalProcess
    target: CausalProcess


def cau(a: CausalProcess) -> frozenset:
    """Union of every cause set in the term."""
    if isinstance(a, Caused):
        return a.causes | cau(a.body)
    if isinstance(a, Par):
        return cau(a.left) | cau(a.right)
    if isinstance(a, Res):
        return cau(a.body)
    return frozenset()


def erase_lambda(a: CausalProcess) -> Process:
    """Drop the cause annotations, keeping the process structure."""
    if isinstance(a, Caused):
        return erase_lambda(a.body)
    if isinstance(a, Par):
        return Par(erase_lambda(a.left), erase_lambda(a.right))
    if isinstance(a, Res):
        return Res(a.name, erase_lambda(a.body))
    return a


def format_causal(a: CausalProcess) -> str:
    if isinstance(a, Caused):
        inner = ",".join(str(k) for k in sorted(a.causes))
        return "{%s}::%s" % (inner, _tight(a.body))
    if isinstance(a, Par):
        return "%s | %s" % (format_causal(a.left), _tight(a.right))
    if isinstance(a, Res):
        return "nu %s.%s" % (a.name, _tight(a.body))
    return syntax.format(a)


def _tight(a: CausalProcess) -> str:
    return "(%s)" % format_causal(a) if isinstance(a, Par) else format_causal(a)


def gamma(label: Label) -> tuple[int | None, PiLabel]:
    """Map an engine label onto the reference semantics' label shape."""
    if isinstance(label.act, Tau):
        return (None, PiTau())
    return (label.key, syntax.erase_label(label))


# --------------------------------------------------------------------------- #
# Substitution on plain and causal terms
# --------------------------------------------------------------------------- #

def substitute_plain(p: Process, var: str, val: str) -> Process:
    """Key-free substitution of ``val`` for the variable ``var``."""
    return syntax.rebuild(p, names=lambda a: AnnotatedName(val) if a.name == var else a)


def _same(x):
    return x


def rebuild_causal(a: CausalProcess, causes=_same, plain=_same) -> CausalProcess:
    """Copy a causal term, mapping every cause set by ``causes`` and every
    prefix or ``0`` that no prefix holds by ``plain``; an omitted map is
    the identity."""
    if isinstance(a, Caused):
        return Caused(causes(a.causes), rebuild_causal(a.body, causes, plain))
    if isinstance(a, Par):
        return Par(rebuild_causal(a.left, causes, plain),
                   rebuild_causal(a.right, causes, plain))
    if isinstance(a, Res):
        return Res(a.name, rebuild_causal(a.body, causes, plain))
    return plain(a)


def replacing_cause(k: int, ks: frozenset):
    """The map of cause sets that replaces cause ``k`` by the set ``ks``."""
    return lambda causes: (causes - {k}) | ks if k in causes else causes


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
        used = cau(a)
    key = 1
    while key in used:
        key += 1
    steps = _bs(a, key)
    pairs = []
    for act, causes, tgt in steps:
        if isinstance(act, PiTau):
            pairs.append((BsLabel(None, act, frozenset()), tgt))
        else:
            pairs.append((BsLabel(key, act, causes), tgt))
    return syntax.sort_steps(
        pairs, lambda pr: (_pi_sort(pr[0].act), tuple(sorted(pr[0].causes))),
        lambda pr: format_causal(pr[1]))


def pi_transitions(p: Process) -> tuple[tuple[PiLabel, Process], ...]:
    """Standard late-semantics transitions of a plain process: the
    reference transitions of the term, with the causes erased."""
    # a plain term holds no cause, so key 1 is fresh
    return syntax.sort_steps(
        [(act, erase_lambda(tgt)) for act, _, tgt in _bs(p, 1)],
        lambda pr: _pi_sort(pr[0]), lambda pr: syntax.format(pr[1]))


def _pi_sort(label: PiLabel):
    if isinstance(label, PiFreeOut):
        return ("out", label.chan, label.datum)
    if isinstance(label, PiIn):
        return ("in", label.chan, label.binder)
    if isinstance(label, PiBoundOut):
        return ("boundout", label.chan, label.datum)
    return ("tau", "", "")


def _bs(a: CausalProcess, key: int) -> list[tuple[PiLabel, frozenset, CausalProcess]]:
    if isinstance(a, Output):
        act = PiFreeOut(a.chan.name, a.datum.name)
        return [(act, frozenset(), Caused(frozenset({key}), a.cont))]
    if isinstance(a, Input):
        act = PiIn(a.chan.name, a.binder)
        return [(act, frozenset(), Caused(frozenset({key}), a.cont))]
    if isinstance(a, Nil):
        return []

    if isinstance(a, Caused):
        # a visible action inherits the causes it fires under
        return [(act, causes if isinstance(act, PiTau) else causes | a.causes,
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
            if isinstance(act, PiTau):
                out.append((act, causes, Res(a.name, tgt)))
            elif isinstance(act, PiFreeOut) and act.datum == a.name and act.chan != a.name:
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
    if isinstance(label, PiTau):
        return set()
    names = {label.chan}
    if bound or isinstance(label, PiFreeOut):
        names.add(label.binder if isinstance(label, PiIn) else label.datum)
    return names


def _bs_sync(key: int, outs, ins, out_on_left: bool):
    # both premises fired with the same fresh key, which the conclusion
    # replaces by the opposite side's causes
    result = []
    for lo, ko, to in outs:
        if not isinstance(lo, (PiFreeOut, PiBoundOut)):
            continue
        for li, ki, ti in ins:
            if not isinstance(li, PiIn) or li.chan != lo.chan:
                continue
            out_half = rebuild_causal(to, causes=replacing_cause(key, ki))
            in_half = rebuild_causal(
                ti, causes=replacing_cause(key, ko),
                plain=lambda q: substitute_plain(q, li.binder, lo.datum))
            pair = Par(out_half, in_half) if out_on_left else Par(in_half, out_half)
            if isinstance(lo, PiFreeOut):
                result.append((PiTau(), frozenset(), pair))
            else:
                result.append((PiTau(), frozenset(), Res(lo.datum, pair)))
    return result


# --------------------------------------------------------------------------- #
# Object causality on reference traces
# --------------------------------------------------------------------------- #

def bs_object_caused(steps: Sequence[BsStep], m: int, n: int) -> bool:
    """Dependence of step ``n`` on step ``m`` through an introduced name
    (a fresh extrusion) or an introduced input variable."""
    if not m < n:
        return False
    act = steps[m].label.act
    if isinstance(act, PiBoundOut):
        name = act.datum
    elif isinstance(act, PiIn):
        name = act.binder
    else:
        return False
    if name in syntax.free_names(erase_lambda(steps[m].source)):
        return False
    if any(name in _label_names(steps[j].label.act, bound=True) for j in range(m)):
        return False
    return name in _label_names(steps[n].label.act)
