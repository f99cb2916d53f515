"""Reference late causal semantics and the plain late-pi oracle.

Causal terms wrap plain processes in cause sets: ``K :: A`` records that
every action of ``A`` depends on the keys in ``K``.  Visible actions get
a fresh key and accumulate the cause sets they fire under; a silent step
carries no key and no causes but exchanges the two participants' cause
sets.  This module also houses a standard late-semantics transition
relation for plain processes, used as the erasure oracle.
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
class Plain:
    proc: Process


@dataclass(frozen=True)
class Caused:
    causes: frozenset
    body: "CausalProcess"


@dataclass(frozen=True)
class CPar:
    left: "CausalProcess"
    right: "CausalProcess"


@dataclass(frozen=True)
class CRes:
    name: str
    body: "CausalProcess"


CausalProcess = Union[Plain, Caused, CPar, CRes]


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


def lift_bs(p: Process) -> CausalProcess:
    """Embed a plain process, hoisting parallel and restriction structure."""
    if isinstance(p, Par):
        return CPar(lift_bs(p.left), lift_bs(p.right))
    if isinstance(p, Res):
        return CRes(p.name, lift_bs(p.body))
    return Plain(p)


def cau(a: CausalProcess) -> frozenset:
    """Union of every cause set in the term."""
    if isinstance(a, Plain):
        return frozenset()
    if isinstance(a, Caused):
        return a.causes | cau(a.body)
    if isinstance(a, CPar):
        return cau(a.left) | cau(a.right)
    if isinstance(a, CRes):
        return cau(a.body)
    raise TypeError(a)


def cause_replace(a: CausalProcess, k: int, ks: frozenset) -> CausalProcess:
    """Replace cause ``k`` by the set ``ks`` in every cause set holding it."""
    if isinstance(a, Plain):
        return a
    if isinstance(a, Caused):
        causes = (a.causes - {k}) | ks if k in a.causes else a.causes
        return Caused(causes, cause_replace(a.body, k, ks))
    if isinstance(a, CPar):
        return CPar(cause_replace(a.left, k, ks), cause_replace(a.right, k, ks))
    if isinstance(a, CRes):
        return CRes(a.name, cause_replace(a.body, k, ks))
    raise TypeError(a)


def erase_lambda(a: CausalProcess) -> Process:
    """Drop the cause annotations, keeping the process structure."""
    if isinstance(a, Plain):
        return a.proc
    if isinstance(a, Caused):
        return erase_lambda(a.body)
    if isinstance(a, CPar):
        return Par(erase_lambda(a.left), erase_lambda(a.right))
    if isinstance(a, CRes):
        return Res(a.name, erase_lambda(a.body))
    raise TypeError(a)


def format_causal(a: CausalProcess) -> str:
    if isinstance(a, Plain):
        return syntax.format(a.proc)
    if isinstance(a, Caused):
        inner = ",".join(str(k) for k in sorted(a.causes))
        return "{%s}::%s" % (inner, _tight(a.body))
    if isinstance(a, CPar):
        return "%s | %s" % (format_causal(a.left), _tight(a.right))
    if isinstance(a, CRes):
        return "nu %s.%s" % (a.name, _tight(a.body))
    raise TypeError(a)


def _tight(a: CausalProcess) -> str:
    needs = isinstance(a, CPar) or (isinstance(a, Plain) and isinstance(a.proc, Par))
    return "(%s)" % format_causal(a) if needs else format_causal(a)


def gamma(label: Label) -> tuple[int | None, PiLabel]:
    """Map an engine label onto the reference semantics' label shape."""
    if isinstance(label.act, Tau):
        return (None, PiTau())
    return (label.key, syntax.erase_label(label))


def _pi_label_json(label: PiLabel) -> dict:
    if isinstance(label, PiFreeOut):
        return {"kind": "out", "chan": label.chan, "datum": label.datum}
    if isinstance(label, PiIn):
        return {"kind": "in", "chan": label.chan, "datum": label.binder}
    if isinstance(label, PiBoundOut):
        return {"kind": "boundout", "chan": label.chan, "datum": label.datum}
    return {"kind": "tau"}


def bs_trace_json(steps: Sequence["BsStep"]) -> list[dict]:
    """Same schema as engine traces; silent steps have a null key."""
    return [
        {
            "dir": "forward",
            "key": s.label.key,
            "cause": sorted(s.label.causes),
            "inst": None,
            "act": _pi_label_json(s.label.act),
            "state": format_causal(s.target),
        }
        for s in steps
    ]


# --------------------------------------------------------------------------- #
# Substitution on plain / causal terms
# --------------------------------------------------------------------------- #

def substitute_plain(p: Process, var: str, val: str) -> Process:
    """Key-free substitution used by the plain oracle."""
    return syntax.rebuild(p, names=lambda a: AnnotatedName(val) if a.name == var else a)


def _subst_causal(a: CausalProcess, var: str, val: str) -> CausalProcess:
    if isinstance(a, Plain):
        return Plain(substitute_plain(a.proc, var, val))
    if isinstance(a, Caused):
        return Caused(a.causes, _subst_causal(a.body, var, val))
    if isinstance(a, CPar):
        return CPar(_subst_causal(a.left, var, val), _subst_causal(a.right, var, val))
    if isinstance(a, CRes):
        return CRes(a.name, _subst_causal(a.body, var, val))
    raise TypeError(a)


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


def _pi_sort(label: PiLabel):
    if isinstance(label, PiFreeOut):
        return ("out", label.chan, label.datum)
    if isinstance(label, PiIn):
        return ("in", label.chan, label.binder)
    if isinstance(label, PiBoundOut):
        return ("boundout", label.chan, label.datum)
    return ("tau", "", "")


def _bs(a: CausalProcess, key: int) -> list[tuple[PiLabel, frozenset, CausalProcess]]:
    if isinstance(a, Plain):
        p = a.proc
        if isinstance(p, Output):
            act = PiFreeOut(p.chan.name, p.datum.name)
            return [(act, frozenset(), Caused(frozenset({key}), lift_bs(p.cont)))]
        if isinstance(p, Input):
            act = PiIn(p.chan.name, p.binder)
            return [(act, frozenset(), Caused(frozenset({key}), lift_bs(p.cont)))]
        return []

    if isinstance(a, Caused):
        # a visible action inherits the causes it fires under
        return [(act, causes if isinstance(act, PiTau) else causes | a.causes,
                 Caused(a.causes, tgt))
                for act, causes, tgt in _bs(a.body, key)]

    if isinstance(a, CPar):
        lefts = _bs(a.left, key)
        rights = _bs(a.right, key)
        out = []
        for act, causes, tgt in lefts:
            out.append((act, causes, CPar(tgt, a.right)))
        for act, causes, tgt in rights:
            out.append((act, causes, CPar(a.left, tgt)))
        out.extend(_bs_sync(key, lefts, rights, out_on_left=True))
        out.extend(_bs_sync(key, rights, lefts, out_on_left=False))
        return out

    if isinstance(a, CRes):
        out = []
        for act, causes, tgt in _bs(a.body, key):
            if isinstance(act, PiTau):
                out.append((act, causes, CRes(a.name, tgt)))
            elif isinstance(act, PiFreeOut) and act.datum == a.name and act.chan != a.name:
                out.append((PiBoundOut(act.chan, act.datum), causes, tgt))
            elif a.name in _label_names(act):
                continue
            else:
                out.append((act, causes, CRes(a.name, tgt)))
        return out

    raise TypeError(a)


def _label_names(label: PiLabel) -> set[str]:
    if isinstance(label, PiFreeOut):
        return {label.chan, label.datum}
    if isinstance(label, PiIn):
        return {label.chan}
    if isinstance(label, PiBoundOut):
        return {label.chan, label.datum}
    return set()


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
            out_half = cause_replace(to, key, ki)
            in_half = _subst_causal(cause_replace(ti, key, ko), li.binder, lo.datum)
            pair = CPar(out_half, in_half) if out_on_left else CPar(in_half, out_half)
            if isinstance(lo, PiFreeOut):
                result.append((PiTau(), frozenset(), pair))
            else:
                result.append((PiTau(), frozenset(), CRes(lo.datum, pair)))
    return result


# --------------------------------------------------------------------------- #
# Object causality on reference traces
# --------------------------------------------------------------------------- #

def _free_names_causal(a: CausalProcess) -> set[str]:
    return syntax.free_names(erase_lambda(a))


def bs_object_caused(steps: Sequence[BsStep], m: int, n: int) -> bool:
    """Dependence of step ``n`` on step ``m`` through an introduced name
    (a fresh extrusion) or an introduced input variable."""
    if not m < n:
        return False
    lm = steps[m].label
    ln = steps[n].label
    if isinstance(lm.act, PiBoundOut):
        name = lm.act.datum
        if name in _free_names_causal(steps[m].source):
            return False
        if any(name in _label_all_names(steps[j].label.act) for j in range(m)):
            return False
        return name in _label_free_names(ln.act)
    if isinstance(lm.act, PiIn):
        var = lm.act.binder
        if var in _free_names_causal(steps[m].source):
            return False
        if any(var in _label_all_names(steps[j].label.act) for j in range(m)):
            return False
        return var in _label_free_names(ln.act)
    return False


def _label_free_names(label: PiLabel) -> set[str]:
    if isinstance(label, PiFreeOut):
        return {label.chan, label.datum}
    if isinstance(label, PiIn):
        return {label.chan}
    if isinstance(label, PiBoundOut):
        return {label.chan}
    return set()


def _label_all_names(label: PiLabel) -> set[str]:
    if isinstance(label, PiIn):
        return {label.chan, label.binder}
    return _label_names(label)


# --------------------------------------------------------------------------- #
# Plain late-pi oracle
# --------------------------------------------------------------------------- #

def pi_transitions(p: Process) -> tuple[tuple[PiLabel, Process], ...]:
    """Standard late-semantics transitions of a plain process."""
    return syntax.sort_steps(_pi(p), lambda pr: _pi_sort(pr[0]),
                             lambda pr: syntax.format(pr[1]))


def _pi(p: Process) -> list[tuple[PiLabel, Process]]:
    if isinstance(p, Nil):
        return []
    if isinstance(p, Output):
        return [(PiFreeOut(p.chan.name, p.datum.name), p.cont)]
    if isinstance(p, Input):
        return [(PiIn(p.chan.name, p.binder), p.cont)]
    if isinstance(p, Par):
        lefts = _pi(p.left)
        rights = _pi(p.right)
        out = []
        out.extend((lbl, Par(tgt, p.right)) for lbl, tgt in lefts)
        out.extend((lbl, Par(p.left, tgt)) for lbl, tgt in rights)
        out.extend(_pi_sync(lefts, rights, out_on_left=True))
        out.extend(_pi_sync(rights, lefts, out_on_left=False))
        return out
    if isinstance(p, Res):
        out = []
        for lbl, tgt in _pi(p.body):
            if isinstance(lbl, PiTau):
                out.append((lbl, Res(p.name, tgt)))
            elif isinstance(lbl, PiFreeOut) and lbl.datum == p.name and lbl.chan != p.name:
                out.append((PiBoundOut(lbl.chan, lbl.datum), tgt))
            elif p.name in _label_names(lbl):
                continue
            else:
                out.append((lbl, Res(p.name, tgt)))
        return out
    raise TypeError(p)


def _pi_sync(outs, ins, out_on_left: bool):
    result = []
    for lo, to in outs:
        if not isinstance(lo, (PiFreeOut, PiBoundOut)):
            continue
        for li, ti in ins:
            if not isinstance(li, PiIn) or li.chan != lo.chan:
                continue
            ti_sub = substitute_plain(ti, li.binder, lo.datum)
            pair = Par(to, ti_sub) if out_on_left else Par(ti_sub, to)
            if isinstance(lo, PiFreeOut):
                result.append((PiTau(), pair))
            else:
                result.append((PiTau(), Res(lo.datum, pair)))
    return result
