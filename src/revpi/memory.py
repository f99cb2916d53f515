"""Extrusion memories and the cause-selection predicates.

Every restriction carries a memory recording which actions extruded its
name.  Three interchangeable shapes are supported:

* ``rpi`` -- a bare key set; any recorded extruder can serve as the
  contextual cause of a later action on the name.
* ``bsc`` -- a key set indexed by the first extruder; that one key is
  forced into every later cause set.
* ``dcc`` -- a key set indexed by the set of extruders still visible;
  the whole index set becomes the cause.

The shape is a per-run configuration: all restrictions in one term use
the same kind.  This module is the engine's only plug-in point: every
decision that depends on the kind is made here, so a new memory shape
touches this file alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import syntax
from .syntax import STAR, STAR_SET, PastInput, PastPrefix, RProcess, render_key, key_sort


class MemoryKind(Enum):
    RPI = "rpi"
    BSC = "bsc"
    DCC = "dcc"


class DuplicateKeyError(ValueError):
    """Adding a key that is already recorded: an engine bug, not user error."""


@syntax.cached_hash
@dataclass(frozen=True)
class Memory:
    kind: MemoryKind
    gamma: frozenset = frozenset()
    index: object = None  # bsc: key or star; dcc: frozenset; rpi: None

    def __post_init__(self):
        if self.kind is MemoryKind.RPI:
            assert self.index is None
        elif self.kind is MemoryKind.BSC:
            assert self.index is STAR or isinstance(self.index, int)
        else:
            assert isinstance(self.index, frozenset) and STAR in self.index

    def is_empty(self) -> bool:
        if self.kind is MemoryKind.RPI:
            return not self.gamma
        if self.kind is MemoryKind.BSC:
            return not self.gamma and self.index is STAR
        return not self.gamma and self.index == STAR_SET

    def mentioned_keys(self) -> set[int]:
        out = set(self.gamma)
        if self.kind is MemoryKind.BSC and self.index is not STAR:
            out.add(self.index)
        if self.kind is MemoryKind.DCC:
            out |= {k for k in self.index if k is not STAR}
        return out

    def render(self) -> str:
        inner = ",".join(str(k) for k in sorted(self.gamma))
        if self.kind is MemoryKind.RPI:
            return "set{%s}" % inner
        if self.kind is MemoryKind.BSC:
            return "iset{%s}@%s" % (inner, render_key(self.index))
        omega = ",".join(render_key(k) for k in sorted(self.index, key=key_sort))
        return "sset{%s}@{%s}" % (inner, omega)


def mem_new(kind: MemoryKind) -> Memory:
    if kind is MemoryKind.RPI:
        return Memory(kind)
    if kind is MemoryKind.BSC:
        return Memory(kind, index=STAR)
    return Memory(kind, index=STAR_SET)


def mem_contains(m: Memory, i: int) -> bool:
    return i in m.gamma


def mem_add(m: Memory, i: int) -> Memory:
    """Record extruder ``i``; for bsc the first extruder becomes the index."""
    if i in m.gamma:
        raise DuplicateKeyError("key %d is already recorded in %s" % (i, m.render()))
    gamma = m.gamma | {i}
    if m.kind is MemoryKind.RPI:
        return Memory(m.kind, gamma)
    if m.kind is MemoryKind.BSC:
        return Memory(m.kind, gamma, i if m.index is STAR else m.index)
    return Memory(m.kind, gamma, m.index | {i})


def mem_remove_extruder(m: Memory, i: int) -> Memory:
    """Undo ``mem_add``; only meaningful right after the extrusion of ``i``."""
    gamma = m.gamma - {i}
    if m.kind is MemoryKind.RPI:
        return Memory(m.kind, gamma)
    if m.kind is MemoryKind.BSC:
        return Memory(m.kind, gamma, STAR if m.index == i else m.index)
    return Memory(m.kind, gamma, m.index - {i})


def _mem_strip(m: Memory, i: int) -> Memory:
    if m.kind is MemoryKind.RPI:
        return m
    if m.kind is MemoryKind.BSC:
        return Memory(m.kind, m.gamma, STAR) if m.index == i else m
    return Memory(m.kind, m.gamma, m.index - {i})


def strip_key(x: RProcess, i: int) -> RProcess:
    """Remove key ``i`` from every memory index in the term.

    Used when a scope-extruding communication closes over the context:
    the closing key stops being an observable extruder.  Undoing the close
    needs no inverse.  Only the restriction that records ``i`` can have
    ``i`` in its index, and the undo removes extruder ``i`` from that
    restriction with ``mem_remove_extruder``, which drops ``i`` from the
    index too: the stripped and the unstripped memory give the same result.
    """
    return syntax.rebuild(x, mem=lambda m: _mem_strip(m, i))


def instantiation_related(x: RProcess, i1: int, i2: int) -> bool:
    """True when the action keyed ``i2`` runs on a channel that the input
    keyed ``i1`` received: the substitution of ``i1`` instantiated it."""
    return any(
        isinstance(node, PastPrefix) and node.key == i2 and node.chan.inst == i1
        and any(isinstance(a, PastInput) and a.key == i1 for a in above)
        for node, _, above in syntax.history(x))


def admissible_causes(m: Memory, k: frozenset, host: RProcess) -> list[frozenset]:
    """Cause sets an action may adopt when its subject crosses a non-empty
    restriction.

    rpi offers a choice: a still-unconstrained action must pick one
    recorded extruder; a constrained one may keep its cause or move to an
    extruder that its current cause instantiated.  bsc and dcc are
    deterministic: union in the index.
    """
    if m.is_empty():
        raise ValueError("cause selection requires a non-empty memory")
    if m.kind is MemoryKind.BSC:
        return [k | {m.index}]
    if m.kind is MemoryKind.DCC:
        return [k | m.index]
    if k == STAR_SET:
        return [frozenset({g}) for g in sorted(m.gamma)]
    out = [k]
    (current,) = [c for c in k if c is not STAR] or [None]
    if current is not None:
        for g in sorted(m.gamma):
            if instantiation_related(host, current, g):
                cand = frozenset({g})
                if cand not in out:
                    out.append(cand)
    return out


def open_cause(m: Memory, k: frozenset) -> frozenset:
    """Cause update applied when a name is extruded across its restriction."""
    if m.kind is MemoryKind.BSC:
        return k | {m.index}
    return k


def open_cause_consistent(m: Memory, cause: frozenset) -> bool:
    """Whether an extrusion undo may leave memory ``m`` behind.

    The stored cause must still be producible by the cause update this
    crossing would apply when replayed; otherwise the memory has moved
    on (a later extrusion re-indexed it) and the undo must wait.
    """
    if m.kind is MemoryKind.BSC:
        return m.index is STAR or m.index in cause
    return True


def refine_cause_consistent(m: Memory, cause: frozenset) -> bool:
    """Whether an action whose cause was refined at memory ``m`` may be
    undone: the cause must still contain what the refinement adds."""
    if m.kind is MemoryKind.BSC:
        return m.index is STAR or m.index in cause
    if m.kind is MemoryKind.DCC:
        return m.index <= cause
    return True


def interlocked(m: Memory, early: int, late: int, early_refined: bool) -> bool:
    """Order dependence of the actions keyed ``early`` and ``late`` that
    the bookkeeping of one restriction's memory ``m`` induces.

    First-extruder memories: two actions recorded in one memory can never
    be exchanged (the bookkeeping blames whichever ran first).  Cause-set
    memories: an action whose cause was refined on this restriction's
    name (``early_refined``) fixes a snapshot of the extruder set, so it
    cannot be exchanged with a later extrusion of the same restriction.
    """
    if m.kind is MemoryKind.BSC:
        return early in m.gamma and late in m.gamma
    if m.kind is MemoryKind.DCC:
        return late in m.gamma and early_refined
    return False


def orders_extrusions(m: Memory, key: int) -> bool:
    """Whether ``m`` records the extrusion keyed ``key`` in a way that
    depends on the order of extrusions: a first-extruder memory, where
    undoing it and extruding the name afresh are never independent."""
    return m.kind is MemoryKind.BSC and key in m.gamma
