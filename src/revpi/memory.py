"""Extrusion memories: one class per shape, behind one interface.

Every restriction carries a memory recording which actions extruded its
name (the key set ``gamma``), plus the index its shape keeps beside it:

* ``RpiMemory`` -- a bare key set; any recorded extruder can serve as the
  contextual cause of a later action on the name.
* ``BscMemory`` -- a key set indexed by the first extruder; that one key
  is forced into every later cause set.
* ``DccMemory`` -- a key set indexed by the set of extruders still
  visible; the whole index set becomes the cause.

The rules and the causality judgement ask the memory, never its shape,
so a new shape is one more subclass of ``Memory``.  The shape is a
per-run configuration (``MemoryKind``), and the engine asks a kind for
nothing but its empty memory, ``kind.new()``.
"""

from __future__ import annotations

from enum import Enum

from . import syntax
from .syntax import STAR, STAR_SET, KeyOrStar, PastInput, PastPrefix, RProcess, render_key, key_sort


class MemoryKind(Enum):
    RPI = "rpi"
    BSC = "bsc"
    DCC = "dcc"

    def new(self) -> Memory:
        """The empty memory of this kind's shape."""
        return _EMPTY[self]


class DuplicateKeyError(ValueError):
    """Adding a key that is already recorded: an engine bug, not user error."""


@syntax.record
class Memory:
    """The extruders ``gamma`` of one restriction and the default answers.
    A shape adds ``render()``, ``add(i)``, its inverse ``remove_extruder(i)``
    and ``admissible_causes(k, host)``: the causes an action with cause ``k``
    may adopt as its subject crosses this non-empty restriction over ``host``.
    Every key a shape's fields hold, other than ``STAR``, is in ``gamma``,
    so a memory is empty exactly when ``gamma`` is, and the keys it
    mentions are ``gamma``'s."""

    gamma: frozenset = frozenset()

    def rename_keys(self, rename) -> Memory:
        """This memory with each key ``k`` of its fields replaced by
        ``rename(k)``, which must keep ``STAR``.  A field of every shape
        holds a key, ``STAR`` or a set of them, so no shape overrides it."""
        def renamed(v):
            return frozenset(map(rename, v)) if isinstance(v, frozenset) else rename(v)

        return type(self)(*map(renamed, self._parts()))

    def _gamma_text(self) -> str:
        return ",".join(str(k) for k in sorted(self.gamma))

    def _gamma_with(self, i: int) -> frozenset:
        if i in self.gamma:
            raise DuplicateKeyError("key %d is already recorded in %s" % (i, self.render()))
        return self.gamma | {i}

    def strip(self, i: int) -> Memory:
        """Forget ``i`` as an observable extruder (see ``strip_key``)."""
        return self

    def open_cause(self, k: frozenset) -> frozenset:
        """Cause update applied when a name is extruded across its restriction."""
        return k

    def open_cause_consistent(self, cause: frozenset) -> bool:
        """Whether an extrusion undo may leave this memory behind.

        The stored cause must still be producible by the cause update this
        crossing would apply when replayed; otherwise the memory has moved
        on (a later extrusion re-indexed it) and the undo must wait.
        """
        return True

    def refine_cause_consistent(self, cause: frozenset) -> bool:
        """Whether an action whose cause was refined at this memory may be
        undone: the cause must still contain what the refinement adds."""
        return True

    def interlocked(self, early: int, late: int, early_refined: bool) -> bool:
        """Whether the bookkeeping of this memory orders the actions keyed
        ``early`` and ``late``; ``early_refined``: the first one's cause was
        refined on this restriction's name."""
        return False

    def orders_extrusions(self, key: int) -> bool:
        """Whether the extrusion keyed ``key`` is recorded in a way that
        depends on the order of extrusions, so that undoing it and
        extruding the name afresh are never independent."""
        return False


@syntax.record
class RpiMemory(Memory):
    """The bare key set: any recorded extruder may serve as a cause."""

    def render(self) -> str:
        return "set{%s}" % self._gamma_text()

    def add(self, i: int) -> Memory:
        return RpiMemory(self._gamma_with(i))

    def remove_extruder(self, i: int) -> Memory:
        return RpiMemory(self.gamma - {i})

    def admissible_causes(self, k: frozenset, host: RProcess) -> list[frozenset]:
        """A choice: a still-unconstrained action must pick one recorded
        extruder; a constrained one may keep its cause or move to an
        extruder that its current cause instantiated."""
        if not self.gamma:
            raise ValueError("cause selection requires a non-empty memory")
        if k == STAR_SET:
            return [frozenset({g}) for g in sorted(self.gamma)]
        (current,) = [c for c in k if c is not STAR] or [None]
        moves = [frozenset({g}) for g in sorted(self.gamma)
                 if current is not None and instantiation_related(host, current, g)]
        return [k] + [c for c in moves if c != k]


@syntax.record
class BscMemory(Memory):
    """The key set indexed by the first extruder, forced into every later cause."""

    index: KeyOrStar = STAR  # the first extruder, while it is observable

    def render(self) -> str:
        return "iset{%s}@%s" % (self._gamma_text(), render_key(self.index))

    def add(self, i: int) -> Memory:
        return BscMemory(self._gamma_with(i), i if self.index is STAR else self.index)

    def remove_extruder(self, i: int) -> Memory:
        return BscMemory(self.gamma - {i}, STAR if self.index == i else self.index)

    def strip(self, i: int) -> Memory:
        return BscMemory(self.gamma, STAR) if self.index == i else self

    def admissible_causes(self, k: frozenset, host: RProcess) -> list[frozenset]:
        return [self.open_cause(k)]

    def open_cause(self, k: frozenset) -> frozenset:
        return k | {self.index}

    def open_cause_consistent(self, cause: frozenset) -> bool:
        return self.index is STAR or self.index in cause

    refine_cause_consistent = open_cause_consistent  # the index joins either way

    def interlocked(self, early: int, late: int, early_refined: bool) -> bool:
        # the bookkeeping blames whichever of two recorded extruders ran first
        return early in self.gamma and late in self.gamma

    def orders_extrusions(self, key: int) -> bool:
        return key in self.gamma


@syntax.record
class DccMemory(Memory):
    """The key set indexed by the extruders still visible, which become the cause."""

    index: frozenset = STAR_SET  # star and the extruders still visible

    def render(self) -> str:
        omega = ",".join(render_key(k) for k in sorted(self.index, key=key_sort))
        return "sset{%s}@{%s}" % (self._gamma_text(), omega)

    def add(self, i: int) -> Memory:
        return DccMemory(self._gamma_with(i), self.index | {i})

    def remove_extruder(self, i: int) -> Memory:
        return DccMemory(self.gamma - {i}, self.index - {i})

    def strip(self, i: int) -> Memory:
        return DccMemory(self.gamma, self.index - {i})

    def admissible_causes(self, k: frozenset, host: RProcess) -> list[frozenset]:
        return [k | self.index]

    def refine_cause_consistent(self, cause: frozenset) -> bool:
        return self.index <= cause

    def interlocked(self, early: int, late: int, early_refined: bool) -> bool:
        # a refined cause snapshots the extruders, which a later extrusion changes
        return late in self.gamma and early_refined


_EMPTY = {MemoryKind.RPI: RpiMemory(), MemoryKind.BSC: BscMemory(), MemoryKind.DCC: DccMemory()}


def strip_key(x: RProcess, i: int) -> RProcess:
    """Remove key ``i`` from every memory index in the term.

    Used when a scope-extruding communication closes over the context:
    the closing key stops being an observable extruder.  Undoing the close
    needs no inverse.  Only the restriction that records ``i`` can have
    ``i`` in its index, and the undo removes extruder ``i`` from that
    restriction with ``remove_extruder``, which drops ``i`` from the
    index too: the stripped and the unstripped memory give the same result.
    """
    return syntax.rebuild(x, mem=lambda m: m.strip(i),
                          keep=lambda t: i not in syntax.occurring_keys(t))


def instantiation_related(x: RProcess, i1: int, i2: int) -> bool:
    """True when the action keyed ``i2`` runs on a channel that the input
    keyed ``i1`` received: the substitution of ``i1`` instantiated it."""
    return any(
        isinstance(node, PastPrefix) and node.key == i2 and node.chan.inst == i1
        and any(isinstance(a, PastInput) and a.key == i1 for a in above)
        for node, _, above in syntax.history(x))
