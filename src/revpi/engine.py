"""One run of the engine: the memory kind and what the run has learnt.

The property suites ask the same questions of the same states again and
again: the transitions of a state, whether two composable steps are
concurrent, and the residual pair that commutes them.  An ``Engine``
answers each question once and remembers the answer for as long as it
lives.  Build one per checked term and let it go with the run; nothing is
kept at module level, so memory is bounded by the run.

A run also holds one instance per state (hash-consing, per run).  The
rules build a new target for every step, although most steps reach a
state the run already holds.  The state table sits beside the premise
tables (``semantics.Premises.states``), and the enumeration points each
transition it builds at the table's instance of the target, so every
transition the engine answers points at the state itself, no step's
transition is built twice, and whatever is kept on a state -- its hash,
its rendering -- is computed once per run.

Below the states, a run keeps its premise tables (``semantics.Premises``):
the forward premises of each subterm it has met, by subterm and key, and
the backward premises, by subterm.  The rules are compositional and a
successor shares every untouched subtree with its source, so enumerating
a new state derives anew only the subterms on the paths its step
rebuilt; every other subterm costs one lookup.

The commuted pair of two concurrent steps depends on the steps alone:
``residual_swap(t1, t2)`` remembers it by them, and ``check_square`` and
the rewrite closure of ``check_consistency`` splice it where they need
it.  The closure keys a trace by its target and the step-shape id of
each step, an ``int`` the engine interns per ``(dir, label_shape(label))``
and keeps on the step (``shape``).

On a miss the engine calls the primitive through its module
(``semantics.forward_transitions``, ``semantics.backward_transitions``,
``causality.concurrent_pair``, ``traces.residual_swap``; the two
enumerations are handed the run's premise tables), so a function patched
or wrapped there is the one that runs.  A call that raises is not
remembered: asked again, the question raises again.
"""

from __future__ import annotations

from . import causality, semantics, syntax, traces
from .causality import Trace, label_shape
from .memory import MemoryKind
from .semantics import Transition
from .syntax import Process, RProcess


class Engine:
    """The memory kind of a run, with memo tables for its questions."""

    def __init__(self, kind: MemoryKind):
        self.kind = kind
        self._premises = semantics.Premises()
        self._states = self._premises.states
        self._initial: dict[Process, RProcess] = {}
        self._forward: dict[tuple[RProcess, int], tuple[Transition, ...]] = {}
        self._backward: dict[RProcess, tuple[Transition, ...]] = {}
        self._concurrent: dict[tuple[Transition, Transition], bool] = {}
        self._swaps: dict[tuple[Transition, Transition], tuple[Transition, ...]] = {}
        self._shapes: dict[tuple, int] = {}

    @classmethod
    def of(cls, run: Engine | MemoryKind) -> Engine:
        """``run`` itself if it is an engine, else a fresh engine of that kind."""
        return run if isinstance(run, Engine) else cls(run)

    def _state(self, x: RProcess) -> RProcess:
        """The run's instance of the state ``x``: the first one it met."""
        return self._states.setdefault(x, x)

    def initial(self, p: Process) -> RProcess:
        """The state a run of ``p`` starts from, ``syntax.initial(p, kind)``,
        lifted once per run."""
        out = self._initial.get(p)
        if out is None:
            out = self._initial[p] = self._state(syntax.initial(p, self.kind))
        return out

    def forward(self, x: RProcess, key: int | None = None) -> tuple[Transition, ...]:
        """``semantics.forward_transitions(x, kind, key)``.

        An absent ``key`` is the fresh one, ``syntax.fresh_key(x)``, so the
        question asked without a key and the one asked with the fresh key
        share their answer.
        """
        fresh = key is None
        if fresh:
            key = syntax.fresh_key(x)
        memo = (x, key)
        out = self._forward.get(memo)
        if out is None:
            out = self._forward[memo] = semantics.forward_transitions(
                self._state(x), self.kind, key, self._premises, fresh=fresh)
        return out

    def backward(self, x: RProcess) -> tuple[Transition, ...]:
        """``semantics.backward_transitions(x)``."""
        out = self._backward.get(x)
        if out is None:
            out = self._backward[x] = semantics.backward_transitions(
                self._state(x), self._premises)
        return out

    def all(self, x: RProcess) -> tuple[Transition, ...]:
        return self.forward(x) + self.backward(x)

    def concurrent(self, t1: Transition, t2: Transition) -> bool:
        """``causality.concurrent_pair(t1, t2)``."""
        memo = (t1, t2)
        out = self._concurrent.get(memo)
        if out is None:
            out = self._concurrent[memo] = causality.concurrent_pair(t1, t2)
        return out

    def residual_swap(self, t1: Transition, t2: Transition) -> tuple[Transition, ...]:
        """The commuted pair of ``traces.residual_swap(Trace((t1, t2)), 0,
        self)``.

        The pair depends on the two steps alone, so it is remembered by
        them and spliced into any trace that holds them.
        """
        memo = (t1, t2)
        pair = self._swaps.get(memo)
        if pair is None:
            pair = self._swaps[memo] = traces.residual_swap(Trace(memo), 0, self).steps
        return pair

    def shape(self, t: Transition) -> int:
        """The run's step-shape id of ``t``: one ``int`` per distinct
        ``(dir, label_shape(label))``, kept on the step with the table
        that gave it, so a step another run stamped is interned anew."""
        kept = t.__dict__.get("_shape")
        if kept is not None and kept[0] is self._shapes:
            return kept[1]
        shapes = self._shapes
        out = shapes.setdefault((t.dir, label_shape(t.label)), len(shapes))
        t.__dict__["_shape"] = (shapes, out)
        return out
