"""One run of the engine: the memory kind and what the run has learnt.

The property suites ask the same questions of the same states again and
again: the transitions of a state, and whether two composable steps are
concurrent.  An ``Engine`` answers each question once and remembers the
answer for as long as it lives.  Build one per checked term and let it
go with the run; nothing is kept at module level, so memory is bounded
by the run.

A run also holds one instance per state (hash-consing, per run).  The
rules build a new target for every step, although most steps reach a
state the run already holds.  The state table sits beside the premise
tables (``semantics.Premises.states``), and the enumeration points each
transition it builds at the table's instance of the target, so every
transition the engine answers points at the state itself, no step's
transition is built twice, and whatever is kept on a state -- its hash,
its rendering -- is computed once per run.

Below the states, a run keeps its premise tables (``semantics.Premises``):
the forward premises of each subterm it has met, by subterm and key, the
backward premises, by subterm, and the label half of each crossing of a
restriction, by name, memory and premise label.  The rules are
compositional, and every rewrite a step makes copies only the path to
what it changes (``syntax.rebuild``), so a successor shares every
untouched subtree with its source.  Enumerating a new state derives anew
only the subterms on the paths its step rebuilt; every other subterm
costs one lookup.  The bound outputs a restriction makes of its name are
one object per label and run, whichever state crossed it, so each one's
hash, sort key and rendering are computed once.

The concurrency of a pair is asked twice over by ``check_square``: once
to filter the pairs, once more by ``traces.residual_swap``, which
validates the pair it commutes.  The commuted pair itself is not
remembered: each pair the square meets is a new one.

On a miss the engine calls the primitive through its module
(``semantics.forward_transitions``, ``semantics.backward_transitions``,
``causality.concurrent_pair``; the two enumerations are handed the run's
premise tables), so a function patched or wrapped there is the one that
runs.  A call that raises is not remembered: asked again, the question
raises again.
"""

from __future__ import annotations

from . import causality, semantics, syntax
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
