"""One run of the engine: the memory kind and what the run has learnt.

The property suites ask the same questions of the same states again and
again: the transitions of a state, whether two composable steps are
concurrent, and the residual pair that commutes them.  An ``Engine``
answers each question once and remembers the answer for as long as it
lives.  Build one per checked term and let it go with the run; nothing is
kept at module level, so memory is bounded by the run.

On a miss the engine calls the uncached primitive through its module
(``semantics.forward_transitions``, ``semantics.backward_transitions``,
``causality.concurrent_pair``, ``traces.residual_swap``), so a function
patched or wrapped there is the one that runs.  A call that raises is not
remembered: asked again, the question raises again.
"""

from __future__ import annotations

from . import causality, semantics, traces
from .causality import Trace
from .memory import MemoryKind
from .semantics import Transition
from .syntax import RProcess


class Engine:
    """The memory kind of a run, with memo tables for its questions."""

    def __init__(self, kind: MemoryKind):
        self.kind = kind
        self._forward: dict[tuple[RProcess, int | None], tuple[Transition, ...]] = {}
        self._backward: dict[RProcess, tuple[Transition, ...]] = {}
        self._concurrent: dict[tuple[Transition, Transition], bool] = {}
        self._swaps: dict[tuple[Transition, Transition], tuple[Transition, ...]] = {}

    @classmethod
    def of(cls, run: Engine | MemoryKind) -> Engine:
        """``run`` itself if it is an engine, else a fresh engine of that kind."""
        return run if isinstance(run, Engine) else cls(run)

    def forward(self, x: RProcess, key: int | None = None) -> tuple[Transition, ...]:
        """``semantics.forward_transitions(x, kind, key)``."""
        memo = (x, key)
        out = self._forward.get(memo)
        if out is None:
            out = self._forward[memo] = semantics.forward_transitions(x, self.kind, key)
        return out

    def backward(self, x: RProcess) -> tuple[Transition, ...]:
        """``semantics.backward_transitions(x)``."""
        out = self._backward.get(x)
        if out is None:
            out = self._backward[x] = semantics.backward_transitions(x)
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

    def residual_swap(self, tr: Trace, at: int) -> Trace:
        """``traces.residual_swap(tr, at, self)``.

        The commuted pair depends on the two steps alone, so it is
        remembered by them and spliced into any trace that holds them.
        """
        memo = (tr[at], tr[at + 1])
        pair = self._swaps.get(memo)
        if pair is None:
            swapped = traces.residual_swap(tr, at, self)
            self._swaps[memo] = swapped.steps[at:at + 2]
            return swapped
        return Trace(tr.steps[:at] + pair + tr.steps[at + 2:])
