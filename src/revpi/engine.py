"""One run of the engine: the memory kind and everything the run has learnt.

The framework takes the extrusion memory as its one parameter, so a run
is fixed by one memory kind, and an ``Engine`` is that run: it holds the
kind and every table the run fills.  Build one per checked term and let
it go with the run; nothing is kept at module level, so memory is
bounded by the run.

The property suites ask the same questions of the same states again and
again: the transitions of a state, and whether two composable steps are
concurrent.  The engine answers each question once and remembers the
answer for as long as it lives.  The concurrency of a pair is asked
twice over by ``check_square``: once to filter the pairs, once more by
``traces.residual_swap``, which validates the pair it commutes.  The
commuted pair itself is not remembered: each pair the square meets is a
new one.

A run also holds one instance per state (hash-consing, per run), the
first one it met, in ``states``.  The rules build a new target for every
step, although most steps reach a state the run already holds; the
enumeration points each transition it builds at the table's instance of
the target, so every transition the engine answers points at the state
itself, no step's transition is built twice, and whatever is kept on a
state -- its hash, its rendering -- is computed once per run.

Below the states, a run keeps the tables the rules of ``semantics`` read
through it:

* the forward premises of each subterm it has met, by subterm and key,
  and the backward ones, by subterm: the computed table of a BDD
  package.  The rules are compositional, and every rewrite a step makes
  copies only the path to what it changes (``syntax.rebuild``), so a
  successor shares every untouched subtree with its source, and
  enumerating a new state derives anew only the subterms on the paths
  its step rebuilt.  The tables hold proper subterms only: the two
  enumerations apply the rule to the whole state themselves, because the
  engine's own memo answers a state asked again;
* the lifted continuation of each prefix that fired, by plain term,
  which is the same whatever key the prefix fires with;
* the label half of each crossing of a restriction, by the restriction's
  name and memory and the premise label: for an extrusion the bound
  output and the memory that records it, for a backward crossing each
  label it gives with the memory it leaves (none where it is blocked).
  Each bound output these make is kept as one instance, so every state
  that crosses the restriction with equal labels, and an extrusion and
  its undo, share one label object with its kept hash and sort key.
  Refinement reads the restriction's body (``admissible_causes``) and is
  not among them.

On a miss the engine calls the primitive through its module
(``semantics.forward_transitions``, ``backward_transitions``,
``_forward``, ``_backward``, ``_extrude``, ``_cross_restriction_back``,
``causality.concurrent_pair``), so a function patched or wrapped there
is the one that runs.  A call that raises is not remembered: asked
again, the question raises again.
"""

from __future__ import annotations

from . import causality, semantics, syntax
from .memory import Memory, MemoryKind
from .semantics import Transition
from .syntax import Label, Process, RProcess, RRes

Steps = tuple[tuple[Label, RProcess], ...]


class Engine:
    """One run: its memory kind, its state and premise tables, and the
    memos of its questions."""

    def __init__(self, kind: MemoryKind):
        self.kind = kind
        self.states: dict[RProcess, RProcess] = {}
        self._forward_premises: dict[tuple[RProcess, int], Steps] = {}
        self._backward_premises: dict[RProcess, Steps] = {}
        self._lifted: dict[Process, RProcess] = {}
        self._extruded: dict[tuple[str, Memory, Label], tuple[Label, Memory]] = {}
        self._crossed_back: dict[tuple[str, Memory, Label], tuple[tuple[Label, Memory], ...]] = {}
        self._crossed: dict[Label, Label] = {}
        self._forward: dict[tuple[RProcess, int], tuple[Transition, ...]] = {}
        self._backward: dict[RProcess, tuple[Transition, ...]] = {}
        self._concurrent: dict[tuple[Transition, Transition], bool] = {}

    @classmethod
    def of(cls, run: Engine | MemoryKind) -> Engine:
        """``run`` itself if it is an engine, else a fresh engine of that kind."""
        return run if isinstance(run, Engine) else cls(run)

    def _state(self, x: RProcess) -> RProcess:
        """The run's instance of the state ``x``: the first one it met."""
        return self.states.setdefault(x, x)

    def initial(self, p: Process) -> RProcess:
        """The state a run of ``p`` starts from, ``syntax.initial(p, kind)``."""
        return self._state(syntax.initial(p, self.kind))

    def forward(self, x: RProcess, key: int | None = None) -> tuple[Transition, ...]:
        """``semantics.forward_transitions(x, kind, key)``.

        An absent ``key`` is the fresh one, ``syntax.fresh_key(x)``, so the
        question asked without a key and the one asked with the fresh key
        share their answer.
        """
        if key is None:
            key = syntax.fresh_key(x)
        memo = (x, key)
        out = self._forward.get(memo)
        if out is None:
            out = self._forward[memo] = semantics.forward_transitions(
                self._state(x), self.kind, key, self)
        return out

    def backward(self, x: RProcess) -> tuple[Transition, ...]:
        """``semantics.backward_transitions(x)``."""
        out = self._backward.get(x)
        if out is None:
            out = self._backward[x] = semantics.backward_transitions(self._state(x), self)
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

    def forward_premises(self, x: RProcess, key: int) -> Steps:
        """The ``(label, target)`` premises of the subterm ``x`` firing ``key``."""
        memo = (x, key)
        out = self._forward_premises.get(memo)
        if out is None:
            out = self._forward_premises[memo] = semantics._forward(x, key, self)
        return out

    def backward_premises(self, x: RProcess) -> Steps:
        """The ``(label, target)`` premises of the subterm ``x`` undoing a step."""
        out = self._backward_premises.get(x)
        if out is None:
            out = self._backward_premises[x] = semantics._backward(x, self)
        return out

    def lift(self, p: Process) -> RProcess:
        """``syntax.lift(p, kind)``, the continuation of a firing prefix."""
        out = self._lifted.get(p)
        if out is None:
            out = self._lifted[p] = syntax.lift(p, self.kind)
        return out

    def extrude(self, a: str, m: Memory, lbl: Label) -> tuple[Label, Memory]:
        """``semantics._extrude(a, m, lbl)``, with the run's one instance of
        the bound output."""
        memo = (a, m, lbl)
        out = self._extruded.get(memo)
        if out is None:
            new_lbl, recorded = semantics._extrude(a, m, lbl)
            out = self._extruded[memo] = (self._shared(new_lbl), recorded)
        return out

    def cross_back(self, res: RRes, lbl: Label, tgt: RProcess) -> list[tuple[Label, RProcess]]:
        """``semantics._cross_restriction_back(res, lbl, tgt)``.  Its labels,
        and the memories of the restrictions it puts around ``tgt``, depend
        on the name and memory of ``res`` and on ``lbl`` alone, so the rule
        runs once per run for them."""
        a = res.name
        memo = (a, res.mem, lbl)
        out = self._crossed_back.get(memo)
        if out is None:
            out = self._crossed_back[memo] = tuple(
                (new_lbl if new_lbl is lbl else self._shared(new_lbl), new_tgt.mem)
                for new_lbl, new_tgt in semantics._cross_restriction_back(res, lbl, tgt))
        return [(new_lbl, RRes(a, m, tgt)) for new_lbl, m in out]

    def _shared(self, lbl: Label) -> Label:
        """The run's one instance of a bound output made at a restriction."""
        return self._crossed.setdefault(lbl, lbl)
