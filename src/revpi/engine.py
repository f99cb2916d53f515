"""One run of the engine: the memory kind and everything the run has learnt.

The framework takes the extrusion memory as its one parameter, so a run
is fixed by one memory kind, and an ``Engine`` is that run: it holds the
kind and every table the run fills.  Build one per checked term and let
it go with the run; nothing is kept at module level, so memory is
bounded by the run.

The property suites ask the same questions of the same states again and
again: the transitions of a state.  The engine answers each question
once and remembers the answer for as long as it lives.

Below the memos, a run holds one instance of every term node it meets,
in one unique table (hash-consing, per run: Filliatre and Conchon, ML
Workshop 2006).  A node's key is its class, its atomic fields and the
identities of its children, which are nodes of the run, so a lookup
hashes a few fields and never a whole term.  The fields are read off
the node's record (``_parts()`` of ``syntax.record``, where the one
child of a prefix or a restriction comes last), so the table cannot
list them otherwise than the node's equality does.  The rules build
every node of a target through the table (``par``, ``node``, ``past``),
and every term a rewrite returns goes through one walk (``canon``) that
stops at the first node the table holds, so it visits only the path the
rewrite copied, and adopts a new node whose children are the run's own
as it is.  The same walk runs where a term enters the run: ``initial``,
``forward``, ``backward`` and the continuation a firing prefix lifts.
So equal terms of a run are one object: a step whose target the run
already holds builds nothing and finds that state, every transition
points at the run's one instance of its source and target, and whatever
is kept on a node -- its hash, its rendering -- is computed once per
run.  The table keeps every node alive for the run, so the memos and
premise tables key a node by its identity.  Each node the table holds
keeps the run's tag, as a fold keeps its value on the node
(``syntax.kept_on_node``), so the walk knows the run's own nodes without
a lookup; a node two runs met keeps the later run's tag, and the other
finds it through its table.  The nodes keep their structural
``__eq__`` and ``__hash__``, so every order, every rendering and every
digest is the one a structural table would give.

Beside the unique table, a run keeps the tables the rules of
``semantics`` read through it:

* the forward premises of each subterm it has met, by subterm and key,
  and the backward ones, by subterm: the computed table of a BDD
  package, which sits beside its unique table (Bryant, IEEE ToC 1986).
  The rules are compositional, and every rewrite a step makes copies
  only the path to what it changes (``syntax.rebuild``), so a successor
  shares every untouched subtree with its source, and enumerating a new
  state derives anew only the subterms on the paths its step rebuilt.
  The tables hold proper subterms only: the two enumerations apply the
  rule to the whole state themselves, because the engine's own memo
  answers a state asked again;
* the label half of each crossing of a restriction, by the crossing
  rule, the restriction's name and memory and the premise label: each
  label the crossing gives with the memory it leaves the restriction
  (for an extrusion, the bound output and the memory that records it;
  for a backward crossing, none where it is blocked).  So every state
  that crosses the restriction one way with equal labels shares one
  label object with its kept hash and sort key.  Refinement reads the
  restriction's body (``admissible_causes``) and is not among them.

On a miss the engine calls the primitive through its module
(``semantics.forward_transitions``, ``backward_transitions``,
``_forward``, ``_backward``), or the crossing rule the rules look up in
``semantics`` as they call (``_extrude``, ``_cross_restriction_back``),
so a function patched or wrapped there is the one that runs.  A call
that raises is not remembered: asked again, the question raises again.
"""

from __future__ import annotations

from typing import Callable

from . import semantics, syntax
from .memory import Memory, MemoryKind
from .semantics import Transition
from .syntax import Direction, Label, Nil, Par, PastPrefix, Process, RProcess

Steps = tuple[tuple[Label, RProcess], ...]
Crossing = tuple[tuple[Label, Memory], ...]


class Engine:
    """One run: its memory kind, its unique table of nodes, its premise
    tables, and the memos of its questions."""

    def __init__(self, kind: MemoryKind):
        self.kind = kind
        self._nodes: dict[tuple, RProcess] = {}  # the unique table
        self._tag = object()  # kept on each node of the table, as ``_run``
        self._forward_premises: dict[tuple[int, int], Steps] = {}
        self._backward_premises: dict[int, Steps] = {}
        self._crossings: dict[tuple, Crossing] = {}
        self._forward: dict[tuple[int, int], tuple[Transition, ...]] = {}
        self._backward: dict[int, tuple[Transition, ...]] = {}

    @classmethod
    def of(cls, run: Engine | MemoryKind) -> Engine:
        """``run`` itself if it is an engine, else a fresh engine of that kind."""
        return run if isinstance(run, Engine) else cls(run)

    # -- the unique table ------------------------------------------------- #

    def par(self, left: RProcess, right: RProcess) -> Par:
        """The run's node ``left | right`` of two nodes of the run."""
        key = (Par, id(left), id(right))
        out = self._nodes.get(key)
        if out is None:
            out = self._nodes[key] = Par(left, right)
            out.__dict__["_run"] = self._tag
        return out

    def node(self, cls: type, atoms: tuple, child: RProcess) -> RProcess:
        """The run's node ``cls(*atoms, child)`` of a class whose one child,
        a node of the run, comes after its atomic fields ``atoms``: a
        restriction or a prefix."""
        key = (cls, *atoms, id(child))
        out = self._nodes.get(key)
        if out is None:
            out = self._nodes[key] = cls(*atoms, child)
            out.__dict__["_run"] = self._tag
        return out

    def past(self, x: PastPrefix, cont: RProcess) -> PastPrefix:
        """The run's node of the past prefix ``x`` over ``cont``, a node of
        the run."""
        return self.node(x.__class__, x._parts()[:-1], cont)

    def canon(self, t: RProcess) -> RProcess:
        """The run's one instance of the term ``t``.

        The walk stops at a node with the run's tag, one the table holds,
        so it visits only what a rewrite copied.  Below that, a node whose
        children are the run's own is adopted as it is where the table
        lacks it, and a node with a child the table held as another
        instance is rebuilt over that one.
        """
        if t.__dict__.get("_run") is self._tag:
            return t
        cls = t.__class__
        if cls is Par:
            left, right = self.canon(t.left), self.canon(t.right)
            if left is not t.left or right is not t.right:
                return self.par(left, right)
            key = (Par, id(left), id(right))
        elif cls is Nil:
            key = (Nil,)
        else:
            parts = t._parts()
            atoms, child = parts[:-1], parts[-1]
            kid = self.canon(child)
            if kid is not child:
                return self.node(cls, atoms, kid)
            key = (cls, *atoms, id(kid))
        out = self._nodes.setdefault(key, t)
        if out is t:
            t.__dict__["_run"] = self._tag
        return out

    # -- the questions of a run ------------------------------------------- #

    def initial(self, p: Process) -> RProcess:
        """The state a run of ``p`` starts from, ``syntax.initial(p, kind)``."""
        return self.canon(syntax.initial(p, self.kind))

    def forward(self, x: RProcess, key: int | None = None) -> tuple[Transition, ...]:
        """``semantics.forward_transitions(x, kind, key)``.

        An absent ``key`` is the fresh one, ``syntax.fresh_key(x)``, so the
        question asked without a key and the one asked with the fresh key
        share their answer.
        """
        if x.__dict__.get("_run") is not self._tag:
            x = self.canon(x)
        if key is None:
            key = syntax.fresh_key(x)
        memo = (id(x), key)
        out = self._forward.get(memo)
        if out is None:
            out = self._forward[memo] = semantics.forward_transitions(x, self.kind, key, self)
        return out

    def backward(self, x: RProcess) -> tuple[Transition, ...]:
        """``semantics.backward_transitions(x)``."""
        if x.__dict__.get("_run") is not self._tag:
            x = self.canon(x)
        out = self._backward.get(id(x))
        if out is None:
            out = self._backward[id(x)] = semantics.backward_transitions(x, self)
        return out

    def steps(self, x: RProcess, direction: Direction, key: int) -> tuple[Transition, ...]:
        """The steps of ``x`` in ``direction``: ``forward(x, key)``, or
        ``backward(x)``, which undoes any key ``x`` holds and so ignores
        ``key``.  The one place a caller's direction picks the question."""
        if direction is Direction.FORWARD:
            return self.forward(x, key)
        return self.backward(x)

    def all(self, x: RProcess) -> tuple[Transition, ...]:
        return self.forward(x) + self.backward(x)

    def forward_premises(self, x: RProcess, key: int) -> Steps:
        """The ``(label, target)`` premises of the subterm ``x``, a node of
        the run, firing ``key``."""
        memo = (id(x), key)
        out = self._forward_premises.get(memo)
        if out is None:
            out = self._forward_premises[memo] = semantics._forward(x, key, self)
        return out

    def backward_premises(self, x: RProcess) -> Steps:
        """The ``(label, target)`` premises of the subterm ``x``, a node of
        the run, undoing a step."""
        out = self._backward_premises.get(id(x))
        if out is None:
            out = self._backward_premises[id(x)] = semantics._backward(x, self)
        return out

    def crossing(self, rule: Callable[[str, Memory, Label], Crossing],
                 a: str, m: Memory, lbl: Label) -> Crossing:
        """``rule(a, m, lbl)``: the ``(label, memory)`` pairs of the premise
        label ``lbl`` crossing the restriction of ``a`` with memory ``m``
        by a crossing rule of ``semantics``."""
        memo = (rule, a, m, lbl)
        out = self._crossings.get(memo)
        if out is None:
            out = self._crossings[memo] = rule(a, m, lbl)
        return out
