"""Runnable property suites over bounded state spaces.

Each suite explores a process to a depth bound and returns a list of
violation records (empty means the property held on the explored
fragment): the do/undo bijection, the commuting-square property,
causal consistency of traces, decided by their normal forms over a walk
of (state, normal form) nodes, and the erasure bisimulation against the
reference semantics of ``bs`` with its causes erased.  The do/undo loop
and the bisimulation hold at a state exactly when they hold at every
renaming of its keys, so they visit one state per class
(``syntax.canonical_keys``).  The square walks every state: its filter
of do/undo pairs compares key values (see ``check_square``).  ``revpi
check`` runs them by name; the label-determinism check of the
acceptance criteria lives with the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Hashable, Iterator

from . import syntax, traces
from .engine import Engine
from .memory import MemoryKind
from .semantics import Transition, reverse_transition
# not called here any more (the engine calls it through ``semantics``), but
# perfbench's tracer test still looks the name up on this module
from .semantics import forward_transitions  # noqa: F401
from .syntax import Process, RProcess

# Every suite takes the run as an ``Engine``, whose answers it shares with
# whoever else holds that engine, or as a ``MemoryKind``, which starts a
# fresh engine of that kind for the one call.
Run = Engine | MemoryKind


def explore(p: Process, engine: Run, depth: int,
            up_to: Callable[[RProcess], Hashable] | None = None,
            ) -> tuple[list[RProcess], list[tuple[int, int, Transition]]]:
    """Breadth-first walk of the states reachable from the initial
    process in at most ``depth`` steps, forward and backward ones alike.

    Returns the states in discovery order and every transition out of a
    state fewer than ``depth`` steps away, as ``(source index, target
    index, transition)``.

    ``up_to``, if given, maps a state to its class, and the walk then
    holds one state per class: the first one it discovers, which it alone
    expands.  An edge leads to the index of its target's class.  Without
    it a state is known by its identity: equal terms of a run are one
    object (the engine's unique table), so the start and every target are
    the run's one instance of their state.
    """
    engine = Engine.of(engine)
    start = engine.initial(p)
    known = id if up_to is None else up_to
    index = {known(start): 0}
    order = [start]
    edges: list[tuple[int, int, Transition]] = []
    frontier = deque([(start, 0, 0)])
    while frontier:
        x, a, d = frontier.popleft()
        if d >= depth:
            continue
        for t in engine.all(x):
            b = index.setdefault(known(t.target), len(order))
            if b == len(order):
                order.append(t.target)
                frontier.append((t.target, b, d + 1))
            edges.append((a, b, t))
    return order, edges


def reachable_states(p: Process, engine: Run, depth: int,
                     up_to: Callable[[RProcess], Hashable] | None = None) -> list[RProcess]:
    """The states of ``explore``, in discovery order."""
    return explore(p, engine, depth, up_to)[0]


# --------------------------------------------------------------------------- #
# Do/undo bijection
# --------------------------------------------------------------------------- #

def check_loop(p: Process, engine: Run, depth: int) -> list[dict]:
    """Every forward step has a backward inverse with the same label, and
    vice versa, at one state of each class up to key renaming: the undo
    of every step is a step of its target."""
    engine = Engine.of(engine)
    violations = []
    for x in reachable_states(p, engine, depth, syntax.canonical_keys):
        for t in engine.all(x):
            undo = reverse_transition(t)
            if undo not in engine.steps(undo.source, undo.dir, undo.label.key):
                violations.append({
                    "state": syntax.format(x),
                    "reason": "%s step has no inverse" % t.dir.value,
                    "label": syntax.format(t.label),
                })
    return violations


# --------------------------------------------------------------------------- #
# Commuting squares
# --------------------------------------------------------------------------- #

def check_square(p: Process, engine: Run, depth: int) -> list[dict]:
    """Concurrent composable steps close a square, at every state.

    A pair whose second step carries the first one's key is skipped as a
    do/undo pair.  An undo of key ``k`` followed by a forward step reuses
    ``k`` exactly when ``k`` is the smallest free key, so which pairs are
    skipped depends on the key values, and two states that differ only
    by a renaming of keys may get different verdicts.  So the square is
    not checked up to key renaming.

    Each pair is judged once, by ``traces.residual_swap``, which rejects a
    dependent pair (``NotConcurrentError``) before it looks for the
    square.  The square it returns at a state is the mirror of the pair
    it closed, and that mirror is skipped when the walk meets it there:
    swapping the mirror would meet the original pair among its own
    candidates, and that pair closes it, so the skip hides no violation.
    The engine holds every transition it answers for the whole run, so
    a pair is known by the identities of its steps.
    """
    engine = Engine.of(engine)
    violations = []
    for x in reachable_states(p, engine, depth):
        closed = set()
        for t1 in engine.all(x):
            for t2 in engine.all(t1.target):
                if t1.label.key == t2.label.key or (id(t1), id(t2)) in closed:
                    continue  # a do/undo pair, or the mirror of a closed square
                try:
                    u1, u2 = traces.residual_swap(t1, t2, engine)
                except traces.NotConcurrentError:
                    continue
                except traces.SquareNotFoundError as exc:
                    violations.append({
                        "state": syntax.format(x),
                        "pair": [syntax.format(t1.label), syntax.format(t2.label)],
                        "reason": str(exc),
                    })
                    continue
                closed.add((id(u1), id(u2)))
    return violations


# --------------------------------------------------------------------------- #
# Causal consistency
# --------------------------------------------------------------------------- #

def _all_traces(p: Process, engine: Engine,
                maxlen: int) -> list[tuple[Transition, ...]]:
    """Every trace of ``p`` of 1 to ``maxlen`` steps, breadth first.  No
    suite enumerates traces: the tests hold the consistency walk to them,
    and the benchmark's tracer counts them by this name."""
    start = engine.initial(p)
    out: list[tuple[Transition, ...]] = []
    frontier: list[tuple[RProcess, tuple[Transition, ...]]] = [(start, ())]
    for _ in range(maxlen):
        nxt = []
        for state, steps in frontier:
            for t in engine.all(state):
                ext = steps + (t,)
                out.append(ext)
                nxt.append((t.target, ext))
        frontier = nxt
    return out


class _Node:
    """A node of the consistency walk: a state and the survivors of the
    normal form of the traces that reach it, with that ``form``; or, when
    an undo blocked, the node ``back`` it came from by the step ``last``,
    and no form."""

    __slots__ = ("state", "alive", "form", "back", "last")

    def __init__(self, state: RProcess, alive: tuple = (), form: tuple | None = None,
                 back: _Node | None = None, last: Transition | None = None):
        self.state = state
        self.alive = alive
        self.form = form
        self.back = back
        self.last = last

    def then(self, t: Transition, nodes: dict[tuple, _Node]) -> _Node:
        """The node the traces of this node reach by the step ``t``.

        ``nodes`` holds the walk's nodes with a form, by state and form,
        and one that the step reaches is that node.  A node without a
        form is new for each step, but a step that undoes ``last`` leads
        back to ``back``: the pair never happened."""
        if self.form is None and t == reverse_transition(self.last):
            return self.back
        alive = None if self.form is None else traces.extend(self.alive, t)
        if alive is None:
            return _Node(t.target, back=self, last=t)
        form = traces.form(alive)
        return nodes.setdefault((t.target, form), _Node(t.target, alive, form))


def _walk(p: Process, engine: Engine, maxlen: int) -> Iterator[Counter[_Node]]:
    """The traces of ``p`` of 1 to ``maxlen`` steps, walked breadth first
    as (state, normal form) nodes (``_Node``): one count per length, of
    the traces of that length that reach each node, listed in the order
    of the first such trace.

    Traces that reach one state with one form are one node, which keeps
    the survivors of the first; the tests hold the forms this gives to
    those of the traces one by one.  A trace whose undo blocked has no
    form, and its node is kept by identity: it remembers the node and the
    step it came from, and a step that undoes that step leads back there,
    as ``traces._closure_sets`` cancels an adjacent inverse pair.
    """
    nodes: dict[tuple, _Node] = {}
    level = {_Node(engine.initial(p), (), traces.form(())): 1}
    for _ in range(maxlen):
        nxt: Counter[_Node] = Counter()
        for n, paths in level.items():
            for t in engine.all(n.state):
                nxt[n.then(t, nodes)] += paths
        yield nxt
        level = nxt


def _endpoints(p: Process, engine: Engine, maxlen: int) -> dict[RProcess, Counter]:
    """Each endpoint of a trace of ``p`` of 1 to ``maxlen`` steps, in the
    order the first such trace reaches it, with the number of those
    traces that have each normal form, ``None`` for those without one."""
    groups: dict[RProcess, Counter] = {}
    for level in _walk(p, engine, maxlen):
        for n, paths in level.items():
            groups.setdefault(n.state, Counter())[n.form] += paths
    return groups


def check_consistency(p: Process, engine: Run, maxlen: int = 4) -> list[dict]:
    """Coinitial cofinal traces of at most ``maxlen`` steps must be
    equivalent up to permutation: all traces to one endpoint must have
    one normal form (``traces.extend``).  A trace without a form is a
    class of its own.

    This is one half of causal consistency.  The other half, that
    equivalent traces are cofinal, is not checked: the forms of different
    endpoints are never compared, and the normal form is computed from
    label shapes and the dependence relation, not from validated swaps.

    The traces are walked as (state, normal form) nodes (``_walk``), so a
    step costs once per node it leaves, not once per trace.  A record's
    ``traces`` counts the traces to its endpoint, and ``classes`` its
    distinct forms plus its traces without one.
    """
    violations = []
    for endpoint, forms in _endpoints(p, Engine.of(engine), maxlen).items():
        classes = len(forms.keys() - {None}) + forms[None]
        if classes > 1:
            violations.append({
                "endpoint": syntax.format(endpoint),
                "reason": "cofinal traces not equivalent up to permutation",
                "classes": classes,
                "traces": sum(forms.values()),
            })
    return violations


# --------------------------------------------------------------------------- #
# Erasure bisimulation
# --------------------------------------------------------------------------- #

def check_bisim(p: Process, engine: Run, depth: int) -> list[dict]:
    """The pairing of each reachable state with its erasure is a strong
    bisimulation between forward steps and the late-pi steps of the
    erasure, which are its reference (Boreale-Sangiorgi) steps with the
    causes erased (``bs.pi_transitions``).  Checked at
    one state of each class up to key renaming (erasure drops the keys).

    ``bs`` is imported here, so that the other suites do not load it."""
    from . import bs as bsmod

    engine = Engine.of(engine)
    violations = []
    pi_cache: dict[Process, tuple] = {}
    for x in reachable_states(p, engine, depth, syntax.canonical_keys):
        plain = syntax.erase(x)
        if plain not in pi_cache:
            pi_cache[plain] = bsmod.pi_transitions(plain)
        oracle = pi_cache[plain]
        image = dict.fromkeys((syntax.erase_label(t.label), syntax.erase(t.target))
                              for t in engine.forward(x))
        for pair in image:
            if pair not in oracle:
                violations.append({
                    "state": syntax.format(x),
                    "reason": "engine step missing from the oracle",
                    "label": str(pair[0]),
                })
        for pair in oracle:
            if pair not in image:
                violations.append({
                    "state": syntax.format(x),
                    "reason": "oracle step missing from the engine",
                    "label": str(pair[0]),
                })
    return violations
