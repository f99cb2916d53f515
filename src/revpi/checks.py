"""Runnable property suites over bounded state spaces.

Each suite explores a process to a depth bound and returns a list of
violation records (empty means the property held on the explored
fragment): the do/undo bijection, the commuting-square property,
causal consistency of traces, decided by one normal form per trace
(folded from its prefix's), and the erasure bisimulation against the
reference semantics of ``bs`` with its causes erased.  The do/undo loop
and the bisimulation hold at a state exactly when they hold at every
renaming of its keys, so they visit one state per class
(``syntax.canonical_keys``).  The square walks every state: its filter
of do/undo pairs compares key values (see ``check_square``).  ``revpi
check`` runs them by name; the label-determinism check of the
acceptance criteria lives with the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable

from . import bs as bsmod
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
    expands.  An edge leads to the index of its target's class.
    """
    engine = Engine.of(engine)
    start = engine.initial(p)
    index = {start if up_to is None else up_to(start): 0}
    order = [start]
    edges: list[tuple[int, int, Transition]] = []
    frontier = deque([(start, 0, 0)])
    while frontier:
        x, a, d = frontier.popleft()
        if d >= depth:
            continue
        for t in engine.all(x):
            b = index.setdefault(t.target if up_to is None else up_to(t.target), len(order))
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
    vice versa, at one state of each class up to key renaming."""
    engine = Engine.of(engine)
    violations = []
    for x in reachable_states(p, engine, depth, syntax.canonical_keys):
        for t in engine.forward(x):
            rev = reverse_transition(t)
            if rev not in engine.backward(t.target):
                violations.append({
                    "state": syntax.format(x),
                    "reason": "forward step has no inverse",
                    "label": syntax.format(t.label),
                })
        for t in engine.backward(x):
            rev = reverse_transition(t)
            if rev not in engine.forward(t.target, t.label.key):
                violations.append({
                    "state": syntax.format(x),
                    "reason": "backward step has no inverse",
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
    """
    engine = Engine.of(engine)
    violations = []
    for x in reachable_states(p, engine, depth):
        for t1 in engine.all(x):
            for t2 in engine.all(t1.target):
                if t1.label.key == t2.label.key:
                    continue  # cancellation territory, not a square
                if not engine.concurrent(t1, t2):
                    continue
                try:
                    u1, u2 = traces.residual_swap(t1, t2, engine)
                except traces.SquareNotFoundError as exc:
                    violations.append({
                        "state": syntax.format(x),
                        "pair": [syntax.format(t1.label), syntax.format(t2.label)],
                        "reason": str(exc),
                    })
                    continue
                if u1.source != x or u2.target != t2.target:
                    violations.append({
                        "state": syntax.format(x),
                        "pair": [syntax.format(t1.label), syntax.format(t2.label)],
                        "reason": "square endpoints moved",
                    })
    return violations


# --------------------------------------------------------------------------- #
# Causal consistency
# --------------------------------------------------------------------------- #

def _all_traces(p: Process, engine: Engine,
                maxlen: int) -> list[tuple[Transition, ...]]:
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


def check_consistency(p: Process, engine: Run, maxlen: int = 4) -> list[dict]:
    """Coinitial cofinal traces of at most ``maxlen`` steps must be
    equivalent up to permutation: within each endpoint class, all members
    must have one normal form (``traces.NormalForm``).  A member without
    a form is a class of its own.

    This is one half of causal consistency.  The other half, that
    equivalent traces are cofinal, is not checked: traces of different
    endpoints are never compared, and the normal form is computed from
    label shapes and the dependence relation, not from validated swaps.

    Each trace's form is its prefix's extended by its last step, so a
    trace costs one step of the fold, not a pass over its steps.
    """
    engine = Engine.of(engine)
    violations = []
    forms = {(): traces.NormalForm()}
    groups: dict[RProcess, list[traces.NormalForm]] = {}
    for steps in _all_traces(p, engine, maxlen):
        value = forms[steps] = forms[steps[:-1]].then(steps[-1])
        groups.setdefault(steps[-1].target, []).append(value)
    for endpoint, members in groups.items():
        if len(members) < 2:
            continue
        found = [value.form() for value in members]
        classes = len(set(found) - {None}) + found.count(None)
        if classes > 1:
            violations.append({
                "endpoint": syntax.format(endpoint),
                "reason": "cofinal traces not equivalent up to permutation",
                "classes": classes,
                "traces": len(members),
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
    one state of each class up to key renaming (erasure drops the keys)."""
    engine = Engine.of(engine)
    violations = []
    pi_cache: dict[Process, tuple] = {}
    for x in reachable_states(p, engine, depth, syntax.canonical_keys):
        plain = syntax.erase(x)
        if plain not in pi_cache:
            pi_cache[plain] = bsmod.pi_transitions(plain)
        oracle = pi_cache[plain]
        image = {(syntax.erase_label(t.label), syntax.erase(t.target))
                 for t in engine.forward(x)}
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
