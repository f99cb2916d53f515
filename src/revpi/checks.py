"""Runnable property suites over bounded state spaces.

Each suite explores a process to a depth bound and returns a list of
violation records (empty means the property held on the explored
fragment): the do/undo bijection, the commuting-square property,
causal consistency of traces, label determinism, and the erasure
bisimulation against the plain late-pi oracle.
"""

from __future__ import annotations

from collections import deque

from . import bs as bsmod
from . import causality, semantics, syntax, traces
from .causality import Trace
from .memory import MemoryKind
from .semantics import Transition, backward_transitions, forward_transitions
from .syntax import Process, RProcess


class _LTS:
    """Transition cache so the suites do not re-enumerate states."""

    def __init__(self, kind: MemoryKind):
        self.kind = kind
        self._fwd: dict[RProcess, tuple[Transition, ...]] = {}
        self._bwd: dict[RProcess, tuple[Transition, ...]] = {}

    def forward(self, x: RProcess) -> tuple[Transition, ...]:
        if x not in self._fwd:
            self._fwd[x] = forward_transitions(x, self.kind)
        return self._fwd[x]

    def backward(self, x: RProcess) -> tuple[Transition, ...]:
        if x not in self._bwd:
            self._bwd[x] = backward_transitions(x)
        return self._bwd[x]

    def all(self, x: RProcess) -> tuple[Transition, ...]:
        return self.forward(x) + self.backward(x)


def reachable_states(p: Process, kind: MemoryKind, depth: int,
                     lts: _LTS | None = None) -> list[RProcess]:
    """States reachable from the initial process in at most ``depth``
    steps, forward and backward ones alike, in discovery order."""
    lts = lts or _LTS(kind)
    start = syntax.initial(p, kind)
    seen = {start}
    order = [start]
    frontier = deque([(start, 0)])
    while frontier:
        x, d = frontier.popleft()
        if d >= depth:
            continue
        for t in lts.all(x):
            if t.target not in seen:
                seen.add(t.target)
                order.append(t.target)
                frontier.append((t.target, d + 1))
    return order


# --------------------------------------------------------------------------- #
# Do/undo bijection
# --------------------------------------------------------------------------- #

def check_loop(p: Process, kind: MemoryKind, depth: int) -> list[dict]:
    lts = _LTS(kind)
    violations = []
    for x in reachable_states(p, kind, depth, lts):
        for t in lts.forward(x):
            rev = traces.reverse_transition(t)
            if rev not in lts.backward(t.target):
                violations.append({
                    "state": syntax.format(x),
                    "reason": "forward step has no inverse",
                    "label": syntax.format(t.label),
                })
        for t in lts.backward(x):
            rev = traces.reverse_transition(t)
            redo = forward_transitions(t.target, kind, key=t.label.key)
            if rev not in redo:
                violations.append({
                    "state": syntax.format(x),
                    "reason": "backward step has no inverse",
                    "label": syntax.format(t.label),
                })
    return violations


# --------------------------------------------------------------------------- #
# Commuting squares
# --------------------------------------------------------------------------- #

def check_square(p: Process, kind: MemoryKind, depth: int) -> list[dict]:
    lts = _LTS(kind)
    violations = []
    for x in reachable_states(p, kind, depth, lts):
        for t1 in lts.all(x):
            for t2 in lts.all(t1.target):
                if t1.label.key == t2.label.key:
                    continue  # cancellation territory, not a square
                if not causality.concurrent_pair(t1, t2):
                    continue
                tr = Trace((t1, t2))
                try:
                    swapped = traces.residual_swap(tr, 0, kind)
                except traces.SquareNotFoundError as exc:
                    violations.append({
                        "state": syntax.format(x),
                        "pair": [syntax.format(t1.label), syntax.format(t2.label)],
                        "reason": str(exc),
                    })
                    continue
                if swapped.source != x or swapped.target != t2.target:
                    violations.append({
                        "state": syntax.format(x),
                        "pair": [syntax.format(t1.label), syntax.format(t2.label)],
                        "reason": "square endpoints moved",
                    })
    return violations


# --------------------------------------------------------------------------- #
# Causal consistency
# --------------------------------------------------------------------------- #

def _all_traces(p: Process, kind: MemoryKind, maxlen: int,
                lts: _LTS) -> list[tuple[Transition, ...]]:
    start = syntax.initial(p, kind)
    out: list[tuple[Transition, ...]] = []
    frontier: list[tuple[RProcess, tuple[Transition, ...]]] = [(start, ())]
    for _ in range(maxlen):
        nxt = []
        for state, steps in frontier:
            for t in lts.all(state):
                ext = steps + (t,)
                out.append(ext)
                nxt.append((t.target, ext))
        frontier = nxt
    return out


def check_consistency(p: Process, kind: MemoryKind, maxlen: int = 4,
                      budget: int = 32) -> list[dict]:
    """Coinitial traces must be cofinal exactly when they are equivalent
    up to permutation.

    Non-cofinal pairs are inequivalent by construction, so the work is
    within each endpoint class: the swap/cancel closures of all members
    must overlap pairwise (checked through a union-find over closure
    keys, which is the pairwise meet-in-the-middle search done once).
    """
    lts = _LTS(kind)
    violations = []
    groups: dict[RProcess, list[tuple[Transition, ...]]] = {}
    for steps in _all_traces(p, kind, maxlen, lts):
        groups.setdefault(steps[-1].target, []).append(steps)
    for endpoint, members in groups.items():
        if len(members) < 2:
            continue
        roots: dict = {}
        comp: dict[int, int] = {}

        def find(i: int) -> int:
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return i

        for idx, steps in enumerate(members):
            comp[idx] = idx
            tr = Trace(steps)
            closure, saturated = traces._closure_sets(tr, budget, kind)
            if not saturated:
                violations.append({
                    "endpoint": syntax.format(endpoint),
                    "reason": "rewrite budget exhausted",
                    "trace": [syntax.format(t.label) for t in steps],
                })
            for key in closure:
                if key in roots:
                    a, b = find(roots[key]), find(idx)
                    if a != b:
                        comp[a] = b
                else:
                    roots[key] = idx
        classes = {find(i) for i in comp}
        if len(classes) > 1:
            violations.append({
                "endpoint": syntax.format(endpoint),
                "reason": "cofinal traces not equivalent up to permutation",
                "classes": len(classes),
                "traces": len(members),
            })
    return violations


# --------------------------------------------------------------------------- #
# Label determinism
# --------------------------------------------------------------------------- #

def check_determinism(p: Process, kind: MemoryKind, depth: int) -> list[dict]:
    lts = _LTS(kind)
    violations = []
    for x in reachable_states(p, kind, depth, lts):
        for batch in (lts.forward(x), lts.backward(x)):
            by_label: dict = {}
            for t in batch:
                by_label.setdefault((t.dir, t.label), set()).add(t.target)
            for (_, label), targets in by_label.items():
                if len(targets) > 1:
                    violations.append({
                        "state": syntax.format(x),
                        "label": syntax.format(label),
                        "targets": sorted(syntax.format(t) for t in targets),
                    })
    return violations


# --------------------------------------------------------------------------- #
# Erasure bisimulation
# --------------------------------------------------------------------------- #

def check_bisim(p: Process, kind: MemoryKind, depth: int) -> list[dict]:
    """The pairing of each reachable state with its erasure is a strong
    bisimulation between forward steps and the plain late-pi oracle."""
    lts = _LTS(kind)
    violations = []
    pi_cache: dict[Process, tuple] = {}
    for x in reachable_states(p, kind, depth, lts):
        plain = syntax.erase(x)
        if plain not in pi_cache:
            pi_cache[plain] = bsmod.pi_transitions(plain)
        oracle = pi_cache[plain]
        image = {(syntax.erase_label(t.label), syntax.erase(t.target))
                 for t in lts.forward(x)}
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
