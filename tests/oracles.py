"""Reference definitions the tests check the engine against.

None of these runs in the engine or the CLI.  Each states a definition
of the paper, or an invariant of the term syntax, in its plainest form,
so that a test can compare the engine's own judgement with it: the key
order read off the history, concurrency on a whole trace, prefix
equivalence, label determinism, the binder and key conventions, and
equivalence of traces up to permutation with its parabolic normal form.
"""

from __future__ import annotations

from revpi import checks, syntax, traces
from revpi.causality import Trace, _footprint, _positions, causal_preorder
from revpi.engine import Engine
from revpi.semantics import Transition
from revpi.syntax import (
    Direction, Input, Output, Par, PastInput, PastOutput, PastPrefix, Process,
    Res, RProcess,
)


# --------------------------------------------------------------------------- #
# Causality
# --------------------------------------------------------------------------- #

def structural_leq_keys(x: RProcess, i1: int, i2: int) -> bool:
    """Key order induced by the history: some past prefix keyed ``i2``
    sits below one keyed ``i1``."""
    return any(isinstance(node, PastPrefix) and node.key == i2
               and any(a.key == i1 for a in above)
               for node, _, above in syntax.history(x))


def concurrent(tr: Trace, m: int, n: int) -> bool:
    """Positions ``m`` and ``n`` unrelated by the causal preorder."""
    pre = causal_preorder(tr)
    return (m, n) not in pre and (n, m) not in pre


def transition_records(t: Transition) -> frozenset:
    """The history entries a transition writes (forward) or erases
    (backward), wherever they sit."""
    return frozenset(
        ("out", pref.chan, pref.datum, pref.key, pref.cause)
        if isinstance(pref, PastOutput)
        else ("in", pref.chan, pref.binder, pref.key, pref.cause)
        for pref, _, _ in _footprint(t)[0])


def prefix_equiv(t1: Transition, t2: Transition) -> bool:
    """Transitions writing (or erasing) identical history entries,
    wherever those entries sit."""
    if t1.dir is not t2.dir:
        return False
    return transition_records(t1) == transition_records(t2)


def fired_positions(t: Transition) -> frozenset:
    """Positions of the prefixes a transition touches, stated in terms
    of parallel/continuation structure only (restriction wrappers come
    and go with closes, so they do not count)."""
    return _positions(_footprint(t)[0])


# --------------------------------------------------------------------------- #
# Label determinism
# --------------------------------------------------------------------------- #

def check_determinism(p: Process, engine: checks.Run, depth: int) -> list[dict]:
    """One target per label and direction in every reachable state."""
    engine = Engine.of(engine)
    violations = []
    for x in checks.reachable_states(p, engine, depth):
        for batch in (engine.forward(x), engine.backward(x)):
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
# Term conventions
# --------------------------------------------------------------------------- #

def binders_unique(p: Process) -> bool:
    """The naming convention ``syntax.parse_process`` establishes: binders
    pairwise distinct and disjoint from the free names."""
    seen: set[str] = set()
    free = syntax.free_names(p)

    def walk(q: Process) -> bool:
        if isinstance(q, (Input, Res)):
            b = q.binder if isinstance(q, Input) else q.name
            if b in seen or b in free:
                return False
            seen.add(b)
            return walk(q.cont if isinstance(q, Input) else q.body)
        if isinstance(q, Output):
            return walk(q.cont)
        if isinstance(q, Par):
            return walk(q.left) and walk(q.right)
        return True

    return walk(p)


def check_key_invariant(x: RProcess) -> None:
    """Keys are unique, except that a communication key marks exactly one
    past output and one past input on opposite sides of a parallel."""
    by_key: dict[int, list] = {}
    for node, path, _ in syntax.history(x):
        if isinstance(node, PastPrefix):
            by_key.setdefault(node.key, []).append((node, path))
    for key, found in by_key.items():
        if len(found) == 1:
            continue
        if len(found) != 2:
            raise AssertionError("key %d occurs %d times" % (key, len(found)))
        (p1, path1), (p2, path2) = found
        if {type(p1), type(p2)} != {PastOutput, PastInput}:
            raise AssertionError("key %d is not an output/input pair" % key)
        # the paths part at a parallel exactly when neither extends the other
        if path1[:len(path2)] == path2 or path2[:len(path1)] == path1:
            raise AssertionError("key %d pair does not straddle a parallel" % key)


# --------------------------------------------------------------------------- #
# Equivalence up to permutation
# --------------------------------------------------------------------------- #

class EquivalenceBudgetError(RuntimeError):
    """The rewrite search ran out of budget before reaching a verdict."""


def coinitial(s1: Trace, s2: Trace) -> bool:
    return len(s1) > 0 and len(s2) > 0 and s1.source == s2.source


def equivalent_up_to_permutation(s1: Trace, s2: Trace, engine: Engine,
                                 budget: int | None = None) -> bool:
    """Decide equivalence of two coinitial traces under a rewrite budget.

    Differing endpoints are a definite negative.  Matching endpoints with
    an exhausted budget raise ``EquivalenceBudgetError`` rather than
    produce a verdict.
    """
    if not coinitial(s1, s2):
        raise ValueError("traces are not coinitial")
    if budget is None:
        budget = 4 * (len(s1) + len(s2))
    if s1.target != s2.target:
        return False
    c1, sat1 = traces._closure_sets(s1, budget, engine)
    c2, sat2 = traces._closure_sets(s2, budget, engine)
    if c1 & c2:
        return True
    if sat1 and sat2:
        return False
    raise EquivalenceBudgetError(
        "no verdict within %d rewrites (traces of length %d and %d)"
        % (budget, len(s1), len(s2)))


def normalize_parabolic(s: Trace, engine: Engine) -> Trace:
    """Rewrite a trace into backward-steps-then-forward-steps shape.

    Forward-then-backward adjacencies either cancel (same key: the pair
    is mutually inverse) or commute (different keys: consecutive opposed
    steps are never causally related).
    """
    if len(s) == 0:
        return s
    limit = 4 * (len(s) + 1) ** 2 + 16
    cur = s
    for _ in range(limit):
        pivot = None
        for at in range(len(cur) - 1):
            if (cur[at].dir is Direction.FORWARD
                    and cur[at + 1].dir is Direction.BACKWARD):
                pivot = at
                break
        if pivot is None:
            return cur
        t1, t2 = cur[pivot], cur[pivot + 1]
        if t1.label.key == t2.label.key:
            cur = traces.cancel_inverse(cur, pivot)
        else:
            cur = engine.residual_swap(cur, pivot)
    raise RuntimeError("parabolic normalization did not terminate")
