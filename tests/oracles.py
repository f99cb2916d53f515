"""Reference definitions the tests check the engine against.

None of these runs in the engine or the CLI.  Each states a definition
of the paper, or an invariant of the term syntax, in its plainest form,
so that a test can compare the engine's own judgement with it: the key
order read off the history, concurrency on a whole trace, prefix
equivalence, label determinism, the binder and key conventions,
equivalence of traces up to permutation with its normal form computed
from the whole trace, its parabolic normal form and the rewrite closure
over whole traces, the history graph of a state with its cause
subgraph, contraction and the two readings of its vertex labels, the
plain late-pi semantics written on plain terms, apart from the causal
reference of ``revpi.bs``, and the transition system rendered as one
string in each output format.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from revpi import bs, causality, checks, syntax, traces
from revpi.causality import Trace, causal_preorder, label_shape
from revpi.engine import Engine
from revpi.semantics import Transition, reverse_transition
from revpi.syntax import (
    Direction, Input, Nil, Output, Par, PastInput, PastOutput, PastPrefix,
    PiBoundOut, PiFreeOut, PiIn, PiLabel, PiTau, Process, Res, RProcess,
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


def _touched(t: Transition) -> list[tuple]:
    """The history entries ``(prefix, path, above)`` of the prefixes that
    carry the key of ``t``, in the state that holds it (the target of a
    forward step, the source of a backward one)."""
    holder = t.target if t.dir is Direction.FORWARD else t.source
    return [(node, path, above) for node, path, above in syntax.history(holder)
            if isinstance(node, PastPrefix) and node.key == t.label.key]


def transition_records(t: Transition) -> frozenset:
    """The history entries a transition writes (forward) or erases
    (backward), wherever they sit."""
    return frozenset(
        ("out", pref.chan, pref.datum, pref.key, pref.cause)
        if isinstance(pref, PastOutput)
        else ("in", pref.chan, pref.binder, pref.key, pref.cause)
        for pref, _, _ in _touched(t))


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
    return frozenset(tuple(s for s in path if s != "body") for _, path, _ in _touched(t))


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
    c1, sat1 = traces._closure_sets(s1.steps, budget, engine)
    c2, sat2 = traces._closure_sets(s2.steps, budget, engine)
    if c1 & c2:
        return True
    if sat1 and sat2:
        return False
    raise EquivalenceBudgetError(
        "no verdict within %d rewrites (traces of length %d and %d)"
        % (budget, len(s1), len(s2)))


def _canon(tr: Trace):
    # stepwise label comparison ignores bound-output memories; the final
    # state pins everything else down.  A fully cancelled trace is just
    # its (shared, coinitial) source, so no endpoint is needed.
    if not tr.steps:
        return ((), None)
    return (tuple((t.dir, label_shape(t.label)) for t in tr.steps), tr.target)


def _rewrite_neighbours(tr: Trace, engine: Engine) -> list[Trace]:
    out = []
    for at in range(len(tr) - 1):
        t1, t2 = tr[at], tr[at + 1]
        if t2 == reverse_transition(t1):
            out.append(traces.cancel_inverse(tr, at))
        if t1.label.key != t2.label.key and engine.concurrent(t1, t2):
            out.append(Trace(tr.steps[:at] + traces.residual_swap(t1, t2, engine)
                             + tr.steps[at + 2:]))
    return out


def closure_of_traces(tr: Trace, budget: int, engine: Engine):
    """The rewrite closure of ``traces._closure_sets`` spelt out over
    ``Trace`` objects: each neighbour a validated trace, cancellation
    tested against ``reverse_transition``, and each trace keyed by its
    steps' directions and label shapes and its target.  Returns the keys
    and whether the closure saturated."""
    seen = {_canon(tr)}
    frontier = deque([(tr, 0)])
    saturated = True
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= budget:
            saturated = False
            continue
        for nxt in _rewrite_neighbours(cur, engine):
            key = _canon(nxt)
            if key not in seen:
                seen.add(key)
                frontier.append((nxt, depth + 1))
    return seen, saturated


def normal_form(steps: tuple[Transition, ...]) -> tuple[frozenset, frozenset] | None:
    """The normal form of ``traces.NormalForm`` computed from the whole
    trace at once, the reference the fold is held to.

    - A stack drops each adjacent inverse pair, as ``_closure_sets``
      cancels one.
    - Each remaining undo cancels the latest surviving do of its label
      shape, unless a surviving step after that do depends on it
      (``_base_relations`` of what the stack left); then the trace has
      no form.
    - The form is the survivors' label shapes with the closure of the
      base relations over the survivors alone.
    """
    stack: list[Transition] = []
    for t in steps:
        if stack:
            top = stack[-1]
            if (t.dir is not top.dir and t.label == top.label
                    and (t.target is top.source or t.target == top.source)):
                stack.pop()
                continue
        stack.append(t)
    base = causality._base_relations(Trace(tuple(stack)))
    shapes = [label_shape(t.label) for t in stack]
    alive: list[int] = []  # positions of the surviving steps, all forward
    for n, t in enumerate(stack):
        if t.dir is Direction.FORWARD:
            alive.append(n)
            continue
        at = next((i for i in reversed(range(len(alive)))
                   if shapes[alive[i]] == shapes[n]), None)
        if at is None:
            return None
        m = alive[at]
        if any(any(base[m, j]) for j in alive[at + 1:]):
            return None
        del alive[at]
    order = causality._closure(
        alive, lambda _, i, j: i < j and any(base[alive[i], alive[j]]))
    return (frozenset(shapes[n] for n in alive),
            frozenset((shapes[alive[i]], shapes[alive[j]]) for i, j in order))


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
            cur = Trace(cur.steps[:pivot] + traces.residual_swap(t1, t2, engine)
                        + cur.steps[pivot + 2:])
    raise RuntimeError("parabolic normalization did not terminate")


# --------------------------------------------------------------------------- #
# History graphs
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class HistoryGraph:
    """Vertices are (vid, label) pairs; a label is a key or a synthetic
    ``tauN`` marker produced by contraction."""

    vertices: tuple[tuple[int, object], ...]
    edges: frozenset

    def labels(self) -> list:
        return [lab for _, lab in self.vertices]

    def occurrences(self, key: int) -> list[int]:
        return [vid for vid, lab in self.vertices if lab == key]


def history_graph(x: RProcess) -> HistoryGraph:
    """Graph of the executed prefixes of a term: direct-nesting edges plus
    a bidirectional pair between the two halves of each communication."""
    vertices: list[tuple[int, int]] = []
    edges: set[tuple[int, int]] = set()
    # keyed by the prefix: its subtree comes right after it in the history
    # and holds nothing equal to it, so the latest vertex of the prefix
    # above a vertex is that prefix's own
    vid_of: dict = {}
    for node, _, above in syntax.history(x):
        if isinstance(node, PastPrefix):
            vid = vid_of[node] = len(vertices)
            vertices.append((vid, node.key))
            if above:
                edges.add((vid_of[above[-1]], vid))
    by_key: dict[int, list[int]] = {}
    for vid, key in vertices:
        by_key.setdefault(key, []).append(vid)
    for key, vids in by_key.items():
        if len(vids) == 2:
            edges.add((vids[0], vids[1]))
            edges.add((vids[1], vids[0]))
    return HistoryGraph(tuple(vertices), frozenset(edges))


def cause_subgraph(g: HistoryGraph, key: int) -> HistoryGraph:
    """Union of all paths of ``g`` ending at an occurrence of ``key``.

    Its vertex multiset minus the key's own occurrences is the multiset
    of structural causes.
    """
    targets = set(g.occurrences(key))
    if not targets:
        return HistoryGraph(((0, key),), frozenset())
    preds: dict[int, set[int]] = {}
    for u, v in g.edges:
        preds.setdefault(v, set()).add(u)
    keep = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in preds.get(v, ()):  # everything that reaches a target
            if u not in keep:
                keep.add(u)
                frontier.append(u)
    vertices = tuple((vid, lab) for vid, lab in g.vertices if vid in keep)
    edges = frozenset((u, v) for (u, v) in g.edges if u in keep and v in keep)
    return HistoryGraph(vertices, edges)


def contract(g: HistoryGraph) -> HistoryGraph:
    """Collapse every bidirectional same-key pair into a synthetic tau
    vertex, re-targeting the pair's other edges (ascending key order).

    Merging one pair neither adds nor removes the mutual edges of
    another, so one ascending pass over the keys finds every pair.
    """
    verts: dict[int, object] = dict(g.vertices)
    edges = set(g.edges)
    tau_count = 0
    for key in sorted({lab for lab in verts.values() if isinstance(lab, int)}):
        vids = [vid for vid, lab in verts.items() if lab == key]
        if len(vids) != 2 or (vids[0], vids[1]) not in edges or (vids[1], vids[0]) not in edges:
            continue
        tau_count += 1
        merged = max(verts) + 1
        edges = {
            (merged if u in vids else u, merged if v in vids else v)
            for (u, v) in edges
            if not (u in vids and v in vids)
        }
        for vid in vids:
            del verts[vid]
        verts[merged] = "tau%d" % tau_count
    return HistoryGraph(tuple(sorted(verts.items())), frozenset(edges))


def key_multiset(g: HistoryGraph) -> tuple:
    """The keys among the vertex labels of ``g``, with repeats, sorted."""
    return tuple(sorted(lab for lab in g.labels() if isinstance(lab, int)))


def contracted_vertices(g: HistoryGraph) -> list[str]:
    """The ``tauN`` labels that contraction gave the vertices of ``g``."""
    return [lab for lab in g.labels() if isinstance(lab, str)]


def graph_rem(x: RProcess, key: int) -> tuple[tuple, frozenset]:
    """``correspondence.rem`` by the paper's definition, for a key in the
    history of ``x``: the structural causes are the vertices of the
    history graph that reach an occurrence of ``key``, and contracting
    the communication pairs among them leaves the cause set."""
    sub = cause_subgraph(history_graph(x), key)
    kf = tuple(k for k in key_multiset(sub) if k != key)
    kb = frozenset(k for k in key_multiset(contract(sub)) if k != key)
    return kf, kb


# --------------------------------------------------------------------------- #
# The plain late-pi semantics
# --------------------------------------------------------------------------- #

def late_pi(p: Process) -> list[tuple[PiLabel, Process]]:
    """The standard late-semantics transitions of a plain process, with
    repeats, derived on plain terms rather than on causal ones."""
    if isinstance(p, Nil):
        return []
    if isinstance(p, Output):
        return [(PiFreeOut(p.chan.name, p.datum.name), p.cont)]
    if isinstance(p, Input):
        return [(PiIn(p.chan.name, p.binder), p.cont)]
    if isinstance(p, Par):
        lefts = late_pi(p.left)
        rights = late_pi(p.right)
        out = []
        out.extend((lbl, Par(tgt, p.right)) for lbl, tgt in lefts)
        out.extend((lbl, Par(p.left, tgt)) for lbl, tgt in rights)
        out.extend(_late_pi_sync(lefts, rights, out_on_left=True))
        out.extend(_late_pi_sync(rights, lefts, out_on_left=False))
        return out
    if isinstance(p, Res):
        out = []
        for lbl, tgt in late_pi(p.body):
            if isinstance(lbl, PiTau):
                out.append((lbl, Res(p.name, tgt)))
            elif isinstance(lbl, PiFreeOut) and lbl.datum == p.name and lbl.chan != p.name:
                out.append((PiBoundOut(lbl.chan, lbl.datum), tgt))
            elif p.name == lbl.chan or (not isinstance(lbl, PiIn) and p.name == lbl.datum):
                continue
            else:
                out.append((lbl, Res(p.name, tgt)))
        return out
    raise TypeError(p)


def _late_pi_sync(outs, ins, out_on_left: bool):
    result = []
    for lo, to in outs:
        if not isinstance(lo, (PiFreeOut, PiBoundOut)):
            continue
        for li, ti in ins:
            if not isinstance(li, PiIn) or li.chan != lo.chan:
                continue
            ti_sub = bs.substitute_plain(ti, li.binder, lo.datum)
            pair = Par(to, ti_sub) if out_on_left else Par(ti_sub, to)
            if isinstance(lo, PiFreeOut):
                result.append((PiTau(), pair))
            else:
                result.append((PiTau(), Res(lo.datum, pair)))
    return result


def late_pi_batch(p: Process) -> tuple[tuple[PiLabel, Process], ...]:
    """The steps of ``late_pi`` without repeats, ordered by label, then by
    rendered target."""
    return tuple(sorted(dict.fromkeys(late_pi(p)),
                        key=lambda pr: (bs._pi_sort(pr[0]), syntax.format(pr[1]))))


# --------------------------------------------------------------------------- #
# The transition system as one string
# --------------------------------------------------------------------------- #

_JSON_EDGE = ('    {\n      "from": %d,\n      "to": %d,\n      "dir": "%s",\n'
              '%s,\n      "state": %s\n    }')


def _label_block(label) -> str:
    fields = {"label": syntax.format(label), **traces.label_fields(label)}
    return ",\n".join("      %s: %s" % (encode_basestring_ascii(k), traces.json_text(v, 3))
                      for k, v in fields.items())


def json_lts(order, transitions) -> str:
    """The transition system as ``json.dumps(..., indent=2)`` writes its
    record ``{states, transitions}``, built as one string."""
    states = [encode_basestring_ascii(syntax.format(x)) for x in order]
    blocks: dict = {}
    edges = []
    for a, b, t in transitions:
        block = blocks.get(t.label)
        if block is None:
            block = blocks[t.label] = _label_block(t.label)
        edges.append(_JSON_EDGE % (a, b, t.dir.value, block, states[b]))
    listed = "[\n%s\n  ]" % ",\n".join(edges) if edges else "[]"
    return '{\n  "states": [\n    %s\n  ],\n  "transitions": %s\n}' % (
        ",\n    ".join(states), listed)


def render_lts(order, transitions, fmt: str) -> str:
    """What ``revpi enumerate --format fmt`` writes, but its last newline,
    as one string."""
    if fmt == "json":
        return json_lts(order, transitions)
    labels = {label: syntax.format(label)
              for label in dict.fromkeys(t.label for _, _, t in transitions)}
    if fmt == "dot":
        lines = ["digraph lts {"]
        for i, x in enumerate(order):
            lines.append('  s%d [label="%s"];' % (i, syntax.format(x)))
        for a, b, t in transitions:
            style = "solid" if t.dir is Direction.FORWARD else "dashed"
            lines.append('  s%d -> s%d [label="%s", style=%s];'
                         % (a, b, labels[t.label], style))
        lines.append("}")
        return "\n".join(lines)
    fwd = sum(1 for _, _, t in transitions if t.dir is Direction.FORWARD)
    bwd = len(transitions) - fwd
    lines = ["states: %d" % len(order),
             "transitions: %d forward, %d backward" % (fwd, bwd)]
    for i, x in enumerate(order):
        lines.append("S%d: %s" % (i, syntax.format(x)))
    for a, b, t in transitions:
        arrow = "-->" if t.dir is Direction.FORWARD else "~~>"
        lines.append("S%d %s S%d  %s" % (a, arrow, b, labels[t.label]))
    return "\n".join(lines)
