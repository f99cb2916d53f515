"""History graphs and the two cross-semantics checkers.

The history of a reversible process is a directed multigraph: one vertex
per executed prefix (a communication contributes two vertices sharing a
key, linked both ways), one edge per direct prefix nesting.  The
ancestry of a key, read off this graph, is the multiset of its
structural causes; contracting the bidirectional pairs converts it into
the cause set the reference semantics would have recorded, because a
silent step there merges cause sets instead of spending a key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import bs as bsmod
from . import causality, syntax
from .bs import BsLabel, BsStep, CausalProcess, bs_transitions, erase_lambda, gamma, lift_bs
from .engine import Engine
from .memory import MemoryKind
from .semantics import Transition
# not called here any more (the engine calls it through ``semantics``), but
# perfbench's tracer test still looks the name up on this module
from .semantics import forward_transitions  # noqa: F401
from .syntax import PiTau, Process, RProcess, Tau


class KeyNotInHistoryError(KeyError):
    pass


@dataclass(frozen=True)
class HistoryGraph:
    """Vertices are (vid, label) pairs; a label is a key or a synthetic
    ``tauN`` marker produced by contraction."""

    vertices: tuple[tuple[int, object], ...]
    edges: frozenset

    def labels(self) -> list:
        return [lab for _, lab in self.vertices]

    def key_multiset(self) -> tuple:
        return tuple(sorted(lab for lab in self.labels() if isinstance(lab, int)))

    def occurrences(self, key: int) -> list[int]:
        return [vid for vid, lab in self.vertices if lab == key]

    def contracted_vertices(self) -> list[str]:
        return [lab for lab in self.labels() if isinstance(lab, str)]

    def to_dot(self) -> str:
        lines = ["digraph history {"]
        for vid, lab in self.vertices:
            shape = ", shape=box" if isinstance(lab, str) else ""
            lines.append('  v%d [label="%s"%s];' % (vid, lab, shape))
        for u, v in sorted(self.edges):
            if (v, u) in self.edges:
                if u < v:
                    lines.append("  v%d -> v%d [dir=both];" % (u, v))
            else:
                lines.append("  v%d -> v%d;" % (u, v))
        lines.append("}")
        return "\n".join(lines)


def history_graph(x: RProcess) -> HistoryGraph:
    """Graph of the executed prefixes of a term: direct-nesting edges plus
    a bidirectional pair between the two halves of each communication."""
    vertices: list[tuple[int, int]] = []
    edges: set[tuple[int, int]] = set()

    def walk(t: RProcess, parent: int | None) -> None:
        if isinstance(t, syntax.PastPrefix):
            vid = len(vertices)
            vertices.append((vid, t.key))
            if parent is not None:
                edges.add((parent, vid))
            walk(t.cont, vid)
        elif isinstance(t, syntax.RPar):
            walk(t.left, parent)
            walk(t.right, parent)
        elif isinstance(t, syntax.RRes):
            walk(t.body, parent)

    walk(x, None)
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
    vertex, re-targeting the pair's other edges (ascending key order)."""
    verts: dict[int, object] = dict(g.vertices)
    edges = set(g.edges)
    tau_count = 0
    while True:
        candidate = None
        for key in sorted(lab for lab in verts.values() if isinstance(lab, int)):
            vids = [vid for vid, lab in verts.items() if lab == key]
            if len(vids) == 2:
                v1, v2 = vids
                if (v1, v2) in edges and (v2, v1) in edges:
                    candidate = (v1, v2)
                    break
        if candidate is None:
            break
        v1, v2 = candidate
        tau_count += 1
        merged = max(verts) + 1
        label = "tau%d" % tau_count
        edges.discard((v1, v2))
        edges.discard((v2, v1))
        edges = {
            (merged if u in (v1, v2) else u, merged if v in (v1, v2) else v)
            for (u, v) in edges
            if not (u in (v1, v2) and v in (v1, v2))
        }
        del verts[v1]
        del verts[v2]
        verts[merged] = label
    return HistoryGraph(tuple(sorted(verts.items())), frozenset(edges))


def rem(x: RProcess, key: int) -> tuple[tuple, frozenset]:
    """Structural-cause multiset of ``key`` in the history of ``x``, and
    the cause set left after contracting communication pairs."""
    g = history_graph(x)
    if not g.occurrences(key):
        raise KeyNotInHistoryError("key %d is not in the history of %s"
                                   % (key, syntax.format(x)))
    sub = cause_subgraph(g, key)
    kf = tuple(sorted(lab for vid, lab in sub.vertices
                      if isinstance(lab, int) and lab != key))
    contracted = contract(sub)
    kb = frozenset(lab for lab in contracted.labels()
                   if isinstance(lab, int) and lab != key)
    return kf, kb


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #

@dataclass
class Report:
    process: str
    depth: int
    checks: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "process": self.process,
            "depth": self.depth,
            "checks": self.checks,
            "violations": self.violations,
        }

    def to_json_str(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


def _bs_label_str(z: BsLabel) -> str:
    if isinstance(z.act, PiTau):
        return "tau"
    causes = ",".join(str(k) for k in sorted(z.causes))
    return "%d:%s/{%s}" % (z.key, bsmod._pi_sort(z.act)[0], causes)


def _match(t: Transition, z: BsLabel, a2: CausalProcess) -> bool:
    return gamma(t.label) == (z.key, z.act) and syntax.erase(t.target) == erase_lambda(a2)


def _bsc_engine(engine: Engine | None) -> Engine:
    # both walks run the engine with first-extruder memories
    if engine is None:
        return Engine(MemoryKind.BSC)
    if engine.kind is not MemoryKind.BSC:
        raise ValueError("correspondence runs under bsc, not %s" % engine.kind.value)
    return engine


# --------------------------------------------------------------------------- #
# Structural correspondence
# --------------------------------------------------------------------------- #

def check_structural_correspondence(p: Process, depth: int,
                                    engine: Engine | None = None) -> Report:
    """Walk the engine (first-extruder memories) and the reference
    semantics side by side.

    At every paired step the erasures must agree, the labels must match
    under the label mapping, and the contracted structural-cause multiset
    must equal the reference cause set.  ``engine``, of kind ``bsc``, may
    be shared with the causal walk; by default the walk starts its own.
    """
    engine = _bsc_engine(engine)
    report = Report(syntax.format(p), depth)
    x0 = syntax.initial(p, engine.kind)
    a0 = lift_bs(syntax.strip_insts(p))
    if syntax.erase(x0) != erase_lambda(a0):
        report.violations.append({"at": "initial", "reason": "erasures differ"})
        return report
    visited: set[tuple[RProcess, CausalProcess]] = set()

    def explore(x: RProcess, a: CausalProcess, d: int, path: list[str]) -> None:
        if d >= depth or (x, a) in visited:
            return
        visited.add((x, a))
        fwd = engine.forward(x)
        ref = bs_transitions(a, used=frozenset(syntax.keys(x)))
        for z, a2 in ref:
            if not any(_match(t, z, a2) for t in fwd):
                report.violations.append({
                    "at": " . ".join(path) or "start",
                    "reason": "reference step has no engine counterpart",
                    "label": _bs_label_str(z),
                })
        for t in fwd:
            matches = [(z, a2) for z, a2 in ref if _match(t, z, a2)]
            if not matches:
                report.violations.append({
                    "at": " . ".join(path) or "start",
                    "reason": "engine step has no reference counterpart",
                    "label": syntax.format(t.label),
                })
                continue
            for z, a2 in matches:
                kf, kb = rem(t.target, t.label.key)
                entry = {
                    "label": syntax.format(t.label),
                    "kf": list(kf),
                    "kb": sorted(kb),
                }
                if not isinstance(z.act, PiTau):
                    entry["reference_causes"] = sorted(z.causes)
                    if kb != z.causes:
                        report.violations.append({
                            "at": " . ".join(path + [syntax.format(t.label)]),
                            "reason": "contracted causes disagree",
                            "kf": list(kf),
                            "kb": sorted(kb),
                            "reference": sorted(z.causes),
                        })
                report.checks.append(entry)
                explore(t.target, a2, d + 1, path + [syntax.format(t.label)])

    explore(x0, a0, 0, [])
    return report


# --------------------------------------------------------------------------- #
# Causal correspondence
# --------------------------------------------------------------------------- #

def _bs_base(steps: list[BsStep], m: int, k: int) -> bool:
    # a later step cites an earlier key, or uses a name it introduced
    if m >= k:
        return False
    zm, zk = steps[m].label, steps[k].label
    subject = (zm.key is not None and zk.key is not None
               and zm.key in zk.causes)
    return subject or bsmod.bs_object_caused(steps, m, k)


def _bs_preorder(steps: list[BsStep]) -> set[tuple[int, int]]:
    return causality._closure(steps, _bs_base)


def check_causal_correspondence(p: Process, depth: int,
                                engine: Engine | None = None) -> Report:
    """Compare the engine's causal preorder with the reference one on all
    paired forward runs, restricted to the visible steps (silent steps do
    not exist as causality carriers in the reference semantics).
    ``engine`` is as for ``check_structural_correspondence``."""
    engine = _bsc_engine(engine)
    report = Report(syntax.format(p), depth)
    x0 = syntax.initial(p, engine.kind)
    a0 = lift_bs(syntax.strip_insts(p))

    def compare(fw: list[Transition], ref: list[BsStep]) -> None:
        trace = causality.Trace(tuple(fw))
        fw_pre = causality.causal_preorder(trace)
        bs_pre = _bs_preorder(ref)
        visible = [i for i, t in enumerate(fw) if not isinstance(t.label.act, Tau)]
        mism = []
        for m in visible:
            for k in visible:
                if ((m, k) in fw_pre) != ((m, k) in bs_pre):
                    mism.append({
                        "pair": [m, k],
                        "engine": (m, k) in fw_pre,
                        "reference": (m, k) in bs_pre,
                    })
        entry = {"trace": [syntax.format(t.label) for t in fw],
                 "visible": len(visible)}
        report.checks.append(entry)
        if mism:
            report.violations.append({"trace": entry["trace"], "mismatches": mism})

    def explore(x: RProcess, a: CausalProcess,
                fw: list[Transition], ref: list[BsStep], d: int) -> None:
        if fw:
            compare(fw, ref)
        if d >= depth:
            return
        fwd = engine.forward(x)
        refsteps = bs_transitions(a, used=frozenset(syntax.keys(x)))
        for t in fwd:
            for z, a2 in refsteps:
                if _match(t, z, a2):
                    explore(t.target, a2, fw + [t],
                            ref + [BsStep(z, a, a2)], d + 1)

    explore(x0, a0, [], [], 0)
    return report
