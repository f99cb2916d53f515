"""Per-layer tracing of revpi, done from outside the package.

``Tracer.install`` wraps chosen functions of each module and rebinds
every name that refers to them in every loaded ``revpi`` module (``checks``
and ``correspondence`` import ``forward_transitions`` by name, so patching
``semantics`` alone would miss their calls).  Each call opens a span with
a name, start, end and parent; a call made while a span of the same name
is innermost is folded into it, so recursion is one span.  Self time is a
span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Span name -> functions it wraps, by module.
GROUPS = {
    "corpus.load": ("corpus", ["acceptance_corpus"]),
    "syntax.parse": ("syntax", ["parse_process"]),
    "syntax.format": ("syntax", ["format"]),
    "syntax.occurs": ("syntax", ["keys", "occurring_keys", "fresh_key"]),
    "syntax.subst": ("syntax", ["substitute", "unsubstitute", "lift"]),
    "memory": ("memory", None),  # every function defined in revpi.memory
    "semantics.forward": ("semantics", ["forward_transitions"]),
    "semantics.backward": ("semantics", ["backward_transitions"]),
    "causality.concurrent": ("causality", ["concurrent_pair"]),
    "causality.preorder": ("causality", ["causal_preorder"]),
    "traces.swap": ("traces", ["residual_swap"]),
    "traces.cancel": ("traces", ["cancel_inverse"]),
    "traces.closure": ("traces", ["_closure_sets"]),
    "checks.reach": ("checks", ["reachable_states"]),
    "checks.all_traces": ("checks", ["_all_traces"]),
    "checks.loop": ("checks", ["check_loop"]),
    "checks.square": ("checks", ["check_square"]),
    "checks.consistency": ("checks", ["check_consistency"]),
    "checks.bisim": ("checks", ["check_bisim"]),
    "bs.pi": ("bs", ["pi_transitions"]),
    "bs.ref": ("bs", ["bs_transitions"]),
    "correspondence.structural": ("correspondence", ["check_structural_correspondence"]),
    "correspondence.causal": ("correspondence", ["check_causal_correspondence"]),
    "correspondence.match": ("correspondence", ["_match"]),
    "cli": ("cli", ["main"]),
}

ENUMERATION = frozenset(["semantics.forward", "semantics.backward"])

# (metric, unit, better): the per-layer metrics a traced run reports.
METRICS = [
    ("corpus.load_ms", "ms", "lower"),
    ("syntax.parse_calls", "count", "lower"),
    ("syntax.parse_ms", "ms", "lower"),
    ("syntax.format_calls", "count", "lower"),
    ("syntax.format_ms", "ms", "lower"),
    ("syntax.occurs_calls", "count", "lower"),
    ("syntax.occurs_ms", "ms", "lower"),
    ("syntax.subst_calls", "count", "lower"),
    ("syntax.subst_ms", "ms", "lower"),
    ("memory.calls", "count", "lower"),
    ("memory.ms", "ms", "lower"),
    ("semantics.forward_calls", "count", "lower"),
    ("semantics.forward_ms", "ms", "lower"),
    ("semantics.backward_calls", "count", "lower"),
    ("semantics.backward_ms", "ms", "lower"),
    ("semantics.transitions", "count", "lower"),
    ("semantics.calls_per_distinct", "ratio", "lower"),
    ("semantics.sort_render_ms", "ms", "lower"),
    ("causality.concurrent_calls", "count", "lower"),
    ("causality.concurrent_ms", "ms", "lower"),
    ("causality.concurrent_calls_per_distinct", "ratio", "lower"),
    ("causality.preorder_calls", "count", "lower"),
    ("causality.preorder_ms", "ms", "lower"),
    ("traces.swap_calls", "count", "lower"),
    ("traces.swap_ms", "ms", "lower"),
    ("traces.cancel_calls", "count", "lower"),
    ("traces.closure_calls", "count", "lower"),
    ("traces.closure_ms", "ms", "lower"),
    ("traces.closure_size_mean", "count", "lower"),
    ("traces.closure_unsaturated", "count", "lower"),
    ("checks.states", "count", "higher"),
    ("checks.traces", "count", "higher"),
    ("checks.loop_ms", "ms", "lower"),
    ("checks.square_ms", "ms", "lower"),
    ("checks.consistency_ms", "ms", "lower"),
    ("checks.bisim_ms", "ms", "lower"),
    ("bs.pi_calls", "count", "lower"),
    ("bs.pi_ms", "ms", "lower"),
    ("bs.ref_calls", "count", "lower"),
    ("bs.ref_ms", "ms", "lower"),
    ("correspondence.structural_ms", "ms", "lower"),
    ("correspondence.causal_ms", "ms", "lower"),
    ("correspondence.paired_steps", "count", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.output_bytes", "B", "lower"),
]


def self_times(spans: list) -> list[float]:
    """Self time of each span in ``spans``, a list of ``(name, start, end,
    parent)`` where ``parent`` is the index of the enclosing span or -1."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]


def _forward_key(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs.get("kind")
    key = args[2] if len(args) > 2 else kwargs.get("key")
    return ("F", args[0], kind, key)


# Span name -> what to record about a finished call: fn(tracer, args,
# kwargs, result).
OBSERVERS = {
    "semantics.forward": lambda tr, a, kw, res: (
        tr.count("semantics.transitions", len(res)),
        tr.distinct("semantics", _forward_key(a, kw))),
    "semantics.backward": lambda tr, a, kw, res: (
        tr.count("semantics.transitions", len(res)),
        tr.distinct("semantics", ("B", a[0]))),
    "causality.concurrent": lambda tr, a, kw, res:
        tr.distinct("causality", (a[0], a[1])),
    "traces.closure": lambda tr, a, kw, res: (
        tr.count("traces.closure_size", len(res[0])),
        tr.count("traces.closure_unsaturated", 0 if res[1] else 1)),
    "checks.reach": lambda tr, a, kw, res: tr.count("checks.states", len(res)),
    "checks.all_traces": lambda tr, a, kw, res: tr.count("checks.traces", len(res)),
    "correspondence.match": lambda tr, a, kw, res:
        tr.count("correspondence.paired_steps", 1 if res else 0),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self._distinct: dict[str, set] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------- #

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def distinct(self, name: str, item) -> None:
        self._distinct.setdefault(name, set()).add(item)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def flush(self) -> None:
        """Fold the recorded spans into per-name totals.  Call between
        operations, when no span is open; distinct sets are per flush."""
        spans = self.spans
        own = self_times(spans)
        under = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                under[i] = under[parent] or spans[parent][0] in ENUMERATION
            self.calls[name] += 1
            self.self_s[name] += own[i]
            self.total_s[name] += end - start
            if name == "syntax.format" and under[i]:
                self.self_s["semantics.sort_render"] += own[i]
        for name, items in self._distinct.items():
            self.counts[name + ".distinct"] += len(items)
        self._distinct.clear()
        del spans[:]

    def reset(self) -> None:
        for c in (self.counts, self.calls, self.self_s, self.total_s):
            c.clear()

    # -- installation ----------------------------------------------------- #

    def install(self) -> None:
        import importlib

        for modname, _ in GROUPS.values():
            importlib.import_module("revpi." + modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "revpi" or n.startswith("revpi.")) and m is not None]
        replace = {}
        for name, (modname, fnames) in GROUPS.items():
            module = sys.modules["revpi." + modname]
            if fnames is None:
                fnames = [f for f, v in vars(module).items()
                          if callable(v) and getattr(v, "__module__", None) == module.__name__
                          and type(v).__name__ == "function"]
            for f in fnames:
                fn = getattr(module, f)
                replace[id(fn)] = self.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and not isinstance(value, type):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- report ----------------------------------------------------------- #

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics over everything folded since ``reset``
        (``corpus.load_ms`` and ``cli.output_bytes`` are filled in by the
        caller)."""
        c, calls = self.counts, self.calls

        def ms(name: str) -> float:
            return self.self_s[name] * 1e3

        def total_ms(name: str) -> float:
            return self.total_s[name] * 1e3

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        enum_calls = calls["semantics.forward"] + calls["semantics.backward"]
        out = {
            "syntax.parse_calls": calls["syntax.parse"],
            "syntax.parse_ms": ms("syntax.parse"),
            "syntax.format_calls": calls["syntax.format"],
            "syntax.format_ms": ms("syntax.format"),
            "syntax.occurs_calls": calls["syntax.occurs"],
            "syntax.occurs_ms": ms("syntax.occurs"),
            "syntax.subst_calls": calls["syntax.subst"],
            "syntax.subst_ms": ms("syntax.subst"),
            "memory.calls": calls["memory"],
            "memory.ms": ms("memory"),
            "semantics.forward_calls": calls["semantics.forward"],
            "semantics.forward_ms": ms("semantics.forward"),
            "semantics.backward_calls": calls["semantics.backward"],
            "semantics.backward_ms": ms("semantics.backward"),
            "semantics.transitions": c["semantics.transitions"],
            "semantics.calls_per_distinct": ratio(enum_calls, c["semantics.distinct"]),
            "semantics.sort_render_ms": ms("semantics.sort_render"),
            "causality.concurrent_calls": calls["causality.concurrent"],
            "causality.concurrent_ms": ms("causality.concurrent"),
            "causality.concurrent_calls_per_distinct": ratio(
                calls["causality.concurrent"], c["causality.distinct"]),
            "causality.preorder_calls": calls["causality.preorder"],
            "causality.preorder_ms": ms("causality.preorder"),
            "traces.swap_calls": calls["traces.swap"],
            "traces.swap_ms": ms("traces.swap"),
            "traces.cancel_calls": calls["traces.cancel"],
            "traces.closure_calls": calls["traces.closure"],
            "traces.closure_ms": ms("traces.closure"),
            "traces.closure_size_mean": ratio(c["traces.closure_size"],
                                              calls["traces.closure"]),
            "traces.closure_unsaturated": c["traces.closure_unsaturated"],
            "checks.states": c["checks.states"],
            "checks.traces": c["checks.traces"],
            "checks.loop_ms": total_ms("checks.loop"),
            "checks.square_ms": total_ms("checks.square"),
            "checks.consistency_ms": total_ms("checks.consistency"),
            "checks.bisim_ms": total_ms("checks.bisim"),
            "bs.pi_calls": calls["bs.pi"],
            "bs.pi_ms": ms("bs.pi"),
            "bs.ref_calls": calls["bs.ref"],
            "bs.ref_ms": ms("bs.ref"),
            "correspondence.structural_ms": total_ms("correspondence.structural"),
            "correspondence.causal_ms": total_ms("correspondence.causal"),
            "correspondence.paired_steps": c["correspondence.paired_steps"],
            "cli.calls": calls["cli"],
            "cli.self_ms": ms("cli"),
        }
        return out
