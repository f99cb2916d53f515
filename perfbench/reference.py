"""Reference figures for the README, from one round of each workload.

    python3 perfbench/reference.py

Prints, as markdown: for each workload one untraced and one traced round
with seed 1 (operations, failures, times, tracing overhead, states,
transitions, traces, closure sizes, per-layer times); depth scaling of
consistency on the corpus term ``gen_20`` under ``rpi``; and the line
count of ``src/``.  Each workload runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

LAYER_ROWS = [
    "checks.states", "semantics.transitions", "checks.traces",
    "traces.closure_calls", "traces.closure_size_mean", "traces.closure_unsaturated",
    "semantics.forward_calls", "semantics.backward_calls",
    "semantics.calls_per_distinct", "causality.concurrent_calls",
    "causality.concurrent_calls_per_distinct", "correspondence.paired_steps",
    "semantics.forward_ms", "semantics.backward_ms", "semantics.sort_render_ms",
    "syntax.format_ms", "syntax.occurs_ms", "syntax.subst_ms", "memory.ms",
    "causality.concurrent_ms", "causality.preorder_ms", "traces.swap_ms",
    "traces.closure_ms", "bs.pi_ms", "bs.ref_ms", "cli.self_ms",
]


def one_round(workload: str, seed: int, trace: bool) -> dict:
    """One round of ``workload`` in a fresh interpreter."""
    code = (
        "import json, sys; sys.path[:0] = [%r, %r]; import run; "
        "r = run.run_workload(%r, %d, 0, %r); print(json.dumps(r))"
        % (str(HERE), str(ROOT / "src"), workload, seed, trace))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(ROOT), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def depth_scaling() -> list[tuple]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from revpi import checks, corpus
    from revpi.memory import MemoryKind
    from tracer import Tracer

    p = dict(corpus.acceptance_corpus())["gen_20"]
    rows = []
    for maxlen in (3, 4, 5):
        states = len(checks.reachable_states(p, MemoryKind.RPI, maxlen))
        start = time.perf_counter()
        violations = checks.check_consistency(p, MemoryKind.RPI, maxlen=maxlen)
        seconds = time.perf_counter() - start
        tr = Tracer()
        tr.install()
        try:
            checks.check_consistency(p, MemoryKind.RPI, maxlen=maxlen)
            tr.flush()
            m = tr.metrics()
        finally:
            tr.uninstall()
        rows.append((maxlen, states, m["checks.traces"], m["traces.closure_size_mean"],
                     len(violations), seconds))
    return rows


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    plain = {w: one_round(w, SEED, False) for w in workloads.WORKLOADS}
    traced = {w: one_round(w, SEED, True) for w in workloads.WORKLOADS}
    names = list(workloads.WORKLOADS)
    print("| figure | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))

    def row(label, values):
        print("| %s | %s |" % (label, " | ".join(values)))

    row("operations (failed)", ["%d (%d)" % (plain[w]["attempted"], plain[w]["failed"])
                                for w in names])
    row("run_s untraced", ["%.2f" % plain[w]["round_s"][0] for w in names])
    row("run_s traced", ["%.2f" % traced[w]["round_s"][0] for w in names])
    row("tracing overhead", ["%.2fx" % (traced[w]["round_s"][0] / plain[w]["round_s"][0])
                             for w in names])
    row("wall s untraced", ["%.2f" % plain[w]["wall_s"][0] for w in names])
    row("reference work ms", ["%.2f" % statistics.median(plain[w]["speed"]["reference_ms"])
                              for w in names])
    for name in ("setup_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
        row(name, ["%.4g" % plain[w]["metrics"][name]["value"] for w in names])
    for name in LAYER_ROWS:
        row(name, ["%.4g" % traced[w]["metrics"][name]["value"] for w in names])
    print()
    print("| maxlen | reachable states | enumerated traces | mean closure size "
          "| violations | consistency s |")
    print("| --- | --- | --- | --- | --- | --- |")
    for maxlen, states, traces, closure, violations, seconds in depth_scaling():
        print("| %d | %d | %d | %.2f | %d | %.2f |"
              % (maxlen, states, traces, closure, violations, seconds))
    print()
    print("src/ lines: %d" % src_lines())
    return 0


if __name__ == "__main__":
    sys.exit(main())
