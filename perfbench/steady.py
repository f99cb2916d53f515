"""Steadiness of the benchmark: run each workload repeatedly in fresh
interpreters and compare the spread of every end-to-end metric with its
bound in BENCHMARK.json.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json with seeds 1 to 10, each run
``run_seconds`` long.  For each end-to-end metric it prints the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
the spread, the distance between the quartiles as a share of the median;
a spread above the metric's bound fails, one above a third of it is
marked.  It checks that every run is correct and that the share of
failed operations is the same in every run, then runs each workload
traced twice with seed 1 and checks that every per-layer count repeats
exactly.  The summary is also written to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d exited %d:\n%s"
                         % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        entry = summary.setdefault(workload, {})
        results = []
        for seed in SEEDS:
            res = run(workload, seed, seconds, 0)
            results.append(res)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in res["metrics"].items())),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: failed share %s, correct %s" % (workload, sorted(shares), correct))
        ok &= len(shares) == 1 and correct
        entry["failed_share"] = sorted(shares)
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
            flag = "ok" if sp <= bound / 3 else "within bound" if sp <= bound else "OVER"
            ok &= sp <= bound
            print("  %-12s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f"
                  "  bound %.2f  %s" % (name, med, q1, q3, sp, bound, flag))
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                           "bound": bound}
        a = run(workload, 1, 1, 1)["metrics"]
        b = run(workload, 1, 1, 1)["metrics"]
        counts = [n for n, m in a.items() if m["unit"] != "ms"]
        moved = [n for n in counts if a[n]["value"] != b[n]["value"]]
        print("%s: %d per-layer counts, %s" % (
            workload, len(counts),
            "all repeat exactly" if not moved else "moved: %s" % moved))
        ok &= not moved
        entry["counts_repeat"] = not moved
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
