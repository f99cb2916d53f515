"""Run one revpi benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-algebra --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the program is imported from
``src/``.  One operation is one ``revpi`` command, issued in-process
through ``revpi.cli.main`` with stdout captured; operations run one after
another in whole rounds until ``--seconds`` have passed.  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 21

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]


# --------------------------------------------------------------------------- #
# Machine speed
# --------------------------------------------------------------------------- #
#
# The speed of the shared machine this benchmark was built on swings by up
# to 1.9x within minutes, which left wall times of identical runs up to a
# quarter apart.  So every time is scaled by the machine's speed measured
# next to it: a fixed piece of pure-Python work that uses no revpi code is
# timed after each REFERENCE_EVERY seconds of operations, and an
# operation's time t is reported as t * REFERENCE_S / m, where m is the
# median of the nine reference samples nearest to it.  Set-up, which is
# mostly interpreter start-up and imports, does not follow that work (their
# times correlated at 0.1), but it does follow the start of a bare
# interpreter (0.75), so set-up probes are scaled the same way by the
# bare starts around them, against START_S.  REFERENCE_S and START_S are
# the medians measured on that machine, so there the figures are about
# wall time; the wall times and the measured medians are printed beside
# them.

REFERENCE_S = 0.0112
REFERENCE_EVERY = 0.2
START_S = 0.070
_RECORDS = [(i, i * 7 % 1000, i % 13) for i in range(1500)]


def reference_seconds() -> float:
    """Time of the reference work: render 1,500 small records as indented
    JSON (the pure-Python encoder, as ``revpi export`` uses), then hash
    and sort them."""
    start = time.perf_counter()
    rows = [{"from": a, "to": b, "label": "(%d,{*},*): a!m%d" % (a, c)}
            for a, b, c in _RECORDS]
    json.dumps(rows, indent=2)
    sorted({hash((r["from"], r["to"], r["label"])): r for r in rows})
    return time.perf_counter() - start


def scale_by_reference(results: list, marks: list[int], reference: list[float]) -> None:
    """Set each result's scaled time from the nine reference samples
    around ``marks[i]``, the index of the first sample taken after it."""
    for r, j in zip(results, marks):
        near = reference[max(0, j - 4):j + 5]
        r.scaled = r.seconds * REFERENCE_S / statistics.median(near)


# --------------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------------- #

@dataclass
class OpResult:
    seconds: float
    failed: bool
    signature: tuple  # the outcome, which must repeat in every round
    bad: str | None  # why the output cannot be right
    output_bytes: int
    scaled: float | None = None


def run_op(op, out_path: str, tracer=None) -> OpResult:
    """Issue one operation, then judge its output outside the timing."""
    from revpi import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(op.argv(out_path))
    except Exception as exc:  # an escaping checker error is a failed operation
        error = "%s: %s" % (type(exc).__name__, exc)
    except SystemExit as exc:  # argparse rejected the command line
        error = "exit %s: %s" % (exc.code, stderr.getvalue().strip())
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.flush()
    text = stdout.getvalue()
    size = len(text.encode())
    if error is not None:
        return OpResult(seconds, True, ("error", error), None, size)
    try:
        if op.command == "check":
            found = verify.check_verdict(rc, text)
            return OpResult(seconds, found > 0, ("violations", found), None, size)
        if rc != 0:
            return OpResult(seconds, True, ("exit", rc, text[-200:]), None, size)
        size += os.path.getsize(out_path)
        counts = verify.check_export(out_path, op.depth, op.first_steps)
        return OpResult(seconds, False, ("lts",) + counts, None, size)
    except verify.BadOutput as exc:
        return OpResult(seconds, True, ("bad", str(exc)), str(exc), size)
    finally:
        if op.command == "export" and os.path.exists(out_path):
            os.remove(out_path)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: build the inputs, report when
    they are ready and what they were."""
    import workloads

    ops = workloads.build(workload, seed)
    print(json.dumps({"ready": time.time(), "digest": workloads.digest(ops)}))
    return 0


def interpreter_start_seconds() -> float:
    """Time to start and end a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, expect: str) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to inputs ready, each
    probe scaled by the median of the bare interpreter starts around it;
    and the median bare start."""
    times, starts = [], [interpreter_start_seconds()]
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if doc["digest"] != expect:
            raise RuntimeError("a fresh interpreter drew other inputs for seed %d" % seed)
        times.append(doc["ready"] - start)
        starts.append(interpreter_start_seconds())
    scaled = statistics.median(
        t * START_S / statistics.median(starts[max(0, i - 1):i + 3])
        for i, t in enumerate(times))
    return scaled, statistics.median(starts)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.build(workload, seed)
    metrics: dict[str, float] = {}
    speed = {"reference_ms": [], "start_ms": None}
    if tracer is not None:
        tracer.flush()
        corpus_load_ms = tracer.total_s["corpus.load"] * 1e3
        tracer.reset()
    else:
        metrics["setup_s"], start_s = measure_setup(workload, seed, workloads.digest(ops))
        speed["start_ms"] = start_s * 1e3

    OUT_DIR.mkdir(exist_ok=True)
    out_path = str(OUT_DIR / ("export-%d.json" % os.getpid()))
    rounds: list[list[OpResult]] = []
    layer_rounds: list[dict] = []
    begin = time.perf_counter()
    while True:
        results, marks, reference = [], [], [reference_seconds()]
        since = 0.0
        for op in ops:
            results.append(run_op(op, out_path, tracer))
            since += results[-1].seconds
            marks.append(len(reference))
            if since >= REFERENCE_EVERY:
                reference.append(reference_seconds())
                since = 0.0
        reference.append(reference_seconds())
        scale_by_reference(results, marks, reference)
        speed["reference_ms"] += [t * 1e3 for t in reference]
        rounds.append(results)
        if tracer is not None:
            layer = tracer.metrics()
            layer["corpus.load_ms"] = corpus_load_ms
            layer["cli.output_bytes"] = sum(r.output_bytes for r in results)
            layer_rounds.append(layer)
            tracer.reset()
        if time.perf_counter() - begin >= seconds:
            break
    with contextlib.suppress(OSError):
        OUT_DIR.rmdir()

    correct = True
    for i, op in enumerate(ops):
        first = rounds[0][i]
        if first.bad:
            correct = False
            print("wrong output: %s: %s" % (op.name, first.bad), file=sys.stderr)
        if any(r[i].signature != first.signature for r in rounds):
            correct = False
            print("output changed between rounds: %s" % op.name, file=sys.stderr)
        if first.failed and not op.known_fault:
            correct = False
            print("unexpected failure: %s: %s" % (op.name, first.signature), file=sys.stderr)
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for results in rounds for r in results)
    round_s = [sum(r.scaled for r in results) for results in rounds]

    if tracer is not None:
        tracer.uninstall()
        from tracer import METRICS
        for name, unit, _ in METRICS:
            values = [layer[name] for layer in layer_rounds]
            if unit == "ms":
                metrics[name] = statistics.median(values)
            else:
                if any(v != values[0] for v in values):
                    correct = False
                    print("count %s changed between rounds: %s" % (name, values),
                          file=sys.stderr)
                metrics[name] = values[0]
        units = {name: unit for name, unit, _ in METRICS}
    else:
        times = [r.scaled for results in rounds for r in results]
        metrics["run_s"] = statistics.median(round_s)
        metrics["op_p50_ms"] = statistics.median(times) * 1e3
        metrics["op_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1e3
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "round_s": round_s,
        "wall_s": [sum(r.seconds for r in results) for results in rounds],
        "speed": speed,
    }


def print_result(workload: str, result: dict) -> None:
    print("%s: %d round(s), %d operation(s) attempted, %d failed, correct=%s"
          % (workload, len(result["round_s"]), result["attempted"], result["failed"],
             result["correct"]))
    print("  each round: %s s scaled, %s s wall" % (
        ", ".join("%.3f" % t for t in result["round_s"]),
        ", ".join("%.3f" % t for t in result["wall_s"])))
    speed = result["speed"]
    print("  reference work %.2f ms (median of %d, nominal %.2f ms)" % (
        statistics.median(speed["reference_ms"]), len(speed["reference_ms"]),
        REFERENCE_S * 1e3))
    if speed["start_ms"] is not None:
        print("  bare interpreter start %.1f ms (median of %d, nominal %.1f ms)" % (
            speed["start_ms"], SETUP_PROBES + 1, START_S * 1e3))
    for name, m in result["metrics"].items():
        print("  %-42s %14.4f %s" % (name, m["value"], m["unit"]))


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited %d" % (workload, proc.returncode),
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="corpus-algebra, wide-explore, wide-export or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "revpi" / "__init__.py").is_file():
        print("error: no revpi sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r" % args.workload)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    del result["round_s"], result["wall_s"], result["speed"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
