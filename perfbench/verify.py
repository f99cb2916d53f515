"""Output checks that do not trust the program.

Check verdicts are judged against the metatheory (every suite must find
no violation for every memory), and exported transition systems against
properties any bounded enumeration of a reversible LTS has.
"""

from __future__ import annotations

import json
import re
from collections import deque

_STAMP = re.compile(r"\[(\d+);")


class BadOutput(Exception):
    """The program produced output that cannot be right."""


def check_verdict(rc: int, stdout: str) -> int:
    """Number of violations a ``check --format json`` run reports for its
    single term, after checking that the exit code agrees with it."""
    try:
        doc = json.loads(stdout)
        results = doc["results"]
        violations = [len(r["violations"]) for r in results]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadOutput("unreadable check output: %s" % exc)
    if len(results) != 1:
        raise BadOutput("expected one result, got %d" % len(results))
    expected_rc = 3 if violations[0] else 0
    if rc != expected_rc:
        raise BadOutput("exit code %s with %d violation(s)" % (rc, violations[0]))
    return violations[0]


def graph_problems(doc: dict, depth: int, first_steps: int | None = None) -> list[str]:
    """Everything wrong with an exported LTS enumerated to ``depth``.

    The export lists the transitions of every state less than ``depth``
    steps from state 0 (an expanded state).  Between expanded states each
    forward edge needs a backward edge with the same label the other way,
    and each backward edge a forward one, if its key is the one a forward
    step from its target draws: forward steps are enumerated with the
    smallest positive key not on an executed prefix, read here off the
    ``[key;cause]`` stamps of the state string.  State strings are
    distinct, and every state lies within ``depth`` steps of state 0.

    The checks above hold of an export that drops transitions in both
    directions too, so ``first_steps``, when given, is the number of
    forward edges state 0 must have, as counted from the term's shape
    by the benchmark (see ``workloads.wide_term``).
    """
    problems = []
    states = doc["states"]
    edges = doc["transitions"]
    if len(set(states)) != len(states):
        problems.append("state strings are not distinct")
    if not states:
        return problems + ["no initial state"]
    out: dict[int, list[int]] = {}
    for e in edges:
        out.setdefault(e["from"], []).append(e["to"])
    dist = {0: 0}
    frontier = deque([0])
    while frontier:
        a = frontier.popleft()
        for b in out.get(a, ()):
            if b not in dist:
                dist[b] = dist[a] + 1
                frontier.append(b)
    if first_steps is not None:
        found = sum(1 for e in edges if e["from"] == 0 and e["dir"] == "forward")
        if found != first_steps:
            problems.append("state 0 has %d forward edge(s), its term %d"
                            % (found, first_steps))
    far = [i for i in range(len(states)) if dist.get(i, depth + 1) > depth]
    if far:
        problems.append("%d state(s) beyond depth %d of state 0" % (len(far), depth))
    expanded = {i for i, d in dist.items() if d < depth}
    for e in edges:
        if e["from"] not in expanded:
            problems.append("edge from unexpanded state %d" % e["from"])
            break
    present = {(e["from"], e["to"], e["dir"], e["label"]) for e in edges}
    flip = {"forward": "backward", "backward": "forward"}
    for e in edges:
        a, b, d, label = e["from"], e["to"], e["dir"], e["label"]
        if a not in expanded or b not in expanded:
            continue
        if d == "backward" and e["key"] != fresh_key(states[b]):
            continue
        if (b, a, flip[d], label) not in present:
            problems.append("%s edge %d->%d %s has no inverse" % (d, a, b, label))
    return problems


def fresh_key(state: str) -> int:
    """Smallest positive integer not stamped on an executed prefix."""
    used = {int(k) for k in _STAMP.findall(state)}
    key = 1
    while key in used:
        key += 1
    return key


def check_export(path: str, depth: int, first_steps: int | None = None) -> tuple[int, int]:
    """(states, transitions) of an exported LTS, after checking it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadOutput("unreadable export: %s" % exc)
    problems = graph_problems(doc, depth, first_steps)
    if problems:
        raise BadOutput("; ".join(problems[:3]))
    return len(doc["states"]), len(doc["transitions"])
