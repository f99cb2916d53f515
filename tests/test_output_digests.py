"""Byte-level regression gate for the enumeration and correspondence output.

``tests/data/enumerate_digests.json`` holds the sha256 of the stdout of
``revpi enumerate <term> --semantics K --depth 4 --format json`` for
every acceptance-corpus term and a few restriction-under-prefix terms,
under each memory kind.  ``tests/data/correspondence_digests.json``
holds the sha256 of both ``bsc`` correspondence reports (structural and
causal, each as ``json.dumps`` of its fields with indent 2) at depth 4
for every corpus term and the fault term ``F3_TERM``, and of the stdout
of ``revpi check correspondence --semantics bsc --depth 4 --format
json``.
``tests/data/enumerate_depth6_digests.json`` holds the sha256 of the
``enumerate`` output at depth 6 for a few close-heavy terms, where
closes, reopenings and their undos interleave.
``tests/data/enumerate_format_digests.json`` holds the sha256 of the
``enumerate --format text`` and ``--format dot`` output at depth 4 for
every acceptance-corpus term under each memory kind.
``tests/data/causality_digests.json`` holds, per corpus or fault term
and memory kind, one sha256 over ``causality_dot`` and the sorted
``causal_preorder`` of every trace of length at most 4: clean ``check``
output names no states, so a changed concurrency verdict on a passing
term shows only here.  ``tests/data/fault_check_digests.json`` holds the
exit code and the stdout sha256 of ``revpi check <suite> --depth 4
--format json`` for the fault terms, whose output carries violations.
A refactor that claims to keep the output byte-identical must keep every
digest.  To re-record after an intended change in output, write
``current_digests()``, ``current_deep_digests()``,
``current_format_digests()``, ``current_correspondence_digests()``,
``current_causality_digests()`` or ``current_fault_check_digests()`` to
its data file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

from revpi import causality, checks, cli, corpus, correspondence, syntax
from revpi.engine import Engine
from revpi.memory import MemoryKind

DATA = Path(__file__).resolve().parent / "data" / "enumerate_digests.json"
DEEP_DATA = DATA.with_name("enumerate_depth6_digests.json")
FORMAT_DATA = DATA.with_name("enumerate_format_digests.json")
CORRESPONDENCE_DATA = DATA.with_name("correspondence_digests.json")
CAUSALITY_DATA = DATA.with_name("causality_digests.json")
FAULT_CHECK_DATA = DATA.with_name("fault_check_digests.json")

# A restriction under a prefix, inside a top-level restriction: the
# nested one is lifted only when its prefix fires.
EXTRA_TERMS = [
    "nu r.(a!m.nu s.(b!s.0) | a?(x).x!r.0)",
    "nu r.(c!r.0 | a?(x).nu s.(x!s.0))",
    "nu r.(a!r.nu s.(r!s.0) | a?(y).y?(z).0)",
]


# Under bsc the causal correspondence of this term fails at depth 3 (the
# fault F3 of the benchmark): its reports carry violations.
F3_TERM = "nu m.(b!m.0 | a!m.a!m.0)"

# Under dcc the square check of this term fails (the fault F2 of the
# benchmark).
F2_TERM = "nu m.(a!m.0 | b!m.0 | m?(x).0 | m!n.0)"

# A restriction under a prefix (the fault F1 of the benchmark, fixed by
# lifting it with the run's memory kind when its prefix fires).
F1_TERMS = ["a!m.nu n.(b!n.0) | c!o.0", "c!o.0 | a?(x).nu n.(x!n.0)"]

FAULT_TERMS = F1_TERMS + [F2_TERM, F3_TERM]

# Scope closes, reopenings and undos of both, enumerated at depth 6.
DEEP_TERMS = [
    "nu m.(a!m.0) | a?(x).0",
    "nu m.(a!m.0) | a?(x).x!n.0",
    "nu m.(a!m.0 | b!m.0) | b?(x).0",
    "nu a.(b!a.d!a.0) | b?(x).0",
    "nu a.(b!a.0 | d!a.0) | b?(x).0",
    "nu a.(b!a.0 | c!a.0) | c?(x).x!d.0",
    F2_TERM,
    F3_TERM,
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout digest of one ``revpi`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, _sha256(out.getvalue())


def _stdout_digest(argv: list[str]) -> str:
    rc, digest = _run(argv)
    assert rc == cli.EXIT_OK
    return digest


def enumerate_digest(term: str, kind: MemoryKind, depth: int = 4,
                     fmt: str = "json") -> str:
    return _stdout_digest(["enumerate", term, "--semantics", kind.value,
                           "--depth", str(depth), "--format", fmt])


def digest_terms() -> list[str]:
    return [syntax.format(p) for _, p in corpus.acceptance_corpus()] + EXTRA_TERMS


def current_digests() -> dict[str, str]:
    return {"%s %s" % (kind.value, term): enumerate_digest(term, kind)
            for term in digest_terms() for kind in MemoryKind}


def current_deep_digests() -> dict[str, str]:
    return {"%s %s" % (kind.value, term): enumerate_digest(term, kind, 6)
            for term in DEEP_TERMS for kind in MemoryKind}


def _assert_unchanged(data: Path, current: dict[str, str]) -> None:
    expected = json.loads(data.read_text())
    assert sorted(current) == sorted(expected)
    changed = [k for k in expected if current[k] != expected[k]]
    assert changed == []


def test_enumeration_output_is_byte_identical():
    _assert_unchanged(DATA, current_digests())


def test_deep_enumeration_output_is_byte_identical():
    _assert_unchanged(DEEP_DATA, current_deep_digests())


def current_format_digests() -> dict[str, str]:
    terms = [syntax.format(p) for _, p in corpus.acceptance_corpus()]
    return {"%s %s %s" % (fmt, kind.value, term): enumerate_digest(term, kind, 4, fmt)
            for fmt in ("text", "dot") for term in terms for kind in MemoryKind}


def test_text_and_dot_enumeration_output_is_byte_identical():
    _assert_unchanged(FORMAT_DATA, current_format_digests())


def current_correspondence_digests() -> dict[str, str]:
    out = {}
    terms = [syntax.format(p) for _, p in corpus.acceptance_corpus()] + [F3_TERM]
    for term in terms:
        p = syntax.parse_process(term)
        structural, causal = correspondence.check_correspondence(p, 4)
        for name, report in (("structural", structural), ("causal", causal)):
            text = json.dumps(dataclasses.asdict(report), indent=2)
            out["%s %s" % (name, term)] = _sha256(text)
    out["check correspondence"] = _stdout_digest(
        ["check", "correspondence", "--semantics", "bsc", "--depth", "4",
         "--format", "json"])
    return out


def test_correspondence_output_is_byte_identical():
    _assert_unchanged(CORRESPONDENCE_DATA, current_correspondence_digests())


def causality_digest(term: str, kind: MemoryKind, maxlen: int = 4) -> str:
    """One sha256 over the causality graph and the causal preorder of
    every trace of length at most ``maxlen`` from ``term``."""
    h = hashlib.sha256()
    for steps in checks._all_traces(syntax.parse_process(term), Engine(kind), maxlen):
        tr = causality.Trace(steps)
        h.update(causality.causality_dot(tr).encode())
        h.update(repr(sorted(causality.causal_preorder(tr))).encode())
    return h.hexdigest()


def current_causality_digests() -> dict[str, str]:
    terms = [syntax.format(p) for _, p in corpus.acceptance_corpus()] + FAULT_TERMS
    return {"%s %s" % (kind.value, term): causality_digest(term, kind)
            for term in terms for kind in MemoryKind}


def test_causality_verdicts_are_unchanged():
    _assert_unchanged(CAUSALITY_DATA, current_causality_digests())


def current_fault_check_digests() -> dict[str, str]:
    out = {}
    for suite in ("loop", "square", "consistency", "bisim"):
        for term in FAULT_TERMS:
            for kind in MemoryKind:
                rc, digest = _run(["check", suite, term, "--semantics", kind.value,
                                   "--depth", "4", "--format", "json"])
                out["%s %s %s" % (suite, kind.value, term)] = "%d %s" % (rc, digest)
    return out


def test_fault_term_check_output_is_byte_identical():
    _assert_unchanged(FAULT_CHECK_DATA, current_fault_check_digests())
