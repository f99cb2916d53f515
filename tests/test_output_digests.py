"""Byte-level regression gate for the enumeration and correspondence output.

``tests/data/enumerate_digests.json`` holds the sha256 of the stdout of
``revpi enumerate <term> --semantics K --depth 4 --format json`` for
every acceptance-corpus term and a few restriction-under-prefix terms,
under each memory kind.  ``tests/data/correspondence_digests.json``
holds the sha256 of both ``bsc`` correspondence reports (structural and
causal, ``to_json_str()``) at depth 4 for every corpus term and the
fault term ``F3_TERM``, and of the stdout of ``revpi check
correspondence --semantics bsc --depth 4 --format json``.  A refactor
that claims to keep the output byte-identical must keep every digest.
To re-record after an intended change in output, write
``current_digests()`` or ``current_correspondence_digests()`` to its
data file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from revpi import cli, corpus, correspondence, syntax
from revpi.memory import MemoryKind

DATA = Path(__file__).resolve().parent / "data" / "enumerate_digests.json"
CORRESPONDENCE_DATA = DATA.with_name("correspondence_digests.json")

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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == cli.EXIT_OK
    return _sha256(out.getvalue())


def enumerate_digest(term: str, kind: MemoryKind) -> str:
    return _stdout_digest(["enumerate", term, "--semantics", kind.value,
                           "--depth", "4", "--format", "json"])


def digest_terms() -> list[str]:
    return [syntax.format(p) for _, p in corpus.acceptance_corpus()] + EXTRA_TERMS


def current_digests() -> dict[str, str]:
    return {"%s %s" % (kind.value, term): enumerate_digest(term, kind)
            for term in digest_terms() for kind in MemoryKind}


def test_enumeration_output_is_byte_identical():
    expected = json.loads(DATA.read_text())
    current = current_digests()
    assert sorted(current) == sorted(expected)
    changed = [k for k in expected if current[k] != expected[k]]
    assert changed == []


def current_correspondence_digests() -> dict[str, str]:
    out = {}
    terms = [syntax.format(p) for _, p in corpus.acceptance_corpus()] + [F3_TERM]
    for term in terms:
        p = syntax.parse_process(term)
        structural, causal = correspondence.check_correspondence(p, 4)
        out["structural %s" % term] = _sha256(structural.to_json_str())
        out["causal %s" % term] = _sha256(causal.to_json_str())
    out["check correspondence"] = _stdout_digest(
        ["check", "correspondence", "--semantics", "bsc", "--depth", "4",
         "--format", "json"])
    return out


def test_correspondence_output_is_byte_identical():
    expected = json.loads(CORRESPONDENCE_DATA.read_text())
    current = current_correspondence_digests()
    assert sorted(current) == sorted(expected)
    changed = [k for k in expected if current[k] != expected[k]]
    assert changed == []
