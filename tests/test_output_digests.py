"""Byte-level regression gate for the enumeration output.

``tests/data/enumerate_digests.json`` holds the sha256 of the stdout of
``revpi enumerate <term> --semantics K --depth 4 --format json`` for
every acceptance-corpus term and a few restriction-under-prefix terms,
under each memory kind.  A refactor that claims to keep the output
byte-identical must keep every digest.  To re-record after an intended
change in output, write ``current_digests()`` to the data file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from revpi import cli, corpus, syntax
from revpi.memory import MemoryKind

DATA = Path(__file__).resolve().parent / "data" / "enumerate_digests.json"

# A restriction under a prefix, inside a top-level restriction: the
# nested one is lifted only when its prefix fires.
EXTRA_TERMS = [
    "nu r.(a!m.nu s.(b!s.0) | a?(x).x!r.0)",
    "nu r.(c!r.0 | a?(x).nu s.(x!s.0))",
    "nu r.(a!r.nu s.(r!s.0) | a?(y).y?(z).0)",
]


def enumerate_digest(term: str, kind: MemoryKind) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["enumerate", term, "--semantics", kind.value,
                       "--depth", "4", "--format", "json"])
    assert rc == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


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
