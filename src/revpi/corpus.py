"""The acceptance corpus: curated terms plus a bounded generated family.

Curated entries ship as ``corpus_data/*.pi`` files (one term per file,
``#`` comments).  The generated family enumerates small combinations --
up to three parallel components, two restrictions, three nested
prefixes -- built so that no reachable state offers two transitions with
the same label: within a term each channel is used at most once per
polarity, which keeps at most one communication enabled at a time.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import syntax
from .syntax import Process


def strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def load_corpus_text(text: str) -> Process:
    return syntax.parse_process(strip_comments(text))


def load_corpus_file(path: str | Path) -> Process:
    return load_corpus_text(Path(path).read_text())


def curated_terms() -> list[tuple[str, Process]]:
    out = []
    root = resources.files("revpi").joinpath("corpus_data")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".pi"):
            out.append((entry.name[:-3], load_corpus_text(entry.read_text())))
    return out


def generated_terms() -> list[str]:
    terms = [
        # single-thread prefix nests
        "a!m.0",
        "a?(x).0",
        "a!m.b!n.0",
        "a?(x).b!m.0",
        "a!m.b?(x).0",
        "a?(x).x!m.0",
        "a!m.b!n.c!o.0",
        "a?(x).b?(y).x!y.0",
        "a!m.b?(x).x!n.0",
        # independent threads
        "a!m.0 | b!n.0",
        "a!m.0 | b?(x).0",
        "a?(x).0 | b?(y).0",
        "a!m.b!n.0 | c!o.0",
        "a!m.0 | b?(x).c!x.0",
        "a!m.0 | b!n.0 | c!o.0",
        # one communication pair
        "a!m.0 | a?(x).0",
        "a!m.0 | a?(x).b!x.0",
        "a!m.b!n.0 | a?(x).0",
        "a!m.0 | a?(x).x!n.0",
        "a!m.b2?(y).0 | a?(x).b2!x.0",
        # chained communications across three threads
        "a!m.0 | a?(x).b!x.0 | b?(y).0",
        "a!m.0 | a?(x).0 | b!n.0",
        "a!m.b!n.0 | a?(x).0 | b?(y).0",
        # restriction and extrusion
        "nu m.(a!m.0)",
        "nu m.(a!m.0 | b!m.0)",
        "nu m.(a!m.0 | m?(x).0)",
        "nu m.(a!m.0 | b!m.0 | m?(x).0)",
        "nu m.(a!m.m?(x).0)",
        "nu m.(a!m.b!m.0)",
        "nu m.(m!n.0 | m?(x).0)",
        "nu m.(a!m.0) | a?(x).0",
        "nu m.(a!m.0) | a?(x).x!n.0",
        "nu m.(a!m.0 | b!m.0) | b?(x).0",
        # two restrictions
        "nu m.(nu n.(a!m.b!n.0))",
        "nu m.(nu n.(a!n.0 | b!m.0))",
        "nu m.(a!m.0 | nu n.(b!n.0))",
        "nu m.(a!m.0) | nu n.(b!n.0)",
        "nu m.(a!m.0 | m?(x).0) | nu n.(b!n.0)",
    ]
    return list(dict.fromkeys(terms))


def acceptance_corpus() -> list[tuple[str, Process]]:
    """Every process the acceptance criteria quantify over."""
    out = list(curated_terms())
    have = {syntax.format(p) for _, p in out}
    for i, text in enumerate(generated_terms()):
        p = syntax.parse_process(text)
        rendered = syntax.format(p)
        if rendered not in have:
            have.add(rendered)
            out.append(("gen_%02d" % i, p))
    return out
