"""No dead API: every module-level function and class of the package is
used by code that runs.

A use is an identifier in the package's code -- a name, an attribute or
an imported name -- outside the definition's own body, or an identifier
or a string constant anywhere under ``perfbench/``, whose tracer names
the functions it wraps as strings.  The re-exports of ``__init__`` do not
count, and neither do tests, docstrings or comments: a definition that
only tests reach belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions kept although no code uses them, each with its reason.
EXEMPT = {
    "causality.causality_dot":
        "the causality digests hash its output, and `revpi export` is to write "
        "it (ROADMAP item 1)",
}


def _identifiers(tree, strings=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unused_definitions():
    """``module.name`` of each definition of ``src/revpi`` no use reaches."""
    named = {word for path in (ROOT / "perfbench").rglob("*.py")
             for word in _identifiers(ast.parse(path.read_text(encoding="utf-8")),
                                      strings=True)}
    defined, owners = [], {}  # owners: identifier -> definitions using it
    for path in sorted((ROOT / "src" / "revpi").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = "%s.%s" % (path.stem, node.name)
                defined.append((owner, node.name))
            for word in _identifiers(node):
                owners.setdefault(word, set()).add(owner)
    return {qual for qual, name in defined
            if name not in named and not owners.get(name, set()) - {qual}}


def test_every_definition_is_named_elsewhere():
    unused = unused_definitions()
    assert unused == set(EXEMPT), (
        "used by nothing but tests: %s; exempt but now used: %s"
        % (sorted(unused - set(EXEMPT)), sorted(set(EXEMPT) - unused)))
