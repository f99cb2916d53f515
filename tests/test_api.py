"""No dead API: every module-level function and class of the package is
named somewhere besides its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "revpi"
# perfbench counts: its tracer names the functions it wraps as strings
SEARCHED = ("src", "tests", "perfbench")


def test_every_definition_is_named_elsewhere():
    sources = {path: path.read_text().splitlines(keepends=True)
               for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line)
                       for other, lines in sources.items()
                       for i, line in enumerate(lines)
                       if other != path or i not in own):
                unused.append("%s.%s" % (path.stem, node.name))
    assert not unused, "defined but never named: %s" % ", ".join(unused)
