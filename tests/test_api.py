"""No dead API: every module-level function and class of the package,
and every method of its classes but the dunders, is used by code that
runs.

A use is an identifier in the package's code -- a name, an attribute or
an imported name -- outside the definition's own body, or an attribute,
an imported name or a string constant anywhere under ``perfbench/``,
whose tracer names the functions it wraps as strings.  A bare name under
``perfbench/`` is that code's own variable or function, not a use.  The
re-exports of ``__init__`` do not count, and neither do tests,
docstrings or comments: a definition that only tests reach belongs in
``tests/oracles.py``.

And no traced name is missing: every function the benchmark's tracer
wraps by name exists on its module.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions kept although no code uses them, each with its reason.
EXEMPT = {
    "causality.causality_dot":
        "the causality digests hash its output, and `revpi export` is to write "
        "it (ROADMAP item 1)",
    "semantics.step":
        "`revpi replay` is to call it to replay a recorded trace (ROADMAP item 1)",
}


def _identifiers(tree, outside=False):
    """The identifiers of ``tree``; read as code ``outside`` the package,
    string constants count and bare names do not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not outside:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif outside and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(node, scope, defined, owners):
    """Add to ``defined`` each function and class in ``node``, and each
    method of a class but the dunders, as ``(qualified name, name)``; map
    each identifier in ``owners`` to the innermost definitions it occurs
    in (``scope`` itself outside them)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = "%s.%s" % (scope, node.name)
        if not (node.name.startswith("__") and node.name.endswith("__")):
            defined.append((scope, node.name))
    if isinstance(node, ast.ClassDef):
        for part in node.bases + node.keywords + node.decorator_list:
            for word in _identifiers(part):
                owners.setdefault(word, set()).add(scope)
        for stmt in node.body:
            _definitions(stmt, scope, defined, owners)
    else:
        for word in _identifiers(node):
            owners.setdefault(word, set()).add(scope)


def unused_definitions():
    """``module.name`` (``module.Class.method``) of each definition of
    ``src/revpi`` no use reaches."""
    named = {word for path in (ROOT / "perfbench").rglob("*.py")
             for word in _identifiers(ast.parse(path.read_text(encoding="utf-8")),
                                      outside=True)}
    defined, owners = [], {}  # owners: identifier -> definitions using it
    for path in sorted((ROOT / "src" / "revpi").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            _definitions(node, path.stem, defined, owners)
    return {qual for qual, name in defined
            if name not in named
            and all(o == qual or o.startswith(qual + ".") for o in owners.get(name, ()))}


def test_every_definition_is_named_elsewhere():
    unused = unused_definitions()
    assert unused == set(EXEMPT), (
        "used by nothing but tests: %s; exempt but now used: %s"
        % (sorted(unused - set(EXEMPT)), sorted(set(EXEMPT) - unused)))


def _tracer_groups() -> dict:
    """``GROUPS`` of ``perfbench/tracer.py``, read without importing the
    benchmark's other modules."""
    spec = importlib.util.spec_from_file_location(
        "revpi_tracer_groups", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.GROUPS


def test_every_traced_name_is_a_function_of_its_module():
    # the tracer looks each name up only in a traced run, which tier-1
    # does not make, so a deleted or renamed one would go unnoticed
    missing = []
    groups = _tracer_groups()
    for span, (modname, names) in groups.items():
        module = importlib.import_module("revpi." + modname)
        missing += ["%s: revpi.%s.%s" % (span, modname, name) for name in names or ()
                    if not inspect.isfunction(getattr(module, name, None))]
    assert groups and missing == []


def test_the_tracer_reads_the_enumerations_arguments_by_position():
    # its observers take the state, kind and key of a forward enumeration,
    # and the state of a backward one, from the positional arguments
    semantics = importlib.import_module("revpi.semantics")
    forward = list(inspect.signature(semantics.forward_transitions).parameters)
    backward = list(inspect.signature(semantics.backward_transitions).parameters)
    assert forward[:3] == ["x", "kind", "key"]
    assert backward[:1] == ["x"]
