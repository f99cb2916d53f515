"""No dead API: every module-level function and class of the package,
and every method of its classes but the dunders, is used by code that
runs.

A use is an identifier in the package's code -- a name, an attribute or
an imported name -- outside the definition's own body, or an attribute
or an imported name anywhere under ``perfbench/``, or a function the
benchmark's tracer wraps by name (its ``GROUPS``).  A bare name under
``perfbench/`` is that code's own variable or function, not a use, and
no other string there is one: a key such as ``"ok"`` names no
definition.  The re-exports of ``__init__`` do not count, and neither do
tests, docstrings or comments: a definition that only tests reach
belongs in ``tests/oracles.py``.

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
    bare names do not count.  In a function, a bare name the function
    binds (a parameter, or the target of an assignment) is its own
    variable, not a use."""
    bound = _bound_names(tree) if isinstance(tree, ast.FunctionDef) else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not outside and node.id not in bound:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _bound_names(fn: ast.FunctionDef) -> set:
    """The parameters of ``fn`` and the names assigned in its body."""
    return ({arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
            | {node.id for node in ast.walk(fn)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)})


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
    named |= {name for _, names in _tracer_groups().values() for name in names or ()}
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


def test_a_name_a_function_binds_is_not_a_use():
    # a parameter or a local variable of the name of a module function
    # does not keep that function alive
    fn = ast.parse("def f(step, x):\n    total = step(x)\n    return total + other\n").body[0]
    assert set(_identifiers(fn)) == {"other"}


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


def _json_importers() -> set:
    """The modules of ``src/revpi`` that import ``json`` or a module of it."""
    out = set()
    for path in sorted((ROOT / "src" / "revpi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "json" or m.startswith("json.") for m in modules):
                out.add(path.stem)
    return out


def test_only_the_cli_writes_json():
    # the output format sits behind one module, the one that also pauses
    # the cycle collector that ``json.dumps(..., indent=2)`` leaves work for
    assert _json_importers() == {"cli"}
