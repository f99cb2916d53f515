"""What a ``revpi`` process pays before its first step: the record classes
are made from one compiled source each, and no import reads a signature.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

from revpi import cli
from test_engine import _records

SRC = Path(cli.__file__).resolve().parent

GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def test_every_method_of_a_record_is_compiled_by_record():
    classes = _records()
    assert len(classes) > 20
    for cls in classes:
        for name in GENERATED:
            code = cls.__dict__[name].__code__
            assert code.co_filename == "<record %s>" % cls.__qualname__, (cls, name)


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_dataclass_has_a_docstring():
    # ``dataclass`` reads the constructor's signature to write a missing one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    _decorator_name(d) in ("dataclass", "record") for d in node.decorator_list):
                found.append((path.name, node.name, ast.get_docstring(node) is not None))
    made = {(Path(inspect.getfile(cls)).name, cls.__name__) for cls in _records()}
    assert made and made <= {(f, name) for f, name, _ in found}
    assert [(f, name) for f, name, documented in found if not documented] == []


def test_importing_the_cli_reads_no_signature():
    probe = (
        "import inspect\n"
        "calls = []\n"
        "signature = inspect.signature\n"
        "def counted(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return signature(*args, **kwargs)\n"
        "inspect.signature = counted\n"
        "import revpi.cli\n"
        "print(len(calls))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_importing_the_cli_loads_neither_reference_module():
    # ``bs`` and ``correspondence`` are loaded by the suites that use them,
    # so ``revpi export``, ``enumerate`` and the other checks never pay for them
    probe = (
        "import sys\n"
        "import revpi.cli\n"
        "print(sorted(m for m in ('revpi.bs', 'revpi.correspondence') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
