"""Regression terms of the known engine faults, each expected to fail.

Every case runs ``revpi check`` on one term and asserts what a fixed
engine must give: exit 0 and no violation; and, on the whole reachable
transition system of the term, that the engine's dependence is exactly
the absence of a diamond (``oracles.diamond_mismatches``).  They are
strict expected failures, so the fix of a fault turns its case into an
unexpected pass, and the fix has to delete the marker (ROADMAP item 2).
"""

import json

import pytest

from oracles import diamond_mismatches
from revpi import cli, syntax
from revpi.engine import Engine
from revpi.memory import MemoryKind

FAULTS = [
    # F2: an undo/redo pair across a dcc extrusion is judged concurrent,
    # and the square does not close (16 violations)
    ("F2", "square", "dcc", 4, "nu m.(a!m.0 | b!m.0 | m?(x).0 | m!n.0)"),
    # F3: the bsc memory orders every two actions recorded in it, the
    # reference semantics only the first extruder (2 causal mismatches)
    ("F3", "correspondence", "bsc", 3, "nu m.(b!m.0 | a!m.a!m.0)"),
    # the smallest witnesses of an extrusion-biased random sweep (2 each)
    ("sweep-square", "square", "dcc", 4, "nu m.(n!m.0 | a!m.n!n.0 | m!n.0)"),
    ("sweep-correspondence", "correspondence", "bsc", 3,
     "nu m.(a!n.a!m.0 | a!m.a!m.0 | n!m.a!b.0)"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known engine fault, see ROADMAP item 2")
@pytest.mark.parametrize("suite, kind, depth, term",
                         [case[1:] for case in FAULTS], ids=[case[0] for case in FAULTS])
def test_known_fault_term_checks_clean(suite, kind, depth, term, capsys):
    code = cli.main(["check", suite, term, "--semantics", kind,
                     "--depth", str(depth), "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert (code, result["violations"]) == (cli.EXIT_OK, [])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known engine fault, see ROADMAP item 2")
@pytest.mark.parametrize("kind, term", [(case[2], case[4]) for case in FAULTS],
                         ids=[case[0] for case in FAULTS])
def test_known_fault_term_closes_a_diamond_exactly_where_concurrent(kind, term):
    engine = Engine(MemoryKind(kind))
    assert diamond_mismatches(syntax.parse_process(term), engine) == []
