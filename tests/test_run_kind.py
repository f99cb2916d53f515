"""The memory kind comes from the run, never from the term.

A restriction under a prefix enters the reversible layer only when its
prefix fires.  It must get a memory of the run's kind, whatever the rest
of the term holds; before the kind was passed through the engine, these
terms were lifted with ``rpi`` memories under ``bsc`` and ``dcc`` and
failed the square and consistency checks.
"""

import pytest

from conftest import fire, parse, start
from revpi import checks
from revpi.memory import MemoryKind
from revpi.syntax import RRes

NESTED = ["a!m.nu n.(b!n.0) | c!o.0", "c!o.0 | a?(x).nu n.(x!n.0)"]

SUITES = {
    "square": lambda p, kind: checks.check_square(p, kind, 4),
    "consistency": lambda p, kind: checks.check_consistency(p, kind, maxlen=4),
    "loop": lambda p, kind: checks.check_loop(p, kind, 4),
    "bisim": lambda p, kind: checks.check_bisim(p, kind, 4),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("kind", [MemoryKind.BSC, MemoryKind.DCC])
@pytest.mark.parametrize("term", NESTED)
def test_restriction_under_a_prefix_checks_clean(term, kind, suite):
    assert SUITES[suite](parse(term), kind) == []


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_restriction_under_a_prefix_gets_the_run_memory(kind):
    t = fire(start(NESTED[0], kind), "a!m", kind)
    assert t.target.left.cont == RRes("n", kind.new(), parse("b!n.0"))
