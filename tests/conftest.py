import pytest
from hypothesis import strategies as st

from revpi import semantics, syntax
from revpi.memory import MemoryKind
from revpi.syntax import AnnotatedName, Direction, Input, Nil, Output, Par, Res


def parse(text):
    return syntax.parse_process(text)


def start(text, kind=MemoryKind.RPI):
    return syntax.initial(parse(text), kind)


def fire(state, needle, kind=MemoryKind.RPI, direction=Direction.FORWARD):
    """The unique transition whose rendered label contains ``needle``."""
    if direction is Direction.FORWARD:
        batch = semantics.forward_transitions(state, kind)
    else:
        batch = semantics.backward_transitions(state)
    hits = [t for t in batch if needle in syntax.format(t.label)]
    assert len(hits) == 1, "%r matched %d transitions of %s" % (
        needle, len(hits), syntax.format(state))
    return hits[0]


def run(text, needles, kind=MemoryKind.RPI):
    """Fire a sequence of label fragments from an initial term, returning
    the list of transitions."""
    state = start(text, kind)
    steps = []
    for needle in needles:
        t = fire(state, needle, kind)
        steps.append(t)
        state = t.target
    return steps


@pytest.fixture(scope="session")
def corpus_entries():
    from revpi import corpus
    return corpus.acceptance_corpus()


_names = st.sampled_from(["a", "b", "c", "m"])


@st.composite
def procs(draw, depth=3):
    """Plain processes of prefix depth at most ``depth`` over four names;
    binders may repeat, so parse the rendering for a uniquified term."""
    if depth == 0:
        return Nil()
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Nil()
    if kind == 1:
        return Output(AnnotatedName(draw(_names)), AnnotatedName(draw(_names)),
                      draw(procs(depth - 1)))
    if kind == 2:
        return Input(AnnotatedName(draw(_names)), draw(_names), draw(procs(depth - 1)))
    if kind == 3:
        return Par(draw(procs(depth - 1)), draw(procs(depth - 1)))
    return Res(draw(_names), draw(procs(depth - 1)))
