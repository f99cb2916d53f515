"""Process terms, concrete syntax, and erasure back to plain terms.

One node set serves every term layer.  Plain processes (``Nil``,
``Output``, ``Input``, ``Par``, ``Res``) are ordinary pi-calculus terms
whose names carry an optional instantiator annotation.  A reversible
process is built of the same nodes and adds a history: executed
prefixes stay in the term as ``PastOutput`` / ``PastInput`` nodes, and
a restriction outside every unfired prefix is an ``RRes`` node
decorated with an extrusion memory.  An unfired prefix and everything
below it stay plain.  (The causal terms of ``bs`` decorate the same
nodes with cause sets.)

Concrete grammar (whitespace-insensitive)::

    proc    := "0" | out | in | proc "|" proc | "nu" NAME "." proc | "(" proc ")"
    out     := annName "!" annName "." proc
    in      := annName "?" "(" NAME ")" "." proc
    annName := NAME [ "{" (INT | "*") "}" ]

A NAME is a lower-case letter followed by letters, digits and ``_``;
``nu`` is reserved and is no NAME.  ``|`` has the lowest precedence and
associates to the left.  An omitted annotation means "no instantiator"
(star).  ``parse_process`` renames binders so they are pairwise distinct
and disjoint from all free names; every operation downstream relies on
that convention instead of per-rule alpha-conversion side conditions.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .memory import Memory, MemoryKind


class _Star:
    """The distinguished no-key marker, rendered ``*``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


#: Single global sentinel: "no instantiator" / "no cause yet".
STAR = _Star()

KeyOrStar = Union[int, _Star]

#: The unconstrained cause set {*}.
STAR_SET: frozenset = frozenset({STAR})

#: Deepest term the parser accepts, counted in prefixes, restrictions and
#: parallel compositions on one root-to-leaf path (``a!b.0`` has depth 1,
#: ``a!b.0 | c!d.0 | e!f.0`` depth 3 since ``|`` nests to the left).
#: Nested parentheses count towards the bound too.  Term functions recurse
#: once or twice per level, so this keeps them inside Python's default
#: recursion limit.
MAX_NESTING = 256


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def key_sort(k: KeyOrStar) -> int:
    """Total order on keys with star first (used only for rendering)."""
    return -1 if k is STAR else k


def render_key(k: KeyOrStar) -> str:
    return "*" if k is STAR else str(k)


def render_cause(cause: frozenset) -> str:
    return "{%s}" % ",".join(render_key(k) for k in sorted(cause, key=key_sort))


def record(cls=None, *, keep_hash: bool = True, in_dict: bool | None = None):
    """Class decorator: ``cls`` as a frozen dataclass with a generated
    constructor and, unless ``keep_hash`` is false, a kept hash.

    Every step builds term nodes, labels and a transition, and most of
    them are hashed, compared once and dropped, so these are the constant
    costs of a step.  The class is made with ``dataclass(frozen=True,
    init=False)``: assigning an attribute still raises
    ``FrozenInstanceError``, and equality, ``repr``, ``fields`` and
    ``dataclasses.replace`` are the dataclass's own.  The constructor
    takes the fields in order, with the class's defaults, and stores them
    without the dataclass constructor's lookup of ``object.__setattr__``
    per field:

    * with ``in_dict`` (the default where the hash is kept) it writes them
      into ``__dict__``.  That makes the instance's dict, which CPython
      otherwise makes when the first kept value is stored; term nodes,
      labels and memories have their hash asked at nearly every step;
    * without it, it calls ``object.__setattr__``, bound once, and the
      fields stay in the instance's inline values, 64 bytes smaller than
      a dict (CPython 3.11): names, actions and transitions, most of which
      are never hashed.

    Rehashing a deep term from the leaves up costs more than a memo
    lookup, so the hash is computed at the first ask and kept.  It is the
    value the dataclass ``__hash__`` gives, the hash of the field tuple,
    so set and dict orders are unchanged.  A record of a few names and
    keys (``keep_hash=False``) hashes as cheaply as a kept hash is looked
    up, and keeps the dataclass ``__hash__``.
    """
    if cls is None:
        return functools.partial(record, keep_hash=keep_hash, in_dict=in_dict)
    if in_dict is None:
        in_dict = keep_hash
    cls = dataclass(frozen=True, init=False)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError("%s: a record has no __post_init__" % cls.__name__)
    names = [f.name for f in dataclasses.fields(cls)]
    defaults = {"_default_" + f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    params = "".join(", %s=_default_%s" % (n, n) if "_default_" + n in defaults
                     else ", " + n for n in names)
    if in_dict:
        stores = "\n    d = self.__dict__" + "".join("\n    d[%r] = %s" % (n, n) for n in names)
    else:
        stores = "".join("\n    _set(self, %r, %s)" % (n, n) for n in names) or "\n    pass"
    source = "def __init__(self%s):%s\n" % (params, stores)
    if keep_hash:
        source += (
            "def __hash__(self):\n"
            "    d = self.__dict__\n"
            "    h = d.get('_hash')\n"
            "    if h is None:\n"
            "        h = d['_hash'] = hash((%s))\n"
            "    return h\n") % "".join("self.%s, " % n for n in names)
    made: dict = {}
    exec(source, {"_set": object.__setattr__, **defaults}, made)
    for name, fn in made.items():
        fn.__qualname__ = "%s.%s" % (cls.__qualname__, name)
        fn.__module__ = cls.__module__
        setattr(cls, name, fn)
    return cls


def kept_on_node(slot: str):
    """Function decorator for a pure function of one frozen node, a term
    of either layer or a label: keep the result on the node, in its
    ``__dict__`` under ``slot``.

    A step rebuilds only the path to the acting prefix, so a successor
    shares every other subtree, and what is kept on it, with its source;
    and the premise tables of a run hand the same label instance to every
    state whose step it labels.  As with ``record``, equality,
    ``repr`` and ``dataclasses.replace`` are untouched (a replaced copy
    computes anew), and the value goes with the node.  A node that is its
    own result keeps ``_ITSELF`` instead, as a node kept on itself would
    hold itself.
    """
    def decorate(fold):
        @functools.wraps(fold)
        def kept(x):
            state = x.__dict__
            out = state.get(slot)
            if out is None:
                out = fold(x)
                state[slot] = _ITSELF if out is x else out
            elif out is _ITSELF:
                return x
            return out
        return kept
    return decorate


_ITSELF = object()


@record(keep_hash=False)
class AnnotatedName:
    """A name occurrence together with the key that substituted it in."""

    name: str
    inst: KeyOrStar = STAR

    def __str__(self) -> str:
        if self.inst is STAR:
            return self.name
        return "%s{%d}" % (self.name, self.inst)


# --------------------------------------------------------------------------- #
# Plain processes
# --------------------------------------------------------------------------- #

@record(keep_hash=False)
class Nil:
    pass


@record
class Output:
    chan: AnnotatedName
    datum: AnnotatedName
    cont: "Process"


@record
class Input:
    chan: AnnotatedName
    binder: str
    cont: "Process"


@record
class Par:
    left: "Process"
    right: "Process"


@record
class Res:
    name: str
    body: "Process"


Process = Union[Nil, Output, Input, Par, Res]


# --------------------------------------------------------------------------- #
# Reversible processes: the plain nodes, and these
# --------------------------------------------------------------------------- #

@record
class PastOutput:
    chan: AnnotatedName
    datum: AnnotatedName
    key: int
    cause: frozenset
    cont: "RProcess"


@record
class PastInput:
    chan: AnnotatedName
    binder: str
    key: int
    cause: frozenset
    cont: "RProcess"


@record
class RRes:
    name: str
    mem: "Memory"
    body: "RProcess"


RProcess = Union[Nil, Output, Input, Par, PastOutput, PastInput, RRes]

PastPrefix = (PastOutput, PastInput)


# --------------------------------------------------------------------------- #
# Labels
# --------------------------------------------------------------------------- #

@record(keep_hash=False)
class FreeOut:
    chan: str
    datum: str


@record(keep_hash=False)
class InAct:
    chan: str
    binder: str


@record(keep_hash=False)
class BoundOut:
    """Scope-extruding output; carries the crossed restriction's memory."""

    chan: str
    datum: str
    mem: "Memory"


@record(keep_hash=False)
class Tau:
    pass


Action = Union[FreeOut, InAct, BoundOut, Tau]


def act_subject(act: Action) -> str | None:
    if isinstance(act, (FreeOut, InAct, BoundOut)):
        return act.chan
    return None


def act_object(act: Action) -> str | None:
    if isinstance(act, (FreeOut, BoundOut)):
        return act.datum
    if isinstance(act, InAct):
        return act.binder
    return None


@record
class Label:
    key: int
    cause: frozenset
    inst: KeyOrStar
    act: Action


# Plain pi-calculus labels (image of label erasure, and the oracle LTS).

@record(keep_hash=False)
class PiFreeOut:
    chan: str
    datum: str


@record(keep_hash=False)
class PiIn:
    chan: str
    binder: str


@record(keep_hash=False)
class PiBoundOut:
    chan: str
    datum: str


@record(keep_hash=False)
class PiTau:
    pass


PiLabel = Union[PiFreeOut, PiIn, PiBoundOut, PiTau]


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #

class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[a-z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<punct>[!?(){}.|*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, lexeme, line, col))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0  # prefixes, restrictions and parentheses now open

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, lexeme: str) -> None:
        kind, lex, line, col = self.next()
        if lex != lexeme:
            raise ParseError("expected %r, found %r" % (lexeme, lex or "end of input"), line, col)

    def fail(self, message: str) -> None:
        _, lex, line, col = self.peek()
        raise ParseError(message + (", found %r" % (lex or "end of input")), line, col)

    def parse(self) -> Process:
        p, _ = self.parse_par()
        kind, lex, line, col = self.peek()
        if kind != "eof":
            raise ParseError("trailing input %r" % lex, line, col)
        return p

    def bounded(self, height: int) -> int:
        if height > MAX_NESTING:
            self.fail("term nested deeper than %d levels" % MAX_NESTING)
        return height

    # Each parse method returns the term with its height, so that a long
    # parallel chain (a left-deep Par) is rejected as soon as it is built.

    def parse_par(self) -> tuple[Process, int]:
        left, height = self.parse_atom()
        while self.peek()[1] == "|":
            self.next()
            right, right_height = self.parse_atom()
            left, height = Par(left, right), self.bounded(max(height, right_height) + 1)
        return left, height

    def enter(self) -> None:
        # guards the parser's own recursion: the text nesting (prefixes,
        # restrictions, parentheses) exceeds the term height only through
        # redundant parentheses
        self.level = self.bounded(self.level + 1)

    def parse_cont(self) -> tuple[Process, int]:
        self.enter()
        p, height = self.parse_atom()
        self.level -= 1
        return p, self.bounded(height + 1)

    def parse_atom(self) -> tuple[Process, int]:
        kind, lex, line, col = self.peek()
        if lex == "(":
            self.next()
            self.enter()
            p = self.parse_par()
            self.level -= 1
            self.expect(")")
            return p
        if kind == "int":
            if lex != "0":
                raise ParseError("a process cannot start with %r" % lex, line, col)
            self.next()
            return Nil(), 0
        # ``nu`` before ``!``, ``?`` or ``{`` is in a channel's place, where
        # ``name`` rejects it
        if kind == "name" and lex == "nu" and self.tokens[self.pos + 1][1] not in ("!", "?", "{"):
            self.next()
            name = self.parse_name("expected a name after 'nu'")
            self.expect(".")
            body, height = self.parse_cont()
            return Res(name, body), height
        if kind == "name":
            chan = self.parse_ann_name()
            op = self.next()
            if op[1] == "!":
                datum = self.parse_ann_name()
                self.expect(".")
                cont, height = self.parse_cont()
                return Output(chan, datum, cont), height
            if op[1] == "?":
                self.expect("(")
                binder = self.parse_name("expected a binder name")
                self.expect(")")
                self.expect(".")
                cont, height = self.parse_cont()
                return Input(chan, binder, cont), height
            raise ParseError("expected '!' or '?' after a channel", op[2], op[3])
        self.fail("expected a process")

    def parse_name(self, missing: str) -> str:
        # every name position: a channel, a datum, a binder or a restricted name
        kind, lex, line, col = self.next()
        if kind != "name":
            raise ParseError(missing, line, col)
        if lex == "nu":
            raise ParseError("'nu' is reserved and cannot be a name", line, col)
        return lex

    def parse_ann_name(self) -> AnnotatedName:
        lex = self.parse_name("expected a name")
        inst: KeyOrStar = STAR
        if self.peek()[1] == "{":
            self.next()
            akind, alex, aline, acol = self.next()
            if alex == "*":
                inst = STAR
            elif akind == "int":
                inst = int(alex)
                if inst < 1:
                    raise ParseError("keys are positive", aline, acol)
            else:
                raise ParseError("expected a key or '*'", aline, acol)
            self.expect("}")
        return AnnotatedName(lex, inst)


def _all_names(p: Process) -> set[str]:
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Output):
        return {p.chan.name, p.datum.name} | _all_names(p.cont)
    if isinstance(p, Input):
        return {p.chan.name, p.binder} | _all_names(p.cont)
    if isinstance(p, Par):
        return _all_names(p.left) | _all_names(p.right)
    if isinstance(p, Res):
        return {p.name} | _all_names(p.body)
    raise TypeError(p)


def _fresh_variant(base: str, used: set[str]) -> str:
    n = 1
    while "%s%d" % (base, n) in used:
        n += 1
    return "%s%d" % (base, n)


def _uniquify(p: Process) -> Process:
    """Rename binders so they never collide with free names or each other."""
    return _uniquified(p, {}, free_names(p), _all_names(p))


def _uniquified(q: Process, ren: dict[str, str], used: set[str], every: set[str]) -> Process:
    # module-level, as ``_rebuild``: a nested recursion would leave a
    # reference cycle behind every parse
    if isinstance(q, Nil):
        return q
    if isinstance(q, Output):
        return Output(_renamed(q.chan, ren), _renamed(q.datum, ren),
                      _uniquified(q.cont, ren, used, every))
    if isinstance(q, Input):
        binder, inner = _bind(q.binder, ren, used, every)
        return Input(_renamed(q.chan, ren), binder, _uniquified(q.cont, inner, used, every))
    if isinstance(q, Par):
        return Par(_uniquified(q.left, ren, used, every), _uniquified(q.right, ren, used, every))
    if isinstance(q, Res):
        name, inner = _bind(q.name, ren, used, every)
        return Res(name, _uniquified(q.body, inner, used, every))
    raise TypeError(q)


def _bind(b: str, ren: dict[str, str], used: set[str],
          every: set[str]) -> tuple[str, dict[str, str]]:
    fresh = _fresh_variant(b, used | every) if b in used else b
    used.add(fresh)
    return fresh, {**ren, b: fresh}


def _renamed(a: AnnotatedName, ren: dict[str, str]) -> AnnotatedName:
    if a.name in ren:
        return AnnotatedName(ren[a.name], a.inst)
    return a


def parse_process(text: str) -> Process:
    """Parse a plain process; binder names are uniquified on the way in."""
    return _uniquify(_Parser(text).parse())


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #

@kept_on_node("_text")
def _fmt(x) -> str:
    """The untight rendering of a plain or reversible node, kept on the
    instance.

    A target shares the text of every subtree it shares with its source.
    A run holds one instance per state (``engine.Engine``) and renders a
    target for the sort of its batch only to break a label tie, so a state
    costs one rendering per run, when the output asks for it.
    """
    if isinstance(x, Nil):
        return "0"
    if isinstance(x, Par):
        return "%s | %s" % (_fmt(x.left), _tight(x.right))
    if isinstance(x, (Res, RRes)):
        mem = ":" + memory_text(x.mem) if isinstance(x, RRes) else ""
        return "nu %s%s.%s" % (x.name, mem, _tight(x.body))
    if isinstance(x, (Output, PastOutput)):
        head = "%s!%s" % (x.chan, x.datum)
    elif isinstance(x, (Input, PastInput)):
        head = "%s?(%s)" % (x.chan, x.binder)
    else:
        raise TypeError(x)
    if isinstance(x, PastPrefix):
        head += "[%d;%s]" % (x.key, render_cause(x.cause))
    return "%s.%s" % (head, _tight(x.cont))


@kept_on_node("_text")
def memory_text(mem: "Memory") -> str:
    """``mem.render()``, kept on the memory, which every state the
    restriction sits in shares: a new restriction node renders its memory
    only if no node rendered it before."""
    return mem.render()


def _tight(x) -> str:
    """``_fmt`` of ``x``, parenthesised if it is a parallel composition."""
    return "(%s)" % _fmt(x) if isinstance(x, Par) else _fmt(x)


def _fmt_act(act: Action) -> str:
    if isinstance(act, FreeOut):
        return "%s!%s" % (act.chan, act.datum)
    if isinstance(act, InAct):
        return "%s?(%s)" % (act.chan, act.binder)
    if isinstance(act, BoundOut):
        return "%s!(nu %s:%s)" % (act.chan, act.datum, memory_text(act.mem))
    if isinstance(act, Tau):
        return "tau"
    raise TypeError(act)


def format(term) -> str:
    """Canonical rendering of a process, reversible process, or label."""
    if isinstance(term, Label):
        return "(%d,%s,%s): %s" % (
            term.key, render_cause(term.cause), render_key(term.inst),
            _fmt_act(term.act))
    return _fmt(term)


def sort_steps(steps, label_key, render) -> tuple:
    """``steps``, pairwise distinct, as a tuple in the order of
    ``(label_key(s), render(s))``.

    ``render``, a rendering of the step's target, is the costly half of
    that key, and it decides only between steps whose label keys tie.  The
    steps are sorted once by label key, and ``render`` is called only on
    the runs of tied keys, each of which it sorts in place.  Nothing is
    dropped: the rules never derive one step twice, an invariant the tests
    check on every batch.
    """
    steps = tuple(steps)
    if len(steps) < 2:
        return steps
    keys = list(map(label_key, steps))
    order = sorted(range(len(steps)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    out = [steps[i] for i in order]
    if any(map(operator.eq, keys, keys[1:])):
        start = 0
        for end in range(1, len(out) + 1):
            if end == len(out) or keys[end] != keys[start]:
                if end - start > 1:
                    out[start:end] = sorted(out[start:end], key=render)
                start = end
    return tuple(out)


# --------------------------------------------------------------------------- #
# Embedding and erasure
# --------------------------------------------------------------------------- #

def lift(p: Process, kind: "MemoryKind") -> RProcess:
    """Embed a plain process: every restriction outside the prefixes
    receives the empty memory of the configured kind (``kind.new()``).
    Prefixes and ``0`` are their own embedding, and a prefix stays plain,
    its continuation with it, until it fires.
    """
    if isinstance(p, Par):
        return Par(lift(p.left, kind), lift(p.right, kind))
    if isinstance(p, Res):
        return RRes(p.name, kind.new(), lift(p.body, kind))
    return p


def initial(p: Process, kind: "MemoryKind") -> RProcess:
    """The reversible process a run starts from: no history, empty memories."""
    return lift(strip_insts(p), kind)


def as_plain(x: RProcess) -> Process:
    """Inverse of ``lift`` on history-free terms.

    Only defined when the term contains no past prefixes and all its
    memories are empty; the backward base rules rely on it.
    """
    if isinstance(x, (Nil, Output, Input)):
        return x
    if isinstance(x, Par):
        return Par(as_plain(x.left), as_plain(x.right))
    if isinstance(x, RRes):
        if not x.mem.is_empty():
            raise ValueError("cannot flatten a restriction with history: %s" % format(x))
        return Res(x.name, as_plain(x.body))
    raise ValueError("cannot flatten a term with history: %s" % format(x))


def strip_insts(p: Process) -> Process:
    return rebuild(p, names=lambda a: AnnotatedName(a.name))


@kept_on_node("_erased")
def erase(x: RProcess) -> Process:
    """Forget the history: drop past prefixes, drop non-empty restrictions,
    keep empty restrictions, strip every instantiator.  The erasure is
    kept on the node, so a successor erases only the path its step
    rebuilt."""
    if isinstance(x, (Nil, Output, Input)):
        return strip_insts(x)
    if isinstance(x, PastPrefix):
        return erase(x.cont)
    if isinstance(x, Par):
        return Par(erase(x.left), erase(x.right))
    if isinstance(x, RRes):
        if x.mem.is_empty():
            return Res(x.name, erase(x.body))
        return erase(x.body)
    raise TypeError(x)


def erase_label(label: Label) -> PiLabel:
    """Map an engine label onto a plain pi-calculus label.

    A bound output whose memory already records extruders erases to a
    free output: the erased process has lost that restriction.
    """
    act = label.act
    if isinstance(act, FreeOut):
        return PiFreeOut(act.chan, act.datum)
    if isinstance(act, InAct):
        return PiIn(act.chan, act.binder)
    if isinstance(act, BoundOut):
        if act.mem.is_empty():
            return PiBoundOut(act.chan, act.datum)
        return PiFreeOut(act.chan, act.datum)
    if isinstance(act, Tau):
        return PiTau()
    raise TypeError(act)


# --------------------------------------------------------------------------- #
# Keys and names
# --------------------------------------------------------------------------- #

@kept_on_node("_keys")
def keys(x: RProcess) -> frozenset:
    """Keys of the executed prefixes in a term."""
    if isinstance(x, (Nil, Output, Input)):
        return frozenset()
    if isinstance(x, PastPrefix):
        return keys(x.cont) | {x.key}
    if isinstance(x, Par):
        return keys(x.left) | keys(x.right)
    if isinstance(x, RRes):
        return keys(x.body)
    raise TypeError(x)


def fresh_key(x: RProcess) -> int:
    """Canonical fresh key: the smallest unused positive integer."""
    used = keys(x)
    i = 1
    while i in used:
        i += 1
    return i


@kept_on_node("_occurring")
def occurring_keys(x) -> frozenset:
    """Every key mentioned anywhere: prefix keys, causes, instantiators,
    and memory contents.

    This is the "occurs in" check of the parallel rules.  It is strictly
    wider than ``keys``: an extrusion may not be undone while some other
    component still cites it as a cause.
    """
    if isinstance(x, Nil):
        return frozenset()
    if isinstance(x, Par):
        return occurring_keys(x.left) | occurring_keys(x.right)
    if isinstance(x, (Res, RRes)):
        body = occurring_keys(x.body)
        return body | x.mem.mentioned_keys() if isinstance(x, RRes) else body
    if isinstance(x, (Output, PastOutput)):
        out = {x.chan.inst, x.datum.inst}
    elif isinstance(x, (Input, PastInput)):
        out = {x.chan.inst}
    else:
        raise TypeError(x)
    if isinstance(x, PastPrefix):
        out |= x.cause | {x.key}
    return occurring_keys(x.cont) | (out - STAR_SET)


@kept_on_node("_names")
def mentioned_names(x) -> frozenset:
    """Every name occurrence of a plain or reversible term, the names
    ``rebuild``'s ``names`` map is asked about: channels and data, not
    binders and restricted names.  A fold in the style of ``keys``, so a
    target computes it only on the path its step rebuilt."""
    if isinstance(x, Nil):
        return frozenset()
    if isinstance(x, Par):
        return mentioned_names(x.left) | mentioned_names(x.right)
    if isinstance(x, (Res, RRes)):
        return mentioned_names(x.body)
    if isinstance(x, (Output, PastOutput)):
        return mentioned_names(x.cont) | {x.chan.name, x.datum.name}
    if isinstance(x, (Input, PastInput)):
        return mentioned_names(x.cont) | {x.chan.name}
    raise TypeError(x)


def free_names(t) -> set[str]:
    """Free names of a plain or reversible term.

    A restriction binds its name while it is plain or its memory is
    empty; once a name has been extruded the restriction is a mere
    decoration.
    """
    if isinstance(t, Nil):
        return set()
    if isinstance(t, (Output, PastOutput)):
        return {t.chan.name, t.datum.name} | free_names(t.cont)
    if isinstance(t, (Input, PastInput)):
        return {t.chan.name} | (free_names(t.cont) - {t.binder})
    if isinstance(t, Par):
        return free_names(t.left) | free_names(t.right)
    if isinstance(t, (Res, RRes)):
        body = free_names(t.body)
        return body if isinstance(t, RRes) and not t.mem.is_empty() else body - {t.name}
    raise TypeError(t)


# --------------------------------------------------------------------------- #
# Rebuilding and substitution
# --------------------------------------------------------------------------- #

def _same(x):
    return x


def _same_cause(key: int, cause: frozenset) -> frozenset:
    return cause


def rebuild(t, names=None, mem=None, cause=None, key=None, keep=None):
    """Copy a plain or reversible term, rewriting it on the way.

    ``names`` maps every name occurrence (binders excluded), ``mem`` every
    restriction memory, ``cause(key, cause)`` the cause set of every past
    prefix and ``key`` its key.  An omitted map is the identity; without
    ``names`` the plain parts of a reversible term are shared rather than
    copied.  A subterm ``t`` with ``keep(t)`` true is shared as it is: the
    maps must leave it unchanged.

    Every rewrite passes ``keep``, a test on a kept fold (``keys``,
    ``occurring_keys``, ``mentioned_names``), so it copies only the paths
    to what it changes.  A step's target then shares every other subtree,
    and what is kept on it, with its source: the premise tables
    (``engine.Engine``) answer those subtrees by lookup (path
    copying, Driscoll, Sarnak, Sleator and Tarjan, JCSS 1989).
    """
    return _rebuild(t, (names is not None, names or _same, mem or _same,
                        cause or _same_cause, key or _same, keep))


def _rebuild(t, maps):
    # a module-level recursion: a nested one would leave a reference cycle
    # (the function and its own cell) behind every call
    plain, ann, memory, stored, rekey, keep = maps
    if keep is not None and keep(t):
        return t
    if isinstance(t, Nil) or not plain and isinstance(t, (Output, Input)):
        return t  # only ``names`` reaches into a plain prefix
    if isinstance(t, PastOutput):
        return PastOutput(ann(t.chan), ann(t.datum), rekey(t.key),
                          stored(t.key, t.cause), _rebuild(t.cont, maps))
    if isinstance(t, PastInput):
        return PastInput(ann(t.chan), t.binder, rekey(t.key),
                         stored(t.key, t.cause), _rebuild(t.cont, maps))
    if isinstance(t, Par):
        return Par(_rebuild(t.left, maps), _rebuild(t.right, maps))
    if isinstance(t, RRes):
        return RRes(t.name, memory(t.mem), _rebuild(t.body, maps))
    if isinstance(t, Output):
        return Output(ann(t.chan), ann(t.datum), _rebuild(t.cont, maps))
    if isinstance(t, Input):
        return Input(ann(t.chan), t.binder, _rebuild(t.cont, maps))
    if isinstance(t, Res):
        return Res(t.name, _rebuild(t.body, maps))
    raise TypeError(t)


def substitute(x: RProcess, var: str, val: str, key: int) -> RProcess:
    """Replace every occurrence of ``var`` by ``val`` keyed by the
    communication that performed the substitution.

    Binder uniqueness guarantees ``var`` occurs only free, so this is a
    blind structural replacement, past prefixes included.
    """
    return rebuild(x, names=lambda a: AnnotatedName(val, key) if a.name == var else a,
                   keep=lambda t: var not in mentioned_names(t))


def unsubstitute(x: RProcess, val: str, key: int, var: str) -> RProcess:
    """Inverse of ``substitute``: restore the variable.

    Sound because a (name, key) annotation pair is introduced by exactly
    one communication, so every such occurrence came from that event.
    """
    return rebuild(x, names=lambda a: (AnnotatedName(var)
                                       if a.name == val and a.inst == key else a),
                   keep=lambda t: key not in occurring_keys(t))


# --------------------------------------------------------------------------- #
# Positions
# --------------------------------------------------------------------------- #

def history(x: RProcess) -> list[tuple]:
    """The past prefixes and restrictions of a term, in traversal order.

    Each entry is ``(node, path, above)``: the node, its path of child
    selectors from ``x`` (``"cont"``, ``"left"``, ``"right"``, ``"body"``)
    and the past prefixes above it, outermost first.  Every question
    about where a key sits in the history reads this list.
    """
    out: list[tuple] = []
    _history(x, (), (), out)
    return out


def _history(t: RProcess, path: tuple[str, ...], above: tuple, out: list) -> None:
    # module-level, as ``_rebuild``: a nested recursion's cycle would hold
    # ``out``, and so every state in it, until the cycle collector ran
    if isinstance(t, PastPrefix):
        out.append((t, path, above))
        _history(t.cont, path + ("cont",), above + (t,), out)
    elif isinstance(t, Par):
        _history(t.left, path + ("left",), above, out)
        _history(t.right, path + ("right",), above, out)
    elif isinstance(t, RRes):
        out.append((t, path, above))
        _history(t.body, path + ("body",), above, out)


# --------------------------------------------------------------------------- #
# States up to key renaming
# --------------------------------------------------------------------------- #

@kept_on_node("_canonical")
def canonical_keys(x: RProcess) -> RProcess:
    """The class of the state ``x`` up to a bijective renaming of keys.

    Keys are fresh event identifiers, compared only for equality, so a
    state and any renaming of its keys answer every question of the
    do/undo loop and the erasure bisimulation alike.  The keys are
    numbered 1, 2, ... in the order in which their prefix stamps first
    occur in the history, left to right, and every key the state mentions
    is renamed so: prefix keys, causes, instantiators (also in plain
    continuations) and memory fields (``Memory.rename_keys``).  Two states
    get equal answers exactly when a renaming maps one onto the other.  A
    state that mentions a key no prefix of it carries is its own class:
    the answer is the state itself.
    """
    number: dict[int, int] = {}
    for node, _, _ in history(x):
        if isinstance(node, PastPrefix) and node.key not in number:
            number[node.key] = len(number) + 1
    moved = {k for k, n in number.items() if k != n}
    if not moved or not occurring_keys(x) <= number.keys():
        return x

    def rename(k: KeyOrStar) -> KeyOrStar:
        return number.get(k, k)

    return rebuild(
        x,
        names=lambda a: AnnotatedName(a.name, rename(a.inst)),
        mem=lambda m: m.rename_keys(rename),
        cause=lambda _, cause: frozenset(map(rename, cause)),
        key=rename,
        keep=lambda t: occurring_keys(t).isdisjoint(moved))
