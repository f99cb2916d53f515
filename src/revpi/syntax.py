"""Process terms, concrete syntax, and erasure back to plain terms.

Two term layers live here.  Plain processes (``Nil``, ``Output``,
``Input``, ``Par``, ``Res``) are ordinary pi-calculus terms whose names
carry an optional instantiator annotation.  Reversible processes add a
history: executed prefixes stay in the term as ``PastOutput`` /
``PastInput`` nodes and restrictions become ``RRes`` nodes decorated
with an extrusion memory.

Concrete grammar (whitespace-insensitive)::

    proc    := "0" | out | in | proc "|" proc | "nu" NAME "." proc | "(" proc ")"
    out     := annName "!" annName "." proc
    in      := annName "?" "(" NAME ")" "." proc
    annName := NAME [ "{" (INT | "*") "}" ]

``|`` has the lowest precedence and associates to the left.  An omitted
annotation means "no instantiator" (star).  ``parse_process`` renames
binders so they are pairwise distinct and disjoint from all free names;
every operation downstream relies on that convention instead of
per-rule alpha-conversion side conditions.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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


def cached_hash(cls):
    """Class decorator for a frozen dataclass: compute the hash of an
    instance once and keep it on the instance.

    Deep terms are hashed on every memo lookup and rehashing them from
    the leaves up costs more than the lookup.  The value is the one the
    generated ``__hash__`` gives (the hash of the field tuple), so set and
    dict orders are unchanged; equality, ``repr`` and
    ``dataclasses.replace`` are untouched (a replaced copy hashes anew).
    """
    names = [f.name for f in dataclasses.fields(cls)]
    get = operator.attrgetter(*names)
    single = len(names) == 1

    def __hash__(self):
        state = self.__dict__
        h = state.get("_hash")
        if h is None:
            h = state["_hash"] = hash((get(self),) if single else get(self))
        return h

    cls.__hash__ = __hash__
    return cls


def kept_on_node(slot: str):
    """Function decorator for a pure function of one frozen node, a term
    of either layer or a label: keep the result on the node, in its
    ``__dict__`` under ``slot``.

    A step rebuilds only the path to the acting prefix, so a successor
    shares every other subtree, and what is kept on it, with its source;
    and the premise tables of a run hand the same label instance to every
    state whose step it labels.  As with ``cached_hash``, equality,
    ``repr`` and ``dataclasses.replace`` are untouched (a replaced copy
    computes anew), and the value goes with the node.
    """
    def decorate(fold):
        @functools.wraps(fold)
        def kept(x):
            state = x.__dict__
            out = state.get(slot)
            if out is None:
                out = state[slot] = fold(x)
            return out
        return kept
    return decorate


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class Nil:
    pass


@cached_hash
@dataclass(frozen=True)
class Output:
    chan: AnnotatedName
    datum: AnnotatedName
    cont: "Process"


@cached_hash
@dataclass(frozen=True)
class Input:
    chan: AnnotatedName
    binder: str
    cont: "Process"


@cached_hash
@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"


@cached_hash
@dataclass(frozen=True)
class Res:
    name: str
    body: "Process"


Process = Union[Nil, Output, Input, Par, Res]


# --------------------------------------------------------------------------- #
# Reversible processes
# --------------------------------------------------------------------------- #

@cached_hash
@dataclass(frozen=True)
class Leaf:
    """A plain process embedded in a reversible term."""

    proc: Process


@cached_hash
@dataclass(frozen=True)
class PastOutput:
    chan: AnnotatedName
    datum: AnnotatedName
    key: int
    cause: frozenset
    cont: "RProcess"


@cached_hash
@dataclass(frozen=True)
class PastInput:
    chan: AnnotatedName
    binder: str
    key: int
    cause: frozenset
    cont: "RProcess"


@cached_hash
@dataclass(frozen=True)
class RPar:
    left: "RProcess"
    right: "RProcess"


@cached_hash
@dataclass(frozen=True)
class RRes:
    name: str
    mem: "Memory"
    body: "RProcess"


RProcess = Union[Leaf, PastOutput, PastInput, RPar, RRes]

PastPrefix = (PastOutput, PastInput)


# --------------------------------------------------------------------------- #
# Labels
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FreeOut:
    chan: str
    datum: str


@dataclass(frozen=True)
class InAct:
    chan: str
    binder: str


@dataclass(frozen=True)
class BoundOut:
    """Scope-extruding output; carries the crossed restriction's memory."""

    chan: str
    datum: str
    mem: "Memory"


@dataclass(frozen=True)
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


@cached_hash
@dataclass(frozen=True)
class Label:
    key: int
    cause: frozenset
    inst: KeyOrStar
    act: Action


# Plain pi-calculus labels (image of label erasure, and the oracle LTS).

@dataclass(frozen=True)
class PiFreeOut:
    chan: str
    datum: str


@dataclass(frozen=True)
class PiIn:
    chan: str
    binder: str


@dataclass(frozen=True)
class PiBoundOut:
    chan: str
    datum: str


@dataclass(frozen=True)
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
        if kind == "name" and lex == "nu":
            self.next()
            nkind, name, nline, ncol = self.next()
            if nkind != "name":
                raise ParseError("expected a name after 'nu'", nline, ncol)
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
                bkind, binder, bline, bcol = self.next()
                if bkind != "name":
                    raise ParseError("expected a binder name", bline, bcol)
                self.expect(")")
                self.expect(".")
                cont, height = self.parse_cont()
                return Input(chan, binder, cont), height
            raise ParseError("expected '!' or '?' after a channel", op[2], op[3])
        self.fail("expected a process")

    def parse_ann_name(self) -> AnnotatedName:
        kind, lex, line, col = self.next()
        if kind != "name":
            raise ParseError("expected a name", line, col)
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
    used = free_names(p)
    every = _all_names(p)

    def bind(b: str, ren: dict[str, str]) -> tuple[str, dict[str, str]]:
        fresh = _fresh_variant(b, used | every) if b in used else b
        used.add(fresh)
        return fresh, {**ren, b: fresh}

    def walk(q: Process, ren: dict[str, str]) -> Process:
        if isinstance(q, Nil):
            return q
        if isinstance(q, Output):
            return Output(_ren(q.chan, ren), _ren(q.datum, ren), walk(q.cont, ren))
        if isinstance(q, Input):
            binder, inner = bind(q.binder, ren)
            return Input(_ren(q.chan, ren), binder, walk(q.cont, inner))
        if isinstance(q, Par):
            return Par(walk(q.left, ren), walk(q.right, ren))
        if isinstance(q, Res):
            name, inner = bind(q.name, ren)
            return Res(name, walk(q.body, inner))
        raise TypeError(q)

    def _ren(a: AnnotatedName, ren: dict[str, str]) -> AnnotatedName:
        if a.name in ren:
            return AnnotatedName(ren[a.name], a.inst)
        return a

    return walk(p, {})


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
    if isinstance(x, Leaf):
        return _fmt(x.proc)
    if isinstance(x, (Par, RPar)):
        return "%s | %s" % (_fmt(x.left), _tight(x.right))
    if isinstance(x, (Res, RRes)):
        mem = ":" + x.mem.render() if isinstance(x, RRes) else ""
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


def _tight(x) -> str:
    """``_fmt`` of ``x``, parenthesised if it is a parallel composition."""
    node = x.proc if isinstance(x, Leaf) else x
    return "(%s)" % _fmt(x) if isinstance(node, (Par, RPar)) else _fmt(x)


def _fmt_act(act: Action) -> str:
    if isinstance(act, FreeOut):
        return "%s!%s" % (act.chan, act.datum)
    if isinstance(act, InAct):
        return "%s?(%s)" % (act.chan, act.binder)
    if isinstance(act, BoundOut):
        return "%s!(nu %s:%s)" % (act.chan, act.datum, act.mem.render())
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
    """``steps`` without repeats, in the order of ``(label_key(s), render(s))``.

    ``render``, a rendering of the step's target, is the costly half of
    that key, and it decides only between steps whose label keys tie: it
    is called on those steps alone, and the order is the full key's.
    """
    by_label = operator.itemgetter(0)
    keyed = sorted(((label_key(s), s) for s in dict.fromkeys(steps)), key=by_label)
    out = []
    for _, run in itertools.groupby(keyed, by_label):
        run = [s for _, s in run]
        if len(run) > 1:
            run.sort(key=render)
        out += run
    return tuple(out)


# --------------------------------------------------------------------------- #
# Embedding and erasure
# --------------------------------------------------------------------------- #

def lift(p: Process, kind: "MemoryKind") -> RProcess:
    """Embed a plain process, hoisting parallel and restriction structure.

    Restrictions receive the empty memory of the configured kind
    (``kind.new()``); prefixes stay inside a Leaf until they fire.
    """
    if isinstance(p, Par):
        return RPar(lift(p.left, kind), lift(p.right, kind))
    if isinstance(p, Res):
        return RRes(p.name, kind.new(), lift(p.body, kind))
    return Leaf(p)


def initial(p: Process, kind: "MemoryKind") -> RProcess:
    """The reversible process a run starts from: no history, empty memories."""
    return lift(strip_insts(p), kind)


def as_plain(x: RProcess) -> Process:
    """Inverse of ``lift`` on history-free terms.

    Only defined when the term contains no past prefixes and all its
    memories are empty; the backward base rules rely on it.
    """
    if isinstance(x, Leaf):
        return x.proc
    if isinstance(x, RPar):
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
    if isinstance(x, Leaf):
        return strip_insts(x.proc)
    if isinstance(x, PastPrefix):
        return erase(x.cont)
    if isinstance(x, RPar):
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
    if isinstance(x, Leaf):
        return frozenset()
    if isinstance(x, PastPrefix):
        return keys(x.cont) | {x.key}
    if isinstance(x, RPar):
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
    if isinstance(x, Leaf):
        return occurring_keys(x.proc)
    if isinstance(x, (Par, RPar)):
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


def free_names(t) -> set[str]:
    """Free names of a plain or reversible term.

    A restriction binds its name while it is plain or its memory is
    empty; once a name has been extruded the restriction is a mere
    decoration.
    """
    if isinstance(t, Nil):
        return set()
    if isinstance(t, Leaf):
        return free_names(t.proc)
    if isinstance(t, (Output, PastOutput)):
        return {t.chan.name, t.datum.name} | free_names(t.cont)
    if isinstance(t, (Input, PastInput)):
        return {t.chan.name} | (free_names(t.cont) - {t.binder})
    if isinstance(t, (Par, RPar)):
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
    """
    return _rebuild(t, (names is not None, names or _same, mem or _same,
                        cause or _same_cause, key or _same, keep))


def _rebuild(t, maps):
    # a module-level recursion: a nested one would leave a reference cycle
    # (the function and its own cell) behind every call
    plain, ann, memory, stored, rekey, keep = maps
    if keep is not None and keep(t):
        return t
    if isinstance(t, Leaf):
        return Leaf(_rebuild(t.proc, maps)) if plain else t
    if isinstance(t, PastOutput):
        return PastOutput(ann(t.chan), ann(t.datum), rekey(t.key),
                          stored(t.key, t.cause), _rebuild(t.cont, maps))
    if isinstance(t, PastInput):
        return PastInput(ann(t.chan), t.binder, rekey(t.key),
                         stored(t.key, t.cause), _rebuild(t.cont, maps))
    if isinstance(t, RPar):
        return RPar(_rebuild(t.left, maps), _rebuild(t.right, maps))
    if isinstance(t, RRes):
        return RRes(t.name, memory(t.mem), _rebuild(t.body, maps))
    if isinstance(t, Nil):
        return t
    if isinstance(t, Output):
        return Output(ann(t.chan), ann(t.datum), _rebuild(t.cont, maps))
    if isinstance(t, Input):
        return Input(ann(t.chan), t.binder, _rebuild(t.cont, maps))
    if isinstance(t, Par):
        return Par(_rebuild(t.left, maps), _rebuild(t.right, maps))
    if isinstance(t, Res):
        return Res(t.name, _rebuild(t.body, maps))
    raise TypeError(t)


def substitute(x: RProcess, var: str, val: str, key: int) -> RProcess:
    """Replace every occurrence of ``var`` by ``val`` keyed by the
    communication that performed the substitution.

    Binder uniqueness guarantees ``var`` occurs only free, so this is a
    blind structural replacement, past prefixes included.
    """
    return rebuild(x, names=lambda a: AnnotatedName(val, key) if a.name == var else a)


def unsubstitute(x: RProcess, val: str, key: int, var: str) -> RProcess:
    """Inverse of ``substitute``: restore the variable.

    Sound because a (name, key) annotation pair is introduced by exactly
    one communication, so every such occurrence came from that event.
    """
    return rebuild(x, names=lambda a: (AnnotatedName(var)
                                       if a.name == val and a.inst == key else a))


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
    elif isinstance(t, RPar):
        _history(t.left, path + ("left",), above, out)
        _history(t.right, path + ("right",), above, out)
    elif isinstance(t, RRes):
        out.append((t, path, above))
        _history(t.body, path + ("body",), above, out)


# --------------------------------------------------------------------------- #
# States up to key renaming
# --------------------------------------------------------------------------- #

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
    renamed = _canonically_renamed(x)
    return renamed[0] if renamed else x


@kept_on_node("_canonical")
def _canonically_renamed(x: RProcess) -> tuple:
    # ``(term,)``, or ``()`` where ``x`` is its own answer: a state kept
    # on itself would hold itself
    number: dict[int, int] = {}
    for node, _, _ in history(x):
        if isinstance(node, PastPrefix) and node.key not in number:
            number[node.key] = len(number) + 1
    moved = {k for k, n in number.items() if k != n}
    if not moved or not occurring_keys(x) <= number.keys():
        return ()

    def rename(k: KeyOrStar) -> KeyOrStar:
        return number.get(k, k)

    return (rebuild(
        x,
        names=lambda a: AnnotatedName(a.name, rename(a.inst)),
        mem=lambda m: m.rename_keys(rename),
        cause=lambda _, cause: frozenset(map(rename, cause)),
        key=rename,
        keep=lambda t: occurring_keys(t).isdisjoint(moved)),)
