"""Inputs and operation lists of the three workloads.

Every input is made here from the seed alone: the acceptance corpus, a
few named fault terms, and seeded ``random.Random`` draws of wide terms.
The program under test only ever sees the resulting term strings, passed
to ``revpi`` on its command line.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

KINDS = ("rpi", "bsc", "dcc")

# Faults the acceptance corpus does not cover, named so that they stay in
# view: each operation below fails on every run until the engine is fixed.
F1_TERMS = ("a!m.nu n.(b!n.0) | c!o.0", "c!o.0 | a?(x).nu n.(x!n.0)")
F2_TERM = "nu m.(a!m.0 | b!m.0 | m?(x).0 | m!n.0)"
F3_TERM = "nu m.(b!m.0 | a!m.a!m.0)"

KNOWN_FAULTS = frozenset(
    [("square", t, k) for t in F1_TERMS for k in ("bsc", "dcc")]
    + [("consistency", t, k) for t in F1_TERMS for k in ("bsc", "dcc")]
    + [("square", F2_TERM, "dcc"), ("correspondence", F3_TERM, "bsc")]
)

ALGEBRA_DEPTH = 4
EXPLORE_DEPTH = 3
EXPORT_DEPTH = 6
# (communications, of them enabled at once) -> number of terms drawn
EXPLORE_STRATA = {(2, 0): 5, (2, 1): 10, (2, 2): 5}
EXPORT_STRATA = {(1, 0): 17, (1, 1): 17}

CHANNELS = ("a", "b", "c")
DATA = ("m", "n")


@dataclass(frozen=True)
class Op:
    """One ``revpi`` command: ``check`` or ``export`` of one term."""
    command: str
    suite: str | None
    term: str
    kind: str
    depth: int
    first_steps: int | None = None  # forward steps from the term, if known

    def argv(self, output: str | None = None) -> list[str]:
        common = ["--semantics", self.kind, "--depth", str(self.depth),
                  "--format", "json"]
        if self.command == "check":
            # the term must follow the suite name straight away: argparse
            # binds the optional positional empty once an option is seen
            return ["check", self.suite, self.term] + common
        return ["export", self.term] + common + ["--output", output]

    @property
    def known_fault(self) -> bool:
        return (self.suite, self.term, self.kind) in KNOWN_FAULTS

    @property
    def name(self) -> str:
        return "%s %s %s d%d %s" % (self.command, self.suite or "-", self.kind,
                                    self.depth, self.term)


# --------------------------------------------------------------------------- #
# Wide terms
# --------------------------------------------------------------------------- #

def _thread(rng: random.Random, length: int, scope: list[str],
            state: dict, nu_after: int | None) -> tuple[str, list]:
    """A chain of ``length`` prefixes on free channels, with the
    (polarity, channel) of each prefix.

    Restricted names and input variables appear only as data, so no
    prefix is blocked for want of a partner and the cost of a term
    depends on its shape rather than on luck.  At most two outputs per
    term carry a restricted name or a variable: a third extrusion of one
    bsc restriction trips the fault F3, which is kept to its named term.
    ``nu_after`` puts a restriction under the prefix at that position.
    """
    text, closing, shape = "", "", []
    for pos in range(length):
        chan = rng.choice(CHANNELS)
        if rng.random() < 0.5:
            names = list(DATA) + (scope if state["risky"] < 2 else [])
            datum = rng.choice(names)
            if datum not in DATA:
                state["risky"] += 1
            text += "%s!%s." % (chan, datum)
            shape.append(("!", chan))
        else:
            state["vars"] += 1
            var = "x%d" % state["vars"]
            text += "%s?(%s)." % (chan, var)
            shape.append(("?", chan))
            scope = scope + [var]
        if pos == nu_after:
            state["vars"] += 1
            s = "s%d" % state["vars"]
            text += "nu %s.(" % s
            closing += ")"
            scope = scope + [s]
    return text + "0" + closing, shape


def communication_pairs(shapes: list[list]) -> tuple[int, int]:
    """Output/input prefix pairs on one channel in different threads: all
    of them, and those where both prefixes head their thread (enabled
    at once, which makes a term dearer to explore)."""
    pairs = [(p, q) for i, ti in enumerate(shapes) for j, tj in enumerate(shapes)
             if i != j for p in range(len(ti)) for q in range(len(tj))
             if ti[p][0] == "!" and tj[q][0] == "?" and ti[p][1] == tj[q][1]]
    return len(pairs), sum(1 for p, q in pairs if p == q == 0)


def wide_term(rng: random.Random, lengths: tuple[int, ...],
              pairs: tuple[int, int]) -> tuple[str, int]:
    """``nu r.(T1 | ... | Tn)`` with the given thread lengths (the first
    is the longest), a restriction under one prefix of the first thread,
    and ``pairs`` possible communications, all and enabled at once, as
    ``communication_pairs`` counts them (drawn again until it has).

    Also returns the number of forward steps the term can take: one for
    each thread head (no subject is restricted, so none is blocked) and
    one communication for each pair of heads that can synchronise.
    """
    while True:
        state = {"risky": 0, "vars": 0}
        nu_after = rng.randrange(lengths[0] - 1)
        threads = [_thread(rng, lengths[0], ["r"], state, nu_after)]
        threads += [_thread(rng, n, ["r"], state, None) for n in lengths[1:]]
        if communication_pairs([shape for _, shape in threads]) == pairs:
            rng.shuffle(threads)
            text = "nu r.(%s)" % " | ".join(text for text, _ in threads)
            return text, len(threads) + pairs[1]


def draw_wide(rng: random.Random, lengths: tuple[int, ...], strata: dict,
              avoid: set[str], canon) -> list[tuple[str, int]]:
    """Distinct wide terms with their forward step counts,
    ``strata[pairs]`` of them for each pair count, none equal to one in
    ``avoid`` up to the renaming ``canon`` applies.  Fixing the mix keeps
    the cost of a draw nearly the same for every seed."""
    out = []
    seen = set(avoid)
    for pairs, count in strata.items():
        drawn = 0
        while drawn < count:
            term, first_steps = wide_term(rng, lengths, pairs)
            key = canon(term)
            if key not in seen:
                seen.add(key)
                out.append((term, first_steps))
                drawn += 1
    return out


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

WORKLOADS = ("corpus-algebra", "wide-explore", "wide-export")


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``: loads the
    corpus, draws and parses the terms."""
    from revpi import corpus, syntax

    def canon(text: str) -> str:
        return syntax.format(syntax.parse_process(text))

    entries = corpus.acceptance_corpus()
    corpus_terms = [syntax.format(p) for _, p in entries]
    if workload == "corpus-algebra":
        terms = corpus_terms + list(F1_TERMS) + [F2_TERM]
        ops = [Op("check", suite, t, k, ALGEBRA_DEPTH)
               for suite in ("square", "consistency") for k in KINDS
               for t in terms]
    elif workload == "wide-explore":
        rng = random.Random("wide-explore:%d" % seed)
        terms = draw_wide(rng, (3, 1, 1, 1), EXPLORE_STRATA, set(corpus_terms), canon)
        ops = []
        for t in [t for t, _ in terms] + [F3_TERM]:
            ops += [Op("check", suite, t, k, EXPLORE_DEPTH)
                    for suite in ("loop", "bisim") for k in KINDS]
            ops.append(Op("check", "correspondence", t, "bsc", EXPLORE_DEPTH))
    elif workload == "wide-export":
        rng = random.Random("wide-export:%d" % seed)
        terms = draw_wide(rng, (2, 1, 1, 1), EXPORT_STRATA, set(corpus_terms), canon)
        ops = [Op("export", None, t, k, EXPORT_DEPTH, first_steps)
               for t, first_steps in terms for k in KINDS]
    else:
        raise ValueError("unknown workload %r" % workload)
    for op in ops:
        syntax.parse_process(op.term)
    # the seed fixes the order in which the operations are issued
    random.Random("order:%s:%d" % (workload, seed)).shuffle(ops)
    return ops


def digest(ops: list[Op]) -> str:
    return hashlib.sha256("\n".join(op.name for op in ops).encode()).hexdigest()
