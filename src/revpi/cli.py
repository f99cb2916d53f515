"""Command line front end.

``revpi enumerate`` prints a bounded fragment of the transition system,
``revpi step`` runs an interactive forward/backward stepper, ``revpi
check`` runs one of the property suites, and ``revpi export`` writes the
enumeration to a file.  Exit codes: 0 ok; 1 parse error, a term nested
deeper than ``syntax.MAX_NESTING`` included; 2 I/O or usage error, an
output pipe closed by its reader included; 3 property violations found,
where an engine error raised while checking a term counts as one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import checks, corpus, correspondence, syntax, traces
from .engine import Engine
from .memory import MemoryKind
from .semantics import Transition
from .syntax import Direction, ParseError, Process
from .traces import SquareNotFoundError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3

# Engine errors a check can run into on one term; each is reported as a
# violation of that term rather than ending the run.  A square that does
# not close is the only one a suite raises.
ENGINE_ERRORS = (SquareNotFoundError,)


def _load(path) -> Process:
    """The term in one file; a parse error or undecodable text names it."""
    try:
        return corpus.load_corpus_file(path)
    except OSError as exc:
        raise _IOFailure(str(exc))
    except UnicodeDecodeError as exc:
        raise _IOFailure("%s: %s" % (path, exc))
    except ParseError as exc:
        raise _FileParseError("%s: %s" % (path, exc))


def _read_term(args) -> Process:
    if args.input:
        return _load(args.input)
    if args.term is None:
        raise _IOFailure("no term given: pass one inline or via --input")
    return syntax.parse_process(corpus.strip_comments(args.term))


class _IOFailure(Exception):
    pass


class _FileParseError(Exception):
    pass


def _kind(args) -> MemoryKind:
    return MemoryKind(args.semantics)


# --------------------------------------------------------------------------- #
# enumerate / export
# --------------------------------------------------------------------------- #

def _json(value, pad: str = "") -> str:
    """What ``json.dumps(value, indent=2)`` writes, for the values of an
    LTS record: strings, ints, ``(field, value)`` pair tuples for objects,
    and lists or iterators for arrays (an iterator's records die as they
    are written).  ``json.dumps`` falls back to its pure-Python encoder
    once ``indent`` is set; this escapes strings with the C escaper.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, tuple):
        opening, closing = "{", "}"
        items = [encode_basestring_ascii(field) + ": " + _json(item, inner)
                 for field, item in value]
    else:
        opening, closing = "[", "]"
        items = [_json(item, inner) for item in value]
    if not items:
        return opening + closing
    return "%s\n%s%s\n%s%s" % (opening, inner, (",\n" + inner).join(items), pad, closing)


def _render_lts(order, transitions, fmt: str) -> str:
    if fmt == "json":
        return _json((
            ("states", [syntax.format(x) for x in order]),
            ("transitions", (traces.transition_fields(t, (a, b))
                             for a, b, t in transitions)),
        ))
    if fmt == "dot":
        lines = ["digraph lts {"]
        for i, x in enumerate(order):
            lines.append('  s%d [label="%s"];' % (i, syntax.format(x)))
        for a, b, t in transitions:
            style = "solid" if t.dir is Direction.FORWARD else "dashed"
            lines.append('  s%d -> s%d [label="%s", style=%s];'
                         % (a, b, syntax.format(t.label), style))
        lines.append("}")
        return "\n".join(lines)
    fwd = sum(1 for _, _, t in transitions if t.dir is Direction.FORWARD)
    bwd = len(transitions) - fwd
    lines = ["states: %d" % len(order),
             "transitions: %d forward, %d backward" % (fwd, bwd)]
    for i, x in enumerate(order):
        lines.append("S%d: %s" % (i, syntax.format(x)))
    for a, b, t in transitions:
        arrow = "-->" if t.dir is Direction.FORWARD else "~~>"
        lines.append("S%d %s S%d  %s" % (a, arrow, b, syntax.format(t.label)))
    return "\n".join(lines)


def cmd_enumerate(args) -> int:
    p = _read_term(args)
    order, transitions = checks.explore(p, Engine(_kind(args)), args.depth)
    text = _render_lts(order, transitions, args.format)
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise _IOFailure(str(exc))
    else:
        print(text)
    return EXIT_OK


# --------------------------------------------------------------------------- #
# step (REPL)
# --------------------------------------------------------------------------- #

def cmd_step(args) -> int:
    p = _read_term(args)
    engine = Engine(_kind(args))
    current = engine.initial(p)
    session: list[Transition] = []
    out = sys.stdout
    while True:
        print("", file=out)
        print("term: %s" % syntax.format(current), file=out)
        fwd = engine.forward(current)
        bwd = engine.backward(current)
        if not fwd and not bwd:
            print("no transitions", file=out)
        options = fwd + bwd
        for i, t in enumerate(options, 1):
            arrow = "-->" if t.dir is Direction.FORWARD else "~~>"
            print("  %d) %s  %s" % (i, arrow, syntax.format(t.label)), file=out)
        print("select a number, or: undo, trace, quit", file=out)
        line = sys.stdin.readline()
        if not line:
            return EXIT_OK
        cmdline = line.strip().lower()
        if cmdline in ("q", "quit", "exit"):
            return EXIT_OK
        if cmdline in ("t", "trace"):
            if session:
                print(traces.trace_json_str(traces.Trace(tuple(session))), file=out)
            else:
                print("[]", file=out)
            continue
        if cmdline in ("u", "undo"):
            if not session:
                print("nothing to undo", file=out)
                continue
            last = session.pop()
            inverse = traces.reverse_transition(last)
            current = inverse.target
            print("undid %s" % syntax.format(last.label), file=out)
            continue
        try:
            pick = int(cmdline)
        except ValueError:
            print("unrecognised input %r" % cmdline, file=out)
            continue
        if not 1 <= pick <= len(options):
            print("selection out of range", file=out)
            continue
        chosen = options[pick - 1]
        session.append(chosen)
        current = chosen.target
    return EXIT_OK


# --------------------------------------------------------------------------- #
# check
# --------------------------------------------------------------------------- #

def _corpus_entries(args) -> list[tuple[str, Process]]:
    if args.corpus:
        if not Path(args.corpus).is_dir():
            problem = "is not a directory" if Path(args.corpus).exists() else "does not exist"
            raise _IOFailure("corpus %s %s" % (args.corpus, problem))
        entries = [(f.stem, _load(f)) for f in sorted(Path(args.corpus).glob("*.pi"))]
        if not entries:
            raise _IOFailure("no .pi files under %s" % args.corpus)
        return entries
    if args.term is not None or args.input is not None:
        return [("input", _read_term(args))]
    return corpus.acceptance_corpus()


def _run_suite(which: str, p: Process, kind: MemoryKind, depth: int) -> list[dict]:
    # one engine per checked term: its memo lives as long as this run
    engine = Engine(kind)
    try:
        if which == "loop":
            return checks.check_loop(p, engine, depth)
        if which == "square":
            return checks.check_square(p, engine, depth)
        if which == "consistency":
            return checks.check_consistency(p, engine, maxlen=depth)
        if which == "bisim":
            return checks.check_bisim(p, engine, depth)
        structural, causal = correspondence.check_correspondence(p, depth, engine)
        return structural.violations + causal.violations
    except ENGINE_ERRORS as exc:
        return [{"reason": "check raised %s" % type(exc).__name__, "error": str(exc)}]


def cmd_check(args) -> int:
    kind = _kind(args)
    if args.which == "correspondence" and kind is not MemoryKind.BSC:
        raise _IOFailure("check correspondence requires --semantics bsc")
    entries = _corpus_entries(args)
    all_violations = []
    results = []
    for name, p in entries:
        v = _run_suite(args.which, p, kind, args.depth)
        results.append({"process": syntax.format(p), "name": name,
                        "violations": v})
        all_violations.extend(v)
    if args.format == "json":
        print(json.dumps({"suite": args.which, "depth": args.depth,
                          "semantics": kind.value, "results": results}, indent=2))
    else:
        for r in results:
            status = "ok" if not r["violations"] else "FAIL(%d)" % len(r["violations"])
            print("%-28s %s" % (r["name"], status))
            for v in r["violations"]:
                print("    %s" % json.dumps(v))
        print("suite %s: %d process(es), %d violation(s)"
              % (args.which, len(results), len(all_violations)))
    return EXIT_VIOLATION if all_violations else EXIT_OK


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #

def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return depth


def _add_common(sp):
    sp.add_argument("term", nargs="?", help="inline process term")
    sp.add_argument("--semantics", choices=[k.value for k in MemoryKind],
                    default="rpi")
    sp.add_argument("--input", help="file holding one term (# comments allowed)")


def _add_walk(sp, with_output=False, formats=("text", "json", "dot")):
    # the options of the commands that walk the transition system
    sp.add_argument("--depth", type=_depth, default=4)
    sp.add_argument("--format", choices=formats, default="text")
    if with_output:
        sp.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revpi",
        description="reversible pi-calculus engine with pluggable extrusion memories")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="print the reachable LTS fragment")
    _add_common(sp)
    _add_walk(sp, with_output=True)
    sp.set_defaults(fn=cmd_enumerate, parser=sp)

    sp = sub.add_parser("step", help="interactive forward/backward stepping")
    _add_common(sp)
    sp.set_defaults(fn=cmd_step, parser=sp)

    sp = sub.add_parser("check", help="run a property suite")
    sp.add_argument("which", choices=["loop", "square", "consistency",
                                      "correspondence", "bisim"])
    _add_common(sp)
    _add_walk(sp, formats=("text", "json"))
    sp.add_argument("--corpus", help="directory of .pi files")
    sp.set_defaults(fn=cmd_check, parser=sp)

    sp = sub.add_parser("export", help="enumerate straight to a file")
    _add_common(sp)
    _add_walk(sp, with_output=True)
    sp.set_defaults(fn=cmd_export, parser=sp)
    return ap


def cmd_export(args) -> int:
    if not getattr(args, "output", None):
        raise _IOFailure("export requires --output")
    return cmd_enumerate(args)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if len(extra) == 1 and args.term is None and not extra[0].startswith("-"):
        # argparse binds the optional term empty when options come between
        # it and the suite name of ``check``; take it from the leftovers
        args.term = extra[0]
    elif extra:
        args.parser.error("unrecognized arguments: %s" % " ".join(extra))
    sources = [shown for dest, shown in (("term", "an inline term"),
                                         ("input", "--input"), ("corpus", "--corpus"))
               if getattr(args, dest, None) is not None]
    for dest in ("input", "corpus", "output"):
        if getattr(args, dest, None) == "":
            args.parser.error("--%s: an empty path names no file" % dest)
    if len(sources) > 1:
        args.parser.error("%s exclude each other: give one source of terms"
                          % " and ".join(sources))
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (ParseError, _FileParseError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except _IOFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:
        # the reader closed the pipe (``revpi ... | head``); point stdout at
        # the null device so that the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
