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
import gc
import json
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import checks, corpus, syntax, traces
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

# A writer passes the transition system to ``write`` one state or edge at
# a time, so no string of the whole output is built; it holds the text of
# each state and of each distinct label, and leaves off the last newline.

# One edge of the JSON transition system, as ``json.dumps(..., indent=2)``
# writes it after the separator before it: from, to, direction, the block
# of its label's fields and the escaped text of its target state.
_JSON_EDGE = ('%s    {\n      "from": %d,\n      "to": %d,\n      "dir": "%s",\n'
              '%s,\n      "state": %s\n    }')


def _label_block(label) -> str:
    """The fields of an edge that depend on its label alone, written as
    ``json.dumps(..., indent=2)`` writes them inside an edge record."""
    fields = {"label": syntax.format(label), **traces.label_fields(label)}
    return ",\n".join("      %s: %s" % (encode_basestring_ascii(k), traces.json_text(v, 3))
                      for k, v in fields.items())


def _edges(transitions, render):
    """Each edge as ``(from, to, forward, text)``, where ``text`` is its
    label rendered by ``render``, once per distinct label."""
    texts: dict = {}
    # an identity test: ``Direction.value``, or a table keyed by the
    # member (``Enum.__hash__`` is Python code), costs six times as much
    forward = Direction.FORWARD
    for a, b, t in transitions:
        text = texts.get(t.label)
        if text is None:
            text = texts[t.label] = render(t.label)
        yield a, b, t.dir is forward, text


def _write_json(write, order, transitions) -> None:
    """The transition system as ``json.dumps(..., indent=2)`` writes its
    record ``{states, transitions}``, paying once per state and once per
    distinct label rather than once per edge: a state's text is escaped
    once, with the C escaper ``json`` itself uses, a label's block is
    written once, and each edge is one fill of ``_JSON_EDGE``."""
    states = [encode_basestring_ascii(syntax.format(x)) for x in order]
    write('{\n  "states": [')
    sep = "\n    "
    for text in states:
        write(sep + text)
        sep = ",\n    "
    write('\n  ],\n  "transitions": ')
    sep = "[\n"
    for a, b, forward, block in _edges(transitions, _label_block):
        write(_JSON_EDGE % (sep, a, b, "forward" if forward else "backward",
                            block, states[b]))
        sep = ",\n"
    write("\n  ]\n}" if transitions else "[]\n}")


def _write_dot(write, order, transitions) -> None:
    write("digraph lts {")
    for i, x in enumerate(order):
        write('\n  s%d [label="%s"];' % (i, syntax.format(x)))
    for a, b, forward, label in _edges(transitions, syntax.format):
        write('\n  s%d -> s%d [label="%s", style=%s];'
              % (a, b, label, "solid" if forward else "dashed"))
    write("\n}")


def _write_text(write, order, transitions) -> None:
    fwd = sum(1 for _, _, t in transitions if t.dir is Direction.FORWARD)
    write("states: %d\ntransitions: %d forward, %d backward"
          % (len(order), fwd, len(transitions) - fwd))
    for i, x in enumerate(order):
        write("\nS%d: %s" % (i, syntax.format(x)))
    for a, b, forward, label in _edges(transitions, syntax.format):
        write("\nS%d %s S%d  %s" % (a, "-->" if forward else "~~>", b, label))


_LTS_WRITERS = {"json": _write_json, "dot": _write_dot, "text": _write_text}


def cmd_enumerate(args) -> int:
    p = _read_term(args)
    # the destination is opened before the walk, so that one that cannot
    # be written fails at once
    try:
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
            order, transitions = checks.explore(p, Engine(_kind(args)), args.depth)
            _LTS_WRITERS[args.format](out.write, order, transitions)
            out.write("\n")
    except OSError as exc:
        if not args.output:
            raise  # a closed pipe ends the command in ``main``
        raise _IOFailure(str(exc))
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
            current = last.source
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
        from . import correspondence  # loaded only by the one suite that uses it
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
        print(traces.json_text({"suite": args.which, "depth": args.depth,
                                "semantics": kind.value, "results": results}))
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


# The parser of ``main``, built at its first call and then reused: a parse
# keeps nothing on the parser, so one serves every call of a process.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args, extra = _parser.parse_known_args(argv)
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
    # A batch command pauses the cycle collector: the states, labels and
    # transitions of a run hold no reference cycles, so reference counting
    # frees them, and collector passes over the run's objects find
    # nothing.  The open-ended stepper keeps it running.
    paused = args.fn is not cmd_step and gc.isenabled()
    if paused:
        gc.disable()
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
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_IO
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
