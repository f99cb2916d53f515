import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import procs
from revpi import checks, cli, corpus, semantics, syntax, traces
from revpi.engine import Engine
from revpi.memory import MemoryKind
from test_output_digests import F2_TERM, F3_TERM, FAULT_TERMS


def main(argv):
    return cli.main(argv)


def test_enumerate_single_output(capsys):
    assert main(["enumerate", "--semantics", "rpi", "--depth", "2", "b!a.0"]) == 0
    out = capsys.readouterr().out
    assert "states: 2" in out
    assert "transitions: 1 forward, 1 backward" in out
    assert "S0 --> S1  (1,{*},*): b!a" in out
    assert "S1 ~~> S0  (1,{*},*): b!a" in out


def test_enumerate_nil(capsys):
    assert main(["enumerate", "--depth", "1", "0"]) == 0
    out = capsys.readouterr().out
    assert "states: 1" in out
    assert "transitions: 0 forward, 0 backward" in out


def test_enumerate_dot(capsys):
    assert main(["enumerate", "--depth", "2", "--format", "dot", "b!a.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lts {")
    assert out.rstrip().endswith("}")


def test_enumerate_json_deterministic(capsys):
    argv = ["enumerate", "--depth", "3", "--format", "json",
            "nu a.(b!a.0 | c!a.0 | a?(x).0)"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_parse_error_exit_code(capsys):
    assert main(["enumerate", "b!!a.0"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_missing_term_exit_code(capsys):
    assert main(["enumerate"]) == 2


@pytest.mark.parametrize("argv", [
    ["enumerate", ""],
    ["check", "loop", ""],
    ["check", "loop", "--depth", "2", ""],
])
def test_empty_inline_term_is_a_parse_error(argv, capsys):
    # an empty term is not a request for the built-in corpus
    assert main(argv) == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_input_file(tmp_path, capsys):
    f = tmp_path / "term.pi"
    f.write_text("# a comment\nb!a.0\n")
    assert main(["enumerate", "--depth", "1", "--input", str(f)]) == 0
    assert "states: 2" in capsys.readouterr().out


def test_export_writes_file(tmp_path):
    out = tmp_path / "lts.json"
    assert main(["export", "--depth", "2", "--format", "json",
                 "--output", str(out), "b!a.0"]) == 0
    data = json.loads(out.read_text())
    assert len(data["states"]) == 2


def test_export_requires_output(capsys):
    assert main(["export", "b!a.0"]) == 2


def test_check_loop_single_term(capsys):
    assert main(["check", "loop", "b!a.0 | b?(x).x!c.0", "--depth", "3"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_check_correspondence_requires_indexed_memories(capsys):
    assert main(["check", "correspondence", "b!a.0", "--semantics", "rpi"]) == 2
    assert main(["check", "correspondence", "b!a.0 | b?(x).x!c.0",
                 "--semantics", "bsc", "--depth", "3"]) == 0


def test_check_corpus_dir(tmp_path, capsys):
    (tmp_path / "one.pi").write_text("b!a.0\n")
    (tmp_path / "two.pi").write_text("a?(x).0 | a!b.0\n")
    assert main(["check", "loop", "--depth", "3", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "one" in out and "two" in out


def test_step_session(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\nundo\ntrace\nquit\n"))
    assert main(["step", "b!a.0"]) == 0
    out = capsys.readouterr().out
    # the initial term is shown, stepped away from, and restored by undo
    assert out.count("term: b!a.0") >= 2
    assert "term: b!a[1;{*}].0" in out
    assert "undid (1,{*},*): b!a" in out
    assert "[]" in out  # trace after undo is empty


def test_step_bad_selection(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("99\nbogus\nq\n"))
    assert main(["step", "b!a.0"]) == 0
    out = capsys.readouterr().out
    assert "selection out of range" in out
    assert "unrecognised input" in out


def test_step_stuck_term(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert main(["step", "0"]) == 0
    assert "no transitions" in capsys.readouterr().out


def test_check_term_after_options(capsys):
    assert main(["check", "loop", "--depth", "4", "a!b.0"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_check_term_straight_after_suite(capsys):
    assert main(["check", "loop", "a!b.0", "--semantics", "bsc", "--depth", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semantics"] == "bsc" and doc["results"][0]["violations"] == []


@pytest.mark.parametrize("argv", [
    ["check", "loop", "a!b.0", "--depth", "-1"],
    ["enumerate", "a!b.0", "--depth", "two"],
    ["check", "loop", "a!b.0", "--format", "dot"],
    ["check", "loop", "--depth", "2", "a!b.0", "extra"],
    # a second source of terms is refused, never silently dropped
    ["enumerate", "c?(x).0", "--input", "t.pi"],
    ["check", "loop", "c?(x).0", "--corpus", "corpus_dir"],
    ["check", "loop", "--depth", "2", "c?(x).0", "--input", "t.pi"],
    ["check", "loop", "--input", "t.pi", "--corpus", "corpus_dir"],
    ["step", "b!a.0", "--depth", "2"],
    ["step", "b!a.0", "--format", "json"],
    # an empty path names no file, and never falls back to a default
    ["check", "loop", "--input", ""],
    ["check", "loop", "--corpus", ""],
    ["enumerate", "a!b.0", "--output", ""],
    ["export", "a!b.0", "--output", ""],
    # a second source of terms for ``step``
    ["step", "b!a.0", "--input", "t.pi"],
])
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_IO
    # the usage line is the subcommand's, also for errors found after parsing
    err = capsys.readouterr().err
    assert err.startswith("usage: revpi %s [-h]" % argv[0])
    assert "revpi %s: error: " % argv[0] in err


def test_calls_in_one_process_share_the_parser_and_nothing_else(monkeypatch, tmp_path, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    out = tmp_path / "lts.json"
    assert main(["export", "a!b.0", "--semantics", "bsc", "--format", "json",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["states"]
    # no ``--output`` and no ``--semantics`` carried over from the export
    assert main(["check", "loop", "a!b.0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semantics"] == "rpi" and doc["results"][0]["violations"] == []
    # an error found after parsing names the subcommand of its own call
    for argv in (["check", "loop", "--input", ""], ["export", "a!b.0", "--output", ""],
                 ["enumerate", "a!b.0", "--output", ""]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("usage: revpi %s [-h]" % argv[0])
    assert built == [1]


def test_closed_output_pipe_exits_quietly():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "revpi.cli", "enumerate", "a!m.0 | b!n.0 | c!o.0",
         "--depth", "3", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_IO
    assert "Traceback" not in err and "Exception" not in err


def test_engine_error_is_a_violation_of_its_term(monkeypatch, capsys):
    def broken(p, kind, depth):
        raise traces.SquareNotFoundError("square does not close for steps 0/1")

    monkeypatch.setattr(checks, "check_square", broken)
    assert main(["check", "square", "a!b.0", "--format", "json"]) == cli.EXIT_VIOLATION
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["violations"] == [{
        "reason": "check raised SquareNotFoundError",
        "error": "square does not close for steps 0/1",
    }]


def test_other_checker_exceptions_escape(monkeypatch):
    def broken(p, kind, depth):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "check_loop", broken)
    with pytest.raises(RuntimeError):
        main(["check", "loop", "a!b.0"])


@pytest.mark.parametrize("term", [
    "a!b." * 1000 + "0",
    " | ".join(["a!b.0"] * 1000),
])
def test_deep_nesting_is_a_parse_error(term, capsys):
    assert main(["check", "loop", term]) == cli.EXIT_PARSE
    assert "nested deeper than %d" % syntax.MAX_NESTING in capsys.readouterr().err


@pytest.mark.parametrize("term", ["a!nu.0 | a?(x).x!c.0", "nu!c.0", "nu nu.0"])
def test_nu_as_a_name_is_a_parse_error(term, capsys):
    assert main(["enumerate", term]) == cli.EXIT_PARSE
    assert "'nu' is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("term", [
    "a!b." * syntax.MAX_NESTING + "0",
    " | ".join(["a!b.0"] * syntax.MAX_NESTING),
])
def test_term_at_the_nesting_bound_runs(term, capsys):
    assert syntax.format(syntax.parse_process(term)) == term
    assert main(["enumerate", "--depth", "1", term]) == 0
    assert "S0: " + term in capsys.readouterr().out


def test_missing_corpus_directory_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["check", "loop", "--corpus", str(missing)]) == cli.EXIT_IO
    assert "does not exist" in capsys.readouterr().err


def test_corpus_that_is_a_file_is_an_io_error(tmp_path, capsys):
    plain = tmp_path / "one.pi"
    plain.write_text("b!a.0\n")
    assert main(["check", "loop", "--corpus", str(plain)]) == cli.EXIT_IO
    assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--input", "--corpus"])
def test_file_that_is_not_utf8_is_an_io_error(tmp_path, capsys, source):
    bad = tmp_path / "bad.pi"
    bad.write_bytes(b"a!b.\xff0")
    (tmp_path / "good.pi").write_text("b!a.0\n")
    given = bad if source == "--input" else tmp_path
    assert main(["check", "loop", source, str(given)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % bad) and "utf-8" in err


def test_utf8_file_reads_under_an_ascii_locale(tmp_path):
    # a term file is UTF-8 text whatever the locale's preferred encoding
    term = tmp_path / "cafe.pi"
    term.write_bytes("a!b.0 # caf\u00e9\n".encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-m", "revpi.cli", "check", "loop", "--input", str(term)],
        capture_output=True, env=env)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()


def test_corpus_parse_error_names_the_file(tmp_path, capsys):
    (tmp_path / "good.pi").write_text("b!a.0\n")
    bad = tmp_path / "bad.pi"
    bad.write_text("a!b.(0\n")
    assert main(["check", "loop", "--corpus", str(tmp_path)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("parse error: %s: expected ')'" % bad)


# --------------------------------------------------------------------------- #
# the LTS writers against json.dumps and the whole-string oracle
# --------------------------------------------------------------------------- #

def _written(order, transitions, fmt):
    """What the writer of ``fmt`` writes, as one string."""
    out = io.StringIO()
    cli._LTS_WRITERS[fmt](out.write, order, transitions)
    return out.getvalue()


def _json_key(k):
    return "*" if k is syntax.STAR else k


def _act_record(act):
    if isinstance(act, syntax.FreeOut):
        return {"kind": "out", "chan": act.chan, "datum": act.datum}
    if isinstance(act, syntax.InAct):
        return {"kind": "in", "chan": act.chan, "datum": act.binder}
    if isinstance(act, syntax.BoundOut):
        return {"kind": "boundout", "chan": act.chan, "datum": act.datum,
                "mem": act.mem.render()}
    return {"kind": "tau"}


def _lts_record(order, transitions):
    """The record ``enumerate --format json`` once passed to
    ``json.dumps(..., indent=2)``, spelt out field by field."""
    return {
        "states": [syntax.format(x) for x in order],
        "transitions": [
            {"from": a, "to": b, "dir": t.dir.value,
             "label": syntax.format(t.label),
             "key": t.label.key,
             "cause": [_json_key(k) for k in sorted(t.label.cause, key=syntax.key_sort)],
             "inst": _json_key(t.label.inst),
             "act": _act_record(t.label.act),
             "state": syntax.format(t.target)}
            for a, b, t in transitions
        ],
    }


def test_json_writer_matches_json_dumps(corpus_entries):
    explored = 0
    for _, p in corpus_entries:
        for kind in MemoryKind:
            for depth in range(4):
                order, transitions = checks.explore(p, Engine(kind), depth)
                text = _written(order, transitions, "json")
                assert text == json.dumps(_lts_record(order, transitions), indent=2)
                if depth == 0:
                    assert '"transitions": []' in text
                explored += 1
    assert explored == 52 * 3 * 4


def test_json_writer_writes_an_empty_cause():
    # no walk of the corpus produces an empty cause set; a hand-made
    # transition with one still writes as json.dumps would
    x = syntax.initial(syntax.parse_process("a!b.0"), MemoryKind.RPI)
    (t,) = semantics.forward_transitions(x, MemoryKind.RPI)
    bare = dataclasses.replace(t, label=dataclasses.replace(t.label, cause=frozenset()))
    lts = ([x, t.target], [(0, 1, bare)])
    text = _written(*lts, "json")
    assert '"cause": []' in text
    assert text == json.dumps(_lts_record(*lts), indent=2)


def _writes_as_json_dumps(text, kind, depth):
    order, transitions = checks.explore(syntax.parse_process(text), Engine(kind), depth)
    assert _written(order, transitions, "json") == json.dumps(
        _lts_record(order, transitions), indent=2)


@settings(deadline=None)
@given(procs().map(syntax.format), st.sampled_from(list(MemoryKind)), st.integers(0, 4))
def test_json_writer_matches_json_dumps_on_random_terms(text, kind, depth):
    _writes_as_json_dumps(text, kind, depth)


@pytest.mark.parametrize("kind", list(MemoryKind))
@pytest.mark.parametrize("text", FAULT_TERMS)
def test_json_writer_matches_json_dumps_on_the_fault_terms(text, kind):
    for depth in range(5):
        _writes_as_json_dumps(text, kind, depth)


@settings(deadline=None)
@given(procs().map(syntax.format), st.sampled_from(list(MemoryKind)), st.integers(0, 4),
       st.sampled_from(["dot", "text"]))
def test_dot_and_text_writers_match_the_oracle(text, kind, depth, fmt):
    order, transitions = checks.explore(syntax.parse_process(text), Engine(kind), depth)
    assert _written(order, transitions, fmt) == oracles.render_lts(order, transitions, fmt)


# A term whose depth-6 export is 0.60 to 0.69 MB of JSON under each kind
STREAMED = "nu r.(c!r.0 | a!r.nu s1.(b?(x2).0) | a!n.0 | b!n.0)"


@pytest.mark.parametrize("kind", list(MemoryKind))
def test_the_writers_stream(monkeypatch, kind):
    order, transitions = checks.explore(syntax.parse_process(STREAMED), Engine(kind), 6)
    for fmt in ("json", "dot", "text"):
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append,
                                                                 flush=lambda: None))
        assert main(["enumerate", STREAMED, "--semantics", kind.value, "--depth", "6",
                     "--format", fmt]) == cli.EXIT_OK
        monkeypatch.undo()
        expected = oracles.render_lts(order, transitions, fmt) + "\n"
        if fmt == "json":
            assert 600_000 < len(expected) < 700_000
        assert "".join(writes) == expected
        assert max(map(len, writes)) <= 64 * 1024


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_an_unwritable_output_fails_before_the_walk(monkeypatch, tmp_path, capsys, target):
    def explore(*args):
        raise AssertionError("the term was walked")

    monkeypatch.setattr(checks, "explore", explore)
    path = str(tmp_path / target)
    assert main(["export", "a!b.0", "--format", "json", "--output", path]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


# a corpus term with closes, bound outputs and causes, which the kinds
# tell apart; and two steps with one label, whose targets break the tie
@pytest.mark.parametrize("text", ["nu a.(b!a.0 | c!a.0) | c?(x).x!d.0",
                                  "a!m.0 | a!m.0"])
@pytest.mark.parametrize("kind", list(MemoryKind))
def test_export_renders_once_per_state_and_label(monkeypatch, tmp_path, text, kind):
    formats, renders, sort_keys, bodies = [], [], [], []
    real_format, real_sort, real_sort_key = (
        syntax.format, syntax.sort_steps, semantics.label_sort_key)

    def counted_format(term):
        formats.append(term)
        return real_format(term)

    def counted_sort(steps, label_key, render):
        def counted_render(step):
            renders.append(step)
            return render(step)
        return real_sort(steps, label_key, counted_render)

    def counted_sort_key(label):
        sort_keys.append(label)
        if "_sort_key" not in vars(label):
            bodies.append(label)  # the key is not kept yet: the body runs
        return real_sort_key(label)

    monkeypatch.setattr(syntax, "format", counted_format)
    monkeypatch.setattr(syntax, "sort_steps", counted_sort)
    monkeypatch.setattr(semantics, "label_sort_key", counted_sort_key)
    out = tmp_path / "lts.json"
    assert main(["export", text, "--semantics", kind.value, "--depth", "4",
                 "--format", "json", "--output", str(out)]) == cli.EXIT_OK
    monkeypatch.undo()
    order, edges = checks.explore(syntax.parse_process(text), Engine(kind), 4)
    labels = {t.label for _, _, t in edges}
    assert len(json.loads(out.read_text())["states"]) == len(order)
    # a state and a label are each rendered once, a target besides only
    # to break a tie between labels
    assert len(formats) == len(order) + len(labels) + len(renders)
    assert len(edges) > len(labels)
    # the sort key of a label is computed once per label instance
    assert len(bodies) == len({id(label) for label in sort_keys}) < len(sort_keys)


@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
def test_enumerate_renders_each_state_and_label_once(monkeypatch, capsys, fmt):
    text = "a!m.0 | a?(x).b!x.0 | b?(y).0"
    order, edges = checks.explore(syntax.parse_process(text), Engine(MemoryKind.RPI), 6)
    labels = {t.label for _, _, t in edges}
    assert (len(order), len(edges), len(labels)) == (135, 353, 21)
    formats, real_format = [], syntax.format

    def counted_format(term):
        formats.append(term)
        return real_format(term)

    monkeypatch.setattr(syntax, "format", counted_format)
    assert main(["enumerate", text, "--depth", "6", "--format", fmt]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(formats) == len(order) + len(labels)


# --------------------------------------------------------------------------- #
# the cycle collector during a command
# --------------------------------------------------------------------------- #

class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails as a closed pipe
    does; ``fileno`` is a scratch file, which ``main`` points at the null
    device."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class _BreakingPipe(_ClosedPipe):
    """A stdout whose reader goes away after ``accepted`` writes."""

    def __init__(self, fd, accepted):
        super().__init__(fd)
        self.accepted = accepted

    def write(self, text):
        if self.accepted == 0:
            return super().write(text)  # fails as the closed pipe does
        self.accepted -= 1
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
@pytest.mark.parametrize("accepted", [1, 40])
def test_a_pipe_that_breaks_mid_stream_exits_quietly(monkeypatch, tmp_path, capsys,
                                                     fmt, accepted):
    scratch = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    pipe = _BreakingPipe(scratch, accepted)
    monkeypatch.setattr(sys, "stdout", pipe)
    was = gc.isenabled()
    try:
        code = main(["enumerate", "a!m.0 | a?(x).b!x.0 | b?(y).0", "--depth", "4",
                     "--format", fmt])
        after = gc.isenabled()
    finally:
        if was:
            gc.enable()
        monkeypatch.undo()
        os.close(scratch)
    # every accepted write was taken, and the next one broke the pipe
    assert code == cli.EXIT_IO and pipe.accepted == 0
    assert after is was
    assert capsys.readouterr().err == ""


def _record_collector(monkeypatch) -> list:
    # whether the collector runs, seen as each command reads its term
    seen = []
    real = cli._read_term

    def read_term(args):
        seen.append(gc.isenabled())
        return real(args)

    monkeypatch.setattr(cli, "_read_term", read_term)
    return seen


def _escaping(p, kind, depth):
    raise RuntimeError("boom")


@pytest.mark.parametrize("case, argv, code", [pytest.param(*case, id=case[0]) for case in [
    ("export", ["export", "a!b.0 | b?(x).0", "--format", "json", "--output", "{out}"],
     cli.EXIT_OK),
    ("enumerate", ["enumerate", "a!b.0 | b?(x).0"], cli.EXIT_OK),
    ("check", ["check", "square", "a!b.0 | b?(x).0"], cli.EXIT_OK),
    ("parse-error", ["enumerate", "a!b."], cli.EXIT_PARSE),
    ("io-error", ["enumerate", "--input", "{missing}"], cli.EXIT_IO),
    ("broken-pipe", ["enumerate", "a!b.0"], cli.EXIT_IO),
    ("escaping-error", ["check", "loop", "a!b.0"], None),
]])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_a_batch_command_pauses_the_collector_and_restores_it(
        monkeypatch, tmp_path, capsys, case, argv, code, enabled):
    seen = _record_collector(monkeypatch)
    argv = [a.format(out=tmp_path / "lts.json", missing=tmp_path / "none.pi") for a in argv]
    if case == "broken-pipe":
        scratch = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(scratch))
    if case == "escaping-error":
        monkeypatch.setattr(checks, "check_loop", _escaping)
    was = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
        else:
            assert main(argv) == code
        after = gc.isenabled()
    finally:
        if was:
            gc.enable()
        if case == "broken-pipe":
            os.close(scratch)
    assert seen == [False]
    assert after is enabled


def test_the_stepper_never_pauses_the_collector(monkeypatch, capsys):
    seen = _record_collector(monkeypatch)

    class Lines(io.StringIO):
        def readline(self):
            seen.append(gc.isenabled())
            return super().readline()

    monkeypatch.setattr(sys, "stdin", Lines("1\nundo\nquit\n"))
    assert gc.isenabled()
    assert main(["step", "a!b.0 | b?(x).0"]) == cli.EXIT_OK
    assert seen == [True] * 4 and gc.isenabled()


# The one cyclic garbage a command leaves: argparse's help formatter, as
# the parser is built.  (The JSON writers use ``traces.json_text``, not
# ``json.dumps(..., indent=2)``, whose closures refer to each other.)
_STDLIB_CYCLES = ("argparse",)


def test_no_command_leaves_its_objects_to_the_cycle_collector(monkeypatch, tmp_path, capsys):
    # the collector may be paused during a command only because its
    # objects hold no reference cycle: unreachable ones are freed by
    # reference counting, so a collection finds none of them
    monkeypatch.setattr(cli, "_parser", None)  # the build is in the census too
    entries = dict(corpus.acceptance_corpus())
    terms = [syntax.format(entries[name]) for name in
             ("ex10_close", "ex11_close_then_reopen", "ex13_extrude_then_input", "gen_20")]
    terms += [F2_TERM, F3_TERM, "a!b.c!d.0"]  # the last: a past prefix at the root
    out = tmp_path / "lts.json"
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for kind in MemoryKind:
            common = ["--semantics", kind.value, "--depth", "3"]
            suites = ["loop", "square", "consistency", "bisim"]
            if kind is MemoryKind.BSC:
                suites.append("correspondence")
            for term in terms:
                main(["export", term, "--format", "json", "--output", str(out)] + common)
                main(["enumerate", term, "--format", "json"] + common)
                for suite in suites:
                    main(["check", suite, term, "--format", "json"] + common)
        capsys.readouterr()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    ours = [type(obj).__qualname__ for obj in garbage
            if type(obj).__module__.split(".")[0] == "revpi"]
    assert ours == []
    assert garbage, "the census saw no cycle at all"
    code = [obj for obj in garbage if isinstance(obj, (types.FunctionType, types.MethodType))]
    assert {getattr(fn, "__module__", None) for fn in code} <= set(_STDLIB_CYCLES)
    held = {type(obj).__module__ for obj in garbage if hasattr(obj, "__dict__")}
    assert held <= set(_STDLIB_CYCLES) | {"builtins"}
