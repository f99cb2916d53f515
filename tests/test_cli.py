import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from revpi import checks, cli, semantics, syntax, traces
from revpi.engine import Engine
from revpi.memory import MemoryKind


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
# the LTS JSON writer against json.dumps
# --------------------------------------------------------------------------- #

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
                text = cli._render_lts(order, transitions, "json")
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
    text = cli._render_lts(*lts, "json")
    assert '"cause": []' in text
    assert text == json.dumps(_lts_record(*lts), indent=2)
