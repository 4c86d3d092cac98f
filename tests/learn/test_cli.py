"""End-to-end tests of the ``csplearn`` console script."""

import json
import os

import pytest

import repro.translator.extractor as extractor_module
from repro.cli_common import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from repro.learn import CaplSimulatorSUL, ReferenceTeacher, derive_message_specs, learn
from repro.learn.cli import main

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
PING = os.path.join(CORPUS_DIR, "ping.can")
DUO = os.path.join(CORPUS_DIR, "duo.can")

BURST = """\
variables {
  message rspX msgX;
  message rspY msgY;
}
on message reqA {
  output(msgX);
  output(msgY);
}
"""


def _library_fingerprint(path):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    from repro.csp.lts import compile_lts
    from repro.translator import ModelExtractor

    model = ModelExtractor().extract(source, "ECU").load()
    reference = compile_lts(model.process("ECU"), model.env, max_states=100_000)
    sul = CaplSimulatorSUL(source, derive_message_specs(source))
    return learn(sul, teacher=ReferenceTeacher(reference)).fingerprint()


def test_summary_format_reports_convergence(capsys):
    assert main([PING]) == EXIT_OK
    out = capsys.readouterr().out
    assert "states: 2" in out
    assert "fingerprint: sha256:" in out
    assert "converged:" in out


def test_json_format_matches_the_library(capsys):
    assert main([DUO, "--format", "json"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["fingerprint"] == _library_fingerprint(DUO)
    assert document["states"] == 3
    assert document["stats"]["rounds"] >= 1


def test_cspm_format_round_trips_through_the_parser(capsys):
    assert main([DUO, "--format", "cspm"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("datatype msgs = ")
    assert "LEARNED_0 = " in text

    from repro.cspm import load
    from repro.csp.lts import compile_lts
    from repro.fdr.refine import check_trace_refinement

    model = load(text)
    reparsed = compile_lts(model.env.resolve("LEARNED_0"), model.env)
    with open(DUO, "r", encoding="utf-8") as handle:
        source = handle.read()
    sul = CaplSimulatorSUL(source, derive_message_specs(source))
    learned = learn(sul, depth=6).lts
    assert check_trace_refinement(reparsed, learned).passed
    assert check_trace_refinement(learned, reparsed).passed


def test_bounded_teacher_agrees_with_the_reference_teacher(capsys):
    assert main([DUO, "--format", "json", "--teacher", "bounded"]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert document["fingerprint"] == _library_fingerprint(DUO)


def test_stats_go_to_stderr(capsys):
    assert main([PING, "--stats"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "stat membership_queries:" in err
    assert "stat rounds:" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    with open(PING, "r", encoding="utf-8") as handle:
        monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
    assert main(["-"]) == EXIT_OK
    assert "states: 2" in capsys.readouterr().out


def test_divergence_exits_with_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(extractor_module, "relax_bus_order", lambda b: b)
    path = tmp_path / "burst.can"
    path.write_text(BURST)
    assert main([str(path)]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "diverged" in err


def test_unreadable_input_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as caught:
        main([str(tmp_path / "missing.can")])
    assert caught.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "content,expected",
    [
        (
            b"on start { \xff }\n",
            "cannot read input: 'utf-8' codec can't decode byte 0xff in "
            "position 11: invalid start byte",
        ),
        (
            b"variables { int x = ; }\n",
            "{path}: expected an expression (found ';') (line 1, column 21)",
        ),
    ],
    ids=["non-utf8", "syntax"],
)
def test_bad_source_exits_two_with_one_line(tmp_path, capsys, content, expected):
    path = tmp_path / "bad.can"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as caught:
        main([str(path)])
    assert caught.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err == "csplearn: {}\n".format(expected.format(path=path))
    assert captured.out == ""


def test_unlearnable_program_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.can"
    path.write_text("variables { }\non start { }\n")
    with pytest.raises(SystemExit) as caught:
        main([str(path)])
    assert caught.value.code == EXIT_USAGE


def test_degenerate_flags_are_usage_errors():
    for flags in (["--depth", "0"], ["--max-rounds", "0"]):
        with pytest.raises(SystemExit) as caught:
            main([PING] + flags)
        assert caught.value.code == EXIT_USAGE


def test_profile_table_appears_on_stderr(capsys):
    assert main([PING, "--profile"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "learn" in err
