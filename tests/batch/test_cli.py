"""The cspbatch command line: manifests in, deterministic JSONL out."""

import json

import pytest

from repro.batch import CheckSpec, dump_manifest
from repro.batch.cli import main
from repro.cli_common import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from repro.csp.events import Alphabet, Event
from repro.csp.lts import TermNestingExceeded
from repro.csp.process import Hiding, Prefix, ProcessRef, Stop

A, B, C = Event("a"), Event("b"), Event("c")


def write_manifest(tmp_path, specs, name="manifest.json"):
    path = str(tmp_path / name)
    dump_manifest(specs, path)
    return path


def passing_specs():
    good = Prefix(A, Prefix(B, Stop()))
    return [
        CheckSpec.refinement(good, good, "T", check_id="ok"),
        CheckSpec.requirement("R01"),
    ]


def failing_specs():
    good = Prefix(A, Prefix(B, Stop()))
    bad = Prefix(A, Prefix(C, Stop()))
    return passing_specs() + [CheckSpec.refinement(good, bad, "T", check_id="nope")]


def jsonl_of(captured):
    return [json.loads(line) for line in captured.out.splitlines()]


def test_all_passing_exits_0(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    assert main([path]) == EXIT_OK
    captured = capsys.readouterr()
    docs = jsonl_of(captured)
    assert [doc["id"] for doc in docs] == ["ok", "R01"]
    assert all(doc["verdict"] == "PASS" for doc in docs)
    assert "2 jobs" in captured.err


def test_any_failure_exits_1_and_reports_on_stderr(tmp_path, capsys):
    path = write_manifest(tmp_path, failing_specs())
    assert main([path]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    docs = jsonl_of(captured)
    assert [doc["verdict"] for doc in docs] == ["PASS", "PASS", "FAIL"]
    assert docs[2]["counterexample"]["trace"] == ["a"]
    assert "nope: FAIL" in captured.err


def test_stdout_is_identical_across_jobs_counts(tmp_path, capsys):
    path = write_manifest(tmp_path, failing_specs())
    main([path, "--jobs", "0", "--quiet"])
    inline_out = capsys.readouterr().out
    main([path, "--jobs", "1", "--quiet"])
    serial_out = capsys.readouterr().out
    main([path, "--jobs", "4", "--quiet"])
    parallel_out = capsys.readouterr().out
    assert inline_out == serial_out == parallel_out


def test_quiet_suppresses_stderr(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    assert main([path, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cache_dir_is_created_and_reused(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    cache_dir = tmp_path / "cache"
    assert main([path, "--cache-dir", str(cache_dir), "--quiet"]) == EXIT_OK
    first = capsys.readouterr().out
    assert any(cache_dir.glob("*.ltsb"))
    assert main([path, "--cache-dir", str(cache_dir), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_manifest_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    buffer = io.StringIO()
    dump_manifest(passing_specs(), buffer)
    buffer.seek(0)
    monkeypatch.setattr("sys.stdin", buffer)
    assert main(["-", "--quiet"]) == EXIT_OK
    assert len(jsonl_of(capsys.readouterr())) == 2


def test_missing_manifest_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "absent.json")])
    assert excinfo.value.code == EXIT_USAGE
    assert "cannot read manifest" in capsys.readouterr().err


def test_bad_manifest_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 99, "checks": []}')
    with pytest.raises(SystemExit) as excinfo:
        main([str(path)])
    assert excinfo.value.code == EXIT_USAGE
    assert "bad manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields", ['"ab"', "[1.5]", "[null]", '[{"u": []}]'], ids=["str", "float", "null", "tag"]
)
def test_malformed_event_manifest_exits_2(tmp_path, capsys, fields):
    path = tmp_path / "bad-event.json"
    path.write_text(
        '{"format": 1, "checks": [{"kind": "trace", "spec": {"op": "stop"}, '
        '"trace": [{"channel": "c", "fields": ' + fields + "}]}]}"
    )
    with pytest.raises(SystemExit) as excinfo:
        main([str(path)])
    assert excinfo.value.code == EXIT_USAGE
    assert "bad manifest" in capsys.readouterr().err


def test_recursion_through_hiding_is_one_error_at_any_jobs(
    tmp_path, capsys, shallow_stack
):
    body = Hiding(Prefix(A, Prefix(B, ProcessRef("P"))), Alphabet([A, B]))
    specs = [
        CheckSpec.property_check(
            ProcessRef("P"), "divergence free", check_id="div", bindings={"P": body}
        ),
        CheckSpec.refinement(
            Stop(), ProcessRef("P"), "T", check_id="ref", bindings={"P": body}
        ),
    ]
    path = write_manifest(tmp_path, specs)
    outputs = []
    with shallow_stack(160):
        for jobs in ("0", "2"):
            assert main([path, "--jobs", jobs, "--quiet"]) == EXIT_VIOLATION
            outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [json.loads(line) for line in outputs[0].splitlines()]
    assert [line["verdict"] for line in lines] == ["ERROR", "ERROR"]
    error = "TermNestingExceeded: {}".format(TermNestingExceeded())
    assert [line["error"] for line in lines] == [error, error]


def test_nesting_bomb_manifest_exits_2(tmp_path, capsys, nested_term_json):
    path = tmp_path / "bomb.json"
    path.write_text(
        '{"format": 1, "checks": [{"kind": "property", '
        '"property": "deadlock free", "term": ' + nested_term_json(3000) + "}]}"
    )
    with pytest.raises(SystemExit) as excinfo:
        main([str(path), "--jobs", "2"])
    assert excinfo.value.code == EXIT_USAGE
    assert "bad manifest" in capsys.readouterr().err


def test_negative_jobs_exits_2(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    with pytest.raises(SystemExit) as excinfo:
        main([path, "--jobs", "-1"])
    assert excinfo.value.code == EXIT_USAGE


def test_timeout_produces_timeout_verdict(tmp_path, capsys):
    specs = [
        CheckSpec.selftest("sleep:30", check_id="slow"),
        CheckSpec.selftest("pass", check_id="quick"),
    ]
    path = write_manifest(tmp_path, specs)
    assert main([path, "--jobs", "2", "--timeout", "0.3"]) == EXIT_VIOLATION
    docs = jsonl_of(capsys.readouterr())
    assert [doc["verdict"] for doc in docs] == ["TIMEOUT", "PASS"]


def test_batch_timeout_cancels(tmp_path, capsys):
    specs = [CheckSpec.selftest("sleep:30", check_id=str(i)) for i in range(3)]
    path = write_manifest(tmp_path, specs)
    assert main([path, "--jobs", "2", "--batch-timeout", "0.3"]) == EXIT_VIOLATION
    docs = jsonl_of(capsys.readouterr())
    assert [doc["verdict"] for doc in docs] == ["CANCELLED"] * 3


def test_stats_flag(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    assert main([path, "--stats"]) == EXIT_OK
    assert "stat PASS: 2" in capsys.readouterr().err


def test_profile_flag_prints_a_table(tmp_path, capsys):
    path = write_manifest(tmp_path, passing_specs())
    assert main([path, "--profile", "--quiet"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "profile [" in err
    assert "total" in err
