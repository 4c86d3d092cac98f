"""Tests for the cspcheck command-line checker."""

import pytest

from repro.cspm.prelude import SP02_FLAWED_SCRIPT, SP02_SCRIPT
from repro.fdr.cli import main as cspcheck_main


@pytest.fixture
def passing_script(tmp_path):
    path = tmp_path / "good.csp"
    path.write_text(SP02_SCRIPT)
    return str(path)


@pytest.fixture
def failing_script(tmp_path):
    path = tmp_path / "bad.csp"
    path.write_text(SP02_FLAWED_SCRIPT)
    return str(path)


class TestCspcheck:
    def test_passing_script_exits_zero(self, passing_script, capsys):
        assert cspcheck_main([passing_script]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "1/1 assertions passed" in out

    def test_failing_script_exits_nonzero_with_trace(self, failing_script, capsys):
        assert cspcheck_main([failing_script]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "rec.rptUpd" in out  # the insecure trace is shown

    def test_quiet_mode(self, passing_script, capsys):
        assert cspcheck_main([passing_script, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "1/1 assertions passed"

    def test_no_assertions_warns(self, tmp_path, capsys):
        path = tmp_path / "empty.csp"
        path.write_text("P = STOP\n")
        assert cspcheck_main([str(path)]) == 0
        assert "no assertions" in capsys.readouterr().err

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        # 1 means "a check failed"; a script that cannot be read is a usage error
        missing = tmp_path / "missing.csp"
        with pytest.raises(SystemExit) as info:
            cspcheck_main([str(missing)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cspcheck: cannot read input: ")
        assert "missing.csp" in captured.err
        assert captured.out == ""

    def test_stats_go_to_stderr_not_stdout(self, passing_script, capsys):
        """stdout carries only verdict lines -- diagnostics go to stderr.

        Pins the machine-parseable stdout contract: a script consuming
        cspcheck output must never see `stat ...` or `compress ...` lines.
        """
        assert cspcheck_main([passing_script, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "stat " not in captured.out
        assert "compress " not in captured.out
        assert "stat checks_run: 1" in captured.err
        assert "compress [" in captured.err
        # stdout is exactly the verdict lines
        lines = captured.out.strip().splitlines()
        assert lines[-1] == "1/1 assertions passed"
        assert all(
            line.endswith("assertions passed") or "PASSED" in line or "FAILED" in line
            for line in lines
        )

    def test_profile_table_on_stderr(self, passing_script, capsys):
        assert cspcheck_main([passing_script, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "profile [run]" in captured.err
        for stage in ("parse", "refine", "total"):
            assert stage in captured.err
        assert "profile [" not in captured.out

    def test_trace_out_writes_valid_jsonl(self, passing_script, tmp_path, capsys):
        from repro.obs.schema import validate_file

        trace = tmp_path / "trace.jsonl"
        assert cspcheck_main([passing_script, "--trace-out", str(trace)]) == 0
        counts = validate_file(str(trace))
        assert counts["meta"] == 1
        assert counts["span"] > 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err and "trace:" not in captured.out

    def test_no_observability_flags_means_no_trace_output(
        self, passing_script, capsys
    ):
        assert cspcheck_main([passing_script]) == 0
        captured = capsys.readouterr()
        assert "profile [" not in captured.err
        assert "trace:" not in captured.err

    def test_generated_model_checkable_end_to_end(self, tmp_path, capsys):
        """capl2cspm output feeds straight into cspcheck."""
        from repro.translator.cli import main as capl2cspm_main

        capl = tmp_path / "ecu.can"
        capl.write_text(
            "variables { message rptSw m; }\n"
            "on message reqSw { output(m); }\n"
        )
        generated = tmp_path / "ecu.csp"
        assert capl2cspm_main([str(capl), "-o", str(generated)]) == 0
        with open(generated, "a", encoding="utf-8") as handle:
            handle.write("\nSPEC = send.reqSw -> rec.rptSw -> SPEC\n")
            handle.write("assert SPEC [T= ECU\n")
        assert cspcheck_main([str(generated)]) == 0
