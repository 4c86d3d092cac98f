"""Tests for the cspcheck command-line checker."""

import hashlib
import json
import sqlite3
from contextlib import closing

import pytest

from repro.csp.lts import TermNestingExceeded
from repro.cspm.prelude import SP02_FLAWED_SCRIPT, SP02_SCRIPT
from repro.fdr.cli import main as cspcheck_main

from ..conftest import RUNAWAY_HIDING_SCRIPT


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

    @pytest.mark.parametrize(
        "content,expected",
        [
            (
                b"P = STOP\xff\n",
                "cannot read input: 'utf-8' codec can't decode byte 0xff in "
                "position 8: invalid start byte",
            ),
            (b"P = (STOP\n", "{path}: expected 'RPAREN' (found '<eof>') (line 2, column 1)"),
            (b"P = c!1 -> STOP\n", "{path}: prefix on undeclared channel 'c'"),
            (b"P = STOP\nassert P [T= NOPE\n", "{path}: undefined process 'NOPE'"),
        ],
        ids=["non-utf8", "syntax", "undeclared-channel", "undefined-in-assert"],
    )
    def test_bad_script_exits_two_with_one_line(
        self, tmp_path, capsys, content, expected
    ):
        path = tmp_path / "bad.csp"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as info:
            cspcheck_main([str(path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err == "cspcheck: {}\n".format(expected.format(path=path))
        assert captured.out == ""

    def test_exceeded_budget_is_reported_per_assertion(self, tmp_path, capsys):
        from repro.csp.lts import StateSpaceLimitExceeded
        from repro.exec.resultcache import ResultCache

        path = tmp_path / "big.csp"
        path.write_text(
            "channel a, b\n"
            "P = a -> b -> P\n"
            "Q = P ||| P ||| P\n"
            "assert Q :[deadlock free]\n"
            "assert P [T= Q\n"
            "assert P [T= P\n"
        )
        store = tmp_path / "verdicts"
        argv = [str(path), "--max-states", "3", "--result-cache", str(store)]
        assert cspcheck_main(argv) == 1
        captured = capsys.readouterr()
        error = "ERROR -- StateSpaceLimitExceeded: {}".format(
            StateSpaceLimitExceeded(3)
        )
        assert captured.out.splitlines() == [
            "Q :[deadlock free]: " + error,
            "P [T= Q: " + error,
            "P [T= P: PASSED (2 states, 2 transitions explored)",
            "1/3 assertions passed",
        ]
        assert "Traceback" not in captured.err
        assert len(ResultCache(str(store))) == 1  # only the decided verdict

    def test_memo_keys_are_pinned(self, tmp_path, capsys):
        # every key is the material() of the assertion's check (plus a
        # marker for a negated one); the digests are those of the keys
        # stores written by earlier releases hold, so they keep answering
        path = tmp_path / "three.csp"
        path.write_text(
            "channel a, b\n"
            "P = a -> b -> P\n"
            "Q = a -> STOP\n"
            "assert P [T= Q\n"
            "assert not Q [T= P\n"
            "assert P :[deadlock free]\n"
        )
        store = tmp_path / "verdicts"
        argv = [str(path), "--result-cache", str(store), "--stats"]
        assert cspcheck_main(argv) == 0
        cold = capsys.readouterr()
        assert cspcheck_main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "stat result_hits: 3\n" in warm.err
        assert "stat result_misses: 0\n" in warm.err
        with closing(sqlite3.connect(str(store / "results.sqlite3"))) as db:
            keys = [key for (key,) in db.execute("SELECT key FROM results")]
        digests = {
            "negated" if json.loads(key).get("negated") else json.loads(key)["kind"]:
            hashlib.sha256(key.encode("utf-8")).hexdigest()
            for key in keys
        }
        assert digests == {
            "refinement": "253555dae25c6a2a8f45bd455ed0da4dedcc01ceabdfe6f061f442569d7a7b9c",
            "negated": "740fa693a0ffa79587d930ffcf2e2b56e3fc8784763137f7429537bce4810a15",
            "property": "71cd5eedaf6175878ff8a4eae281372fc45cdc5c26c59e30f06cfd79d149578f",
        }

    @pytest.mark.parametrize("mode", [[], ["--eager"]], ids=["lazy", "eager"])
    def test_recursion_through_hiding_is_an_error_on_each_line(
        self, tmp_path, capsys, shallow_stack, mode
    ):
        path = tmp_path / "runaway.csp"
        path.write_text(RUNAWAY_HIDING_SCRIPT)
        outputs = []
        for headroom in (120, 160):
            with shallow_stack(headroom):
                assert cspcheck_main([str(path)] + mode) == 1
            outputs.append(capsys.readouterr())
        error = "ERROR -- TermNestingExceeded: {}".format(TermNestingExceeded())
        assert outputs[0].out.splitlines() == [
            "P :[divergence free]: " + error,
            "STOP [T= P: " + error,
            "0/2 assertions passed",
        ]
        assert "Traceback" not in outputs[0].err
        # where the stack runs out does not show
        assert outputs[1].out == outputs[0].out

    def test_two_state_tau_cycle_is_a_divergence(self, tmp_path, capsys):
        path = tmp_path / "livelock.csp"
        path.write_text(
            "channel a, b\n"
            "Q = a -> b -> Q\n"
            "P = Q \\ {a, b}\n"
            "assert P :[divergence free]\n"
            "assert STOP [FD= P\n"
        )
        assert cspcheck_main([str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "P :[divergence free]: FAILED (2 states, 2 transitions explored)",
            "  divergence (livelock) reachable after <>",
            "STOP [FD= P: FAILED (1 states, 0 transitions explored)",
            "  divergence (livelock) reachable after <>",
            "0/2 assertions passed",
        ]

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
