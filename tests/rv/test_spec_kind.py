"""``kind: "trace"`` as a first-class CheckSpec: wire format and runtime."""

import json

import pytest

from repro.batch.executor import run_batch
from repro.csp import Environment, Event, Prefix, STOP, ref
from repro.exec.resultcache import ResultCache
from repro.exec.runtime import execute_cached, execute_spec
from repro.exec.spec import CheckSpec, ManifestError
from repro.obs.metrics import Metrics

A, B, C = Event("a"), Event("b"), Event("c")
BINDINGS = {"AB": Prefix(A, Prefix(B, ref("AB")))}


def trace_spec(events, lines=None, check_id="log-1", **options):
    return CheckSpec.trace_check(
        ref("AB"),
        events,
        check_id=check_id,
        trace_lines=lines,
        bindings=BINDINGS,
        **options
    )


class TestWireFormat:
    def test_doc_round_trip(self):
        spec = trace_spec([A, B, A], lines=[2, 3, 5], name="membership")
        doc = spec.to_doc()
        assert doc["kind"] == "trace"
        assert [entry["line"] for entry in doc["trace"]] == [2, 3, 5]
        clone = CheckSpec.from_doc(doc)
        assert clone.kind == "trace"
        assert clone.trace == (A, B, A)
        assert clone.trace_lines == (2, 3, 5)
        assert clone.to_doc() == doc

    def test_doc_is_json_serialisable_and_self_contained(self):
        doc = trace_spec([A, B]).to_doc()
        rehydrated = CheckSpec.from_doc(json.loads(json.dumps(doc)))
        assert rehydrated.environment().resolve("AB") is not None

    def test_lines_omitted_when_absent(self):
        doc = trace_spec([A, B]).to_doc()
        assert all("line" not in entry for entry in doc["trace"])
        assert CheckSpec.from_doc(doc).trace_lines is None

    def test_misaligned_lines_rejected(self):
        with pytest.raises(ManifestError):
            trace_spec([A, B], lines=[1])

    def test_non_list_trace_rejected(self):
        doc = trace_spec([A]).to_doc()
        doc["trace"] = "a"
        with pytest.raises(ManifestError):
            CheckSpec.from_doc(doc)


class TestRuntime:
    def test_pass(self):
        result = execute_spec(trace_spec([A, B, A]))
        assert result.verdict == "PASS"
        assert result.check_id == "log-1"
        assert result.states_explored == 4

    def test_fail_carries_position_and_line(self):
        result = execute_spec(trace_spec([A, A], lines=[4, 9]))
        assert result.verdict == "FAIL"
        assert result.counterexample["kind"] == "trace"
        assert result.counterexample["position"] == 1
        assert result.counterexample["event"] == "a"
        assert result.counterexample["frame"] == {"line": 9}

    def test_error_on_undefined_spec(self):
        spec = CheckSpec.trace_check(ref("MISSING"), [A], check_id="bad")
        result = execute_spec(spec)
        assert result.verdict == "ERROR"

    def test_memoised(self, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        metrics = Metrics()
        spec = trace_spec([A, B])
        cold = execute_cached(spec, result_cache=cache, metrics=metrics)
        warm = execute_cached(spec, result_cache=cache, metrics=metrics)
        assert cold.canonical_line() == warm.canonical_line()
        assert metrics.counter("result_cache.hits").value == 1
        assert metrics.counter("result_cache.misses").value == 1

    def test_distinct_traces_do_not_collide_in_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        passing = execute_cached(trace_spec([A, B]), result_cache=cache)
        failing = execute_cached(trace_spec([B]), result_cache=cache)
        assert passing.verdict == "PASS"
        assert failing.verdict == "FAIL"

    def test_batch_matches_inline(self):
        specs = [
            trace_spec([A, B], check_id="log-a"),
            trace_spec([A, A], lines=[1, 2], check_id="log-b"),
            trace_spec([A, B, A, B], check_id="log-c"),
        ]
        inline = [execute_spec(spec, i) for i, spec in enumerate(specs)]
        pooled = run_batch(specs, jobs=2).results
        assert [r.canonical_line() for r in inline] == [
            r.canonical_line() for r in pooled
        ]
