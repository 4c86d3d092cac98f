"""The streaming trace-membership checker."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.csp import Environment, Event, Prefix, STOP, ref
from repro.csp.lts import StateSpaceLimitExceeded
from repro.csp.process import Interleave
from repro.fdr import normalise
from repro.obs import Tracer
from repro.rv.check import (
    CONTEXT_WINDOW,
    SPEC_MEMO,
    SPEC_MEMO_ENTRIES,
    TraceChecker,
    TraceViolation,
    check_trace_membership,
)

A, B, C, D = Event("a"), Event("b"), Event("c"), Event("d")


def loop_env():
    """AB = a -> b -> AB"""
    env = Environment()
    env.bind("AB", Prefix(A, Prefix(B, ref("AB"))))
    return env


def linear(trace):
    """e1 -> ... -> en -> STOP"""
    impl = STOP
    for event in reversed(trace):
        impl = Prefix(event, impl)
    return impl


class TestTraceChecker:
    def norm(self, term, env):
        from repro.csp.lts import compile_lts

        return normalise(compile_lts(term, env))

    def test_accepts_member_traces(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        for event in (A, B, A, B, A):
            assert checker.advance(event)
        assert not checker.failed
        assert checker.violation is None

    def test_prefixes_accepted(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert not checker.failed  # the empty trace is always a member

    def test_rejects_at_first_bad_event(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert checker.advance(A)
        assert not checker.advance(A, line=12)
        assert checker.failed
        violation = checker.violation
        assert isinstance(violation, TraceViolation)
        assert violation.position == 1
        assert violation.forbidden == A
        assert violation.line == 12
        assert violation.trace == (A,)

    def test_unknown_event_rejected(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert not checker.advance(C)  # c is outside the spec's alphabet

    def test_latched_after_violation(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        checker.advance(B)
        first = checker.violation
        assert not checker.advance(A)  # stays failed; violation unchanged
        assert checker.violation is first

    def test_context_window_bounded(self):
        # a period of 3 (not 2) so that keeping the wrong event changes
        # the window: it holds the last CONTEXT_WINDOW accepted events
        env = Environment()
        env.bind("ABC", Prefix(A, Prefix(B, Prefix(C, ref("ABC")))))
        checker = TraceChecker(self.norm(ref("ABC"), env))
        log = [A, B, C] * CONTEXT_WINDOW
        for event in log:
            assert checker.advance(event)
        checker.advance(D)
        assert len(checker.violation.trace) == CONTEXT_WINDOW
        assert checker.violation.trace == tuple(log[-CONTEXT_WINDOW:])

    def test_doc_fields(self):
        violation = TraceViolation((A,), B, 1, line=4)
        assert violation.doc_fields() == {
            "position": 1,
            "event": "b",
            "frame": {"line": 4},
        }
        assert TraceViolation((A,), B, 1).doc_fields() == {
            "position": 1,
            "event": "b",
        }


class TestCheckTraceMembership:
    def test_pass_and_fail(self):
        env = loop_env()
        assert check_trace_membership(ref("AB"), [A, B, A], env=env).passed
        result = check_trace_membership(ref("AB"), [A, A], env=env)
        assert not result.passed
        assert result.counterexample.position == 1

    def test_streams_a_generator(self):
        env = loop_env()

        def endless_violation():
            yield A
            yield B
            yield C  # violation found here; nothing further is drawn
            raise AssertionError("checker must stop at the violation")

        result = check_trace_membership(ref("AB"), endless_violation(), env=env)
        assert not result.passed
        assert result.counterexample.position == 2

    def test_lines_attach_provenance(self):
        env = loop_env()
        result = check_trace_membership(
            ref("AB"), [A, C], env=env, lines=[10, 20]
        )
        assert result.counterexample.line == 20
        assert "log line 20" in result.counterexample.describe()

    def test_agrees_with_refinement_on_linear_traces(self):
        # membership of <e1..en> in SPEC must equal SPEC [T= e1->..->en->STOP
        env = loop_env()
        for trace in ([], [A], [A, B], [B], [A, B, A], [A, A], [A, B, B]):
            refine = api.check_refinement(ref("AB"), linear(trace), "T", env=env)
            member = check_trace_membership(ref("AB"), trace, env=env)
            assert refine.passed == member.passed, trace

    def test_api_check_trace_routes_here(self):
        env = loop_env()
        result = api.check_trace(ref("AB"), [A, B], env=env, name="via api")
        assert result.passed
        assert result.name == "via api"

    def test_default_label_and_counters(self):
        env = loop_env()
        result = check_trace_membership(ref("AB"), [A, B, A], env=env)
        assert "trace membership" in result.name
        assert result.states_explored == 4  # initial node + 3 events
        assert result.transitions_explored == 3


# -- the per-process spec memo ----------------------------------------------------


def counts(tracer):
    metrics = tracer.metrics
    return (
        metrics.counter("cache.trace_spec_misses").value,
        metrics.counter("cache.trace_spec_hits").value,
    )


def interleaved_env():
    """SYS = AB ||| CD: a composed spec, so the plan compresses components."""
    env = loop_env()
    env.bind("CD", Prefix(C, Prefix(D, ref("CD"))))
    env.bind("SYS", Interleave(ref("AB"), ref("CD")))
    return env


@pytest.fixture
def memo():
    SPEC_MEMO.clear()
    yield SPEC_MEMO
    SPEC_MEMO.clear()


@pytest.fixture
def fast_switching():
    """Switch threads far more often, so races surface in a short run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def fleet_traces(count, seed):
    from repro.rv.fleetgen import generate_fleet
    from repro.rv.ingest import iter_records
    from repro.rv.mapping import EventMapping
    from repro.rv.specs import OTA_MAPPING_DOC, ota_database

    mapping = EventMapping.from_doc(ota_database(), OTA_MAPPING_DOC)
    for vehicle in generate_fleet(count, seed=seed, fault_rate=0.4):
        records = iter_records(vehicle.log.to_jsonl().splitlines())
        pairs = list(mapping.stream(records))
        yield vehicle, [event for event, _ in pairs], [line for _, line in pairs]


class TestSpecMemo:
    def test_a_fleet_builds_its_spec_once(self, memo):
        from repro.rv.specs import ota_session_spec

        tracer = Tracer()
        verdicts = []
        for vehicle, events, lines in fleet_traces(20, seed=5):
            spec, bindings = ota_session_spec()
            env = Environment()
            for bound, body in bindings.items():
                env.bind(bound, body)
            result = check_trace_membership(
                spec, events, env=env, lines=lines, obs=tracer
            )
            verdicts.append(result.passed)
            assert result.passed == (vehicle.fault is None)
        assert counts(tracer) == (1, 19)
        assert len(memo) == 1
        assert True in verdicts and False in verdicts

    def test_run_batch_matches_a_run_without_the_memo(
        self, memo, tmp_path, monkeypatch
    ):
        from repro.batch import run_batch
        from repro.rv import check as check_module
        from repro.rv.cli import load_rv_manifest, specs_from_manifest
        from repro.rv.fleetgen import write_fleet

        manifest = write_fleet(str(tmp_path / "fleet"), 20, seed=3, fault_rate=0.4)
        specs = specs_from_manifest(
            load_rv_manifest(manifest), str(tmp_path / "fleet")
        )
        shared = [r.canonical_line() for r in run_batch(specs, inline=True).results]
        assert len(memo) == 1

        original = check_module.check_trace_membership

        def cleared_first(*args, **kwargs):
            memo.clear()
            return original(*args, **kwargs)

        monkeypatch.setattr(check_module, "check_trace_membership", cleared_first)
        fresh = [r.canonical_line() for r in run_batch(specs, inline=True).results]
        assert shared == fresh
        verdicts = {json.loads(line)["verdict"] for line in shared}
        assert verdicts == {"PASS", "FAIL"}
        failing = [json.loads(line) for line in shared if '"FAIL"' in line]
        assert all("line" in doc["counterexample"]["frame"] for doc in failing)

    def test_rebinding_a_reachable_name_misses(self, memo):
        tracer = Tracer()
        env = loop_env()
        assert not check_trace_membership(ref("AB"), [A, A], env=env, obs=tracer)
        env.bind("AB", Prefix(A, ref("AB")))
        assert check_trace_membership(ref("AB"), [A, A], env=env, obs=tracer)
        assert counts(tracer) == (2, 0)

    def test_an_unrelated_binding_hits(self, memo):
        tracer = Tracer()
        env = loop_env()
        first = check_trace_membership(ref("AB"), [A, B], env=env, obs=tracer)
        env.bind("Other", Prefix(C, STOP))
        again = check_trace_membership(ref("AB"), [A, B], env=env, obs=tracer)
        assert first.passed and again.passed
        assert counts(tracer) == (1, 1)

    def test_passes_and_budget_are_in_the_key(self, memo):
        tracer = Tracer()
        env = interleaved_env()
        for passes, max_states in (
            ("default", 100),
            ("none", 100),
            ("default", 101),
            ("none", 100),
        ):
            check_trace_membership(
                ref("SYS"),
                [A, C],
                env=env,
                passes=passes,
                max_states=max_states,
                obs=tracer,
            )
        assert counts(tracer) == (3, 1)

    def test_name_events_lines_and_cache_are_not_in_the_key(self, memo):
        from repro.engine import CompilationCache

        tracer = Tracer()
        env = loop_env()
        check_trace_membership(ref("AB"), [A], env=env, obs=tracer)
        check_trace_membership(
            ref("AB"),
            [A, B, B],
            env=env,
            name="another",
            lines=[1, 2, 3],
            cache=CompilationCache(),
            obs=tracer,
        )
        assert counts(tracer) == (1, 1)

    def test_a_callers_cache_serves_only_misses(self, memo):
        from repro.engine import CompilationCache

        cache = CompilationCache()
        env = loop_env()
        check_trace_membership(ref("AB"), [A], env=env, cache=cache)
        assert cache.stats()["normalised_misses"] == 1
        check_trace_membership(ref("AB"), [A], env=env, cache=cache)
        assert cache.stats()["normalised_misses"] == 1
        assert cache.stats()["normalised_hits"] == 0

    def test_an_unbound_name_errors_alike_and_stores_nothing(self, memo):
        from repro.batch import CheckSpec
        from repro.exec.runtime import execute_spec

        spec = CheckSpec.trace_check(ref("Nope"), [A])
        first, second = execute_spec(spec), execute_spec(spec)
        assert first.verdict == second.verdict == "ERROR"
        assert first.error == second.error
        assert "undefined process 'Nope'" in first.error
        assert len(memo) == 0

    def test_an_exceeded_budget_is_never_stored(self, memo):
        env = loop_env()
        for _ in range(2):
            with pytest.raises(StateSpaceLimitExceeded):
                check_trace_membership(ref("AB"), [A], env=env, max_states=1)
            assert len(memo) == 0
        assert check_trace_membership(ref("AB"), [A], env=env, max_states=10)
        assert len(memo) == 1

    def test_a_hit_returns_what_the_miss_did(self, memo):
        tracer = Tracer()
        env = interleaved_env()
        for trace in ([A, C, B, D], [A, C, A], []):
            memo.clear()
            miss = check_trace_membership(
                ref("SYS"), trace, env=env, lines=[7, 8, 9, 10], obs=tracer
            )
            hit = check_trace_membership(
                ref("SYS"), trace, env=env, lines=[7, 8, 9, 10], obs=tracer
            )
            assert miss.passed == hit.passed
            assert miss.name == hit.name
            assert miss.states_explored == hit.states_explored
            assert miss.transitions_explored == hit.transitions_explored
            assert miss.pass_stats and miss.pass_stats == hit.pass_stats
            violations = (miss.counterexample, hit.counterexample)
            if violations[0] is None:
                assert violations[1] is None
            else:
                first, again = violations
                assert first.describe() == again.describe()
                assert first.doc_fields() == again.doc_fields()
                assert first.trace == again.trace
            assert {"plan", "normalise"} <= set(miss.profile.as_dict()["stages"])
            hit_stages = set(hit.profile.as_dict()["stages"])
            assert not hit_stages & {"plan", "compile", "normalise"}
        assert counts(tracer) == (3, 3)

    def test_least_recently_used_entries_are_evicted(self, memo):
        env = Environment()
        specs = [
            Prefix(Event("e{}".format(i)), STOP)
            for i in range(SPEC_MEMO_ENTRIES + 2)
        ]
        for spec in specs[:SPEC_MEMO_ENTRIES]:
            check_trace_membership(spec, [], env=env)
        check_trace_membership(specs[0], [], env=env)  # now the most recent
        for spec in specs[SPEC_MEMO_ENTRIES:]:
            check_trace_membership(spec, [], env=env)
        assert len(memo) == SPEC_MEMO_ENTRIES
        tracer = Tracer()
        for spec in [specs[0]] + specs[3:]:
            check_trace_membership(spec, [], env=env, obs=tracer)
        assert counts(tracer) == (0, SPEC_MEMO_ENTRIES)
        for spec in specs[1:3]:  # the two least recently used went first
            check_trace_membership(spec, [], env=env, obs=tracer)
        assert counts(tracer) == (2, SPEC_MEMO_ENTRIES)

    def test_threads_share_the_memo_safely(self, memo, fast_switching):
        env = interleaved_env()
        specs = [ref("AB"), ref("CD"), ref("SYS")]
        traces = [[A, B, A], [C, D, A], [A, C, B, D], [B]]
        jobs = [
            (specs[i % len(specs)], traces[i % len(traces)]) for i in range(50)
        ]
        expected = [
            check_trace_membership(spec, trace, env=env).passed
            for spec, trace in jobs
        ]
        memo.clear()

        def run():
            return [
                check_trace_membership(spec, trace, env=env).passed
                for spec, trace in jobs
            ]

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            outcomes = [future.result(timeout=60) for future in futures]
        assert outcomes == [expected] * 4
        assert len(memo) == len(specs)

    def test_threads_evicting_concurrently_keep_the_bound(
        self, memo, fast_switching
    ):
        # more specs than entries: every thread keeps evicting what the
        # others look up, so an unguarded move or pop would raise KeyError
        env = Environment()
        specs = [
            Prefix(Event("e{}".format(i)), STOP)
            for i in range(SPEC_MEMO_ENTRIES + 4)
        ]

        def run(offset):
            for step in range(100):
                spec = specs[(offset + step) % len(specs)]
                assert check_trace_membership(spec, [], env=env).passed

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, offset) for offset in (0, 5, 10, 15)]
            for future in futures:
                future.result(timeout=60)
        assert len(memo) == SPEC_MEMO_ENTRIES

    def test_agrees_with_refinement_across_hits(self, memo):
        env = interleaved_env()
        for trace in ([], [A], [A, C], [C, A, D, B], [A, A], [D], [A, C, B, B]):
            member = check_trace_membership(ref("SYS"), trace, env=env)
            refine = api.check_refinement(ref("SYS"), linear(trace), "T", env=env)
            assert member.passed == refine.passed, trace
        assert len(memo) == 1
