"""The batch executor: sequential reference, pooled runs, determinism."""

import collections
import importlib.util
import os
import pathlib

import pytest

from repro import api
from repro.batch import (
    CheckSpec,
    load_manifest,
    requirement_specs,
    run_batch,
)
from repro.csp.events import Event
from repro.csp.process import Prefix, ProcessRef, Stop
from repro.exec.runtime import execute_spec
from repro.obs.trace import Tracer
from repro.rv.cli import load_rv_manifest, specs_from_manifest
from repro.rv.fleetgen import write_fleet
from repro.server import core

A, B, C = Event("a"), Event("b"), Event("c")

ROOT = pathlib.Path(__file__).resolve().parents[2]


def mixed_specs():
    good = Prefix(A, Prefix(B, Stop()))
    bad = Prefix(A, Prefix(C, Stop()))
    return [
        CheckSpec.refinement(good, good, "T", check_id="refine-pass"),
        CheckSpec.refinement(good, bad, "T", check_id="refine-fail"),
        CheckSpec.refinement(good, bad, "F", check_id="refine-fail-F"),
        CheckSpec.property_check(
            ProcessRef("LOOP"),
            "deadlock free",
            check_id="prop-pass",
            bindings={"LOOP": Prefix(A, ProcessRef("LOOP"))},
        ),
        CheckSpec.property_check(Prefix(A, Stop()), "deadlock free", check_id="prop-fail"),
        CheckSpec.requirement("R02"),
        CheckSpec.selftest("pass", check_id="self-pass"),
        CheckSpec.selftest("fail", check_id="self-fail"),
    ]


EXPECTED = [
    ("refine-pass", "PASS"),
    ("refine-fail", "FAIL"),
    ("refine-fail-F", "FAIL"),
    ("prop-pass", "PASS"),
    ("prop-fail", "FAIL"),
    ("R02", "PASS"),
    ("self-pass", "PASS"),
    ("self-fail", "FAIL"),
]


def canonical(report):
    return [result.canonical_line() for result in report.results]


class TestExecuteSpec:
    def test_verdicts_match_the_direct_api(self):
        results = [execute_spec(spec, i) for i, spec in enumerate(mixed_specs())]
        assert [(r.check_id, r.verdict) for r in results] == EXPECTED

    def test_failing_refinement_carries_the_counterexample(self):
        result = execute_spec(mixed_specs()[1])
        assert result.counterexample["kind"] == "trace"
        assert result.counterexample["trace"] == ["a"]
        assert "description" in result.counterexample
        assert result.states_explored > 0

    def test_counterexample_agrees_with_direct_check(self):
        spec = mixed_specs()[1]
        direct = api.check_refinement(spec.spec, spec.impl, "T")
        batched = execute_spec(spec)
        assert batched.counterexample["trace"] == [
            str(event) for event in direct.counterexample.trace
        ]
        assert batched.states_explored == direct.states_explored

    def test_exception_becomes_error_verdict(self):
        broken = CheckSpec.property_check(Prefix(A, Stop()), "deadlock free")
        broken.property_name = "no such property"
        result = execute_spec(broken, 4)
        assert result.verdict == "ERROR"
        assert "ValueError" in result.error
        assert result.index == 4

    def test_requirement_spec_runs_table_iii(self):
        result = execute_spec(CheckSpec.requirement("R01"))
        assert result.verdict == "PASS"
        assert result.check_id == "R01"

    def test_profile_attached_when_requested(self):
        result = execute_spec(mixed_specs()[0], profile=True)
        assert result.profile is not None
        assert result.profile["total_ms"] >= 0.0
        assert execute_spec(mixed_specs()[0]).profile is None


class TestRunBatchInline:
    def test_inline_matches_sequential_reference(self):
        specs = mixed_specs()
        report = run_batch(specs, inline=True)
        reference = [
            execute_spec(spec, i).canonical_line() for i, spec in enumerate(specs)
        ]
        assert canonical(report) == reference
        assert not report.ok
        assert report.counts() == {"PASS": 4, "FAIL": 4}

    def test_empty_batch(self):
        report = run_batch([], inline=True)
        assert report.results == []
        assert report.ok
        assert "0 jobs" in report.summary()


class TestRunBatchPooled:
    def test_pooled_results_are_byte_identical_to_inline(self):
        specs = mixed_specs()
        inline = run_batch(specs, inline=True)
        pooled = run_batch(specs, jobs=2, timeout=120)
        assert canonical(pooled) == canonical(inline)

    def test_tuple_valued_fields_cross_the_pipe(self):
        sent = Event("send", (("enc", "k1", "m"),))
        specs = [
            CheckSpec.property_check(Prefix(sent, Stop()), "deadlock free"),
            CheckSpec.trace_check(Prefix(sent, Stop()), [sent], check_id="t"),
        ]
        inline = run_batch(specs, jobs=0)
        pooled = run_batch(specs, jobs=2, timeout=120)
        assert canonical(pooled) == canonical(inline)
        assert [r.verdict for r in pooled.results] == ["FAIL", "PASS"]
        assert "send.(enc, k1, m)" in pooled.results[0].counterexample["description"]

    def test_results_come_back_in_input_order(self):
        # unequal job durations force out-of-order completion
        specs = [
            CheckSpec.selftest("sleep:0.3", check_id="slow"),
            CheckSpec.selftest("pass", check_id="fast-1"),
            CheckSpec.selftest("sleep:0.1", check_id="medium"),
            CheckSpec.selftest("pass", check_id="fast-2"),
        ]
        report = run_batch(specs, jobs=4, timeout=30)
        assert [r.check_id for r in report.results] == [
            "slow",
            "fast-1",
            "medium",
            "fast-2",
        ]
        assert all(r.verdict == "PASS" for r in report.results)

    def test_workers_really_are_separate_processes(self):
        # different ops: identical specs would coalesce onto one execution
        specs = [
            CheckSpec.selftest("sleep:0.05", check_id="0"),
            CheckSpec.selftest("sleep:0.06", check_id="1"),
        ]
        report = run_batch(specs, jobs=2, timeout=30)
        pids = {r.worker_pid for r in report.results}
        assert os.getpid() not in pids
        assert len(pids) == 2

    def test_identical_specs_share_one_execution(self):
        tracer = Tracer()
        specs = [
            CheckSpec.selftest("sleep:0.3", check_id=check_id)
            for check_id in ("a", "b", "c")
        ]
        report = run_batch(specs, jobs=2, timeout=30, obs=tracer)
        assert tracer.metrics.counter("server.executions").value == 1
        assert tracer.metrics.counter("server.dedup_hits").value == 2
        assert len({r.worker_pid for r in report.results}) == 1
        assert [(r.check_id, r.index, r.verdict) for r in report.results] == [
            ("a", 0, "PASS"),
            ("b", 1, "PASS"),
            ("c", 2, "PASS"),
        ]

    def test_spec_too_deep_to_pickle_fails_alone(self, deep_property_spec):
        specs = [
            deep_property_spec(700),
            CheckSpec.selftest("pass", check_id="after"),
        ]
        report = run_batch(specs, jobs=2, timeout=60)
        assert [(r.check_id, r.verdict) for r in report.results] == [
            ("deep", "ERROR"),
            ("after", "PASS"),
        ]

    def test_spec_the_pool_cannot_decode_fails_alone(self):
        # an empty selftest op survives to_doc but not from_doc
        specs = [
            CheckSpec.selftest("", check_id="empty"),
            CheckSpec.selftest("pass", check_id="after"),
        ]
        report = run_batch(specs, jobs=1, timeout=30)
        assert [(r.check_id, r.verdict) for r in report.results] == [
            ("empty", "ERROR"),
            ("after", "PASS"),
        ]
        assert "undecodable spec" in report.results[0].error

    def test_profiles_merge_across_workers(self):
        specs = mixed_specs()[:3]
        report = run_batch(specs, jobs=2, timeout=120, obs=Tracer())
        assert report.profile is not None
        assert report.profile.total_ms > 0.0
        # merged total is aggregate compute, bounded below by any member
        member_totals = [
            r.profile["total_ms"] for r in report.results if r.profile
        ]
        assert len(member_totals) == 3
        assert report.profile.total_ms == pytest.approx(sum(member_totals))


@pytest.fixture(scope="module")
def cheap_mix(tmp_path_factory):
    """210 sub-millisecond checks: fleet trace specs plus the conformance corpus."""
    directory = str(tmp_path_factory.mktemp("fleet"))
    manifest = write_fleet(directory, 180, seed=7, fault_rate=0.2)
    specs = specs_from_manifest(load_rv_manifest(manifest), directory)
    return specs + load_manifest(str(ROOT / "tests" / "conformance" / "manifest.json"))


def named(op, label, i):
    """A selftest under its own name: distinct names never coalesce."""
    label = "{}-{}".format(label, i)
    return CheckSpec.selftest(op, check_id=label, name=label)


def bench_batch_specs():
    """The heavy batch ``benchmarks/test_bench_batch.py`` times."""
    path = ROOT / "benchmarks" / "test_bench_batch.py"
    spec = importlib.util.spec_from_file_location("bench_batch", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.batch_specs()


class TestChunkedDispatch:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_cheap_checks_share_messages(self, cheap_mix, jobs):
        tracer = Tracer()
        pooled = run_batch(cheap_mix, jobs=jobs, timeout=120, obs=tracer)
        assert canonical(pooled) == canonical(run_batch(cheap_mix, inline=True))
        executions = tracer.metrics.counter("server.executions").value
        dispatches = tracer.metrics.counter("server.dispatches").value
        assert executions >= 200
        assert dispatches * 2 <= executions

    @pytest.mark.parametrize(
        "head",
        [[], [CheckSpec.selftest("", check_id="empty")]],
        ids=["naps", "undecodable-first"],
    )
    def test_checks_longer_than_the_slice_go_one_per_message(self, head):
        # a sleep's time reads far above the slice on any host.  An
        # undecodable spec's ERROR never ran and carries no time: read as
        # a measured one, it would send the next free worker two sleeps
        specs = head + [named("sleep:0.2", "nap", i) for i in range(4)]
        tracer = Tracer()
        report = run_batch(specs, jobs=2, timeout=60, obs=tracer)
        verdicts = [r.verdict for r in report.results]
        assert verdicts == ["ERROR"] * len(head) + ["PASS"] * 4
        metrics = tracer.metrics
        assert (
            metrics.counter("server.dispatches").value
            == metrics.counter("server.executions").value
            == len(specs)
        )

    @pytest.mark.parametrize(
        "slice_ms",
        [core._CHUNK_SLICE_MS, 4 * core._CHUNK_SLICE_MS, 1e9],
        ids=["slice", "4x-slice", "unbounded"],
    )
    def test_heavy_checks_spread_over_the_pool(self, monkeypatch, slice_ms):
        # the requirement checks at the head of the batch bench measure a
        # few milliseconds, so whether its heavy checks share a message
        # depends on the host: a longer slice stands in for a faster one,
        # and an unbounded slice for any.  Either way the pool share keeps
        # the busiest worker within what one-per-message list scheduling
        # guarantees, so the bench's 4-worker speedup holds
        monkeypatch.setattr(core, "_CHUNK_SLICE_MS", slice_ms)
        report = run_batch(bench_batch_specs(), jobs=4, timeout=300)
        assert report.ok
        busy = collections.Counter()
        for result in report.results:
            busy[result.worker_pid] += result.duration_ms
        durations = [result.duration_ms for result in report.results]
        assert len(busy) == 4
        assert max(busy.values()) <= sum(durations) / 4 + max(durations)

    def test_a_heavy_tail_after_a_cheap_head_spreads_over_the_pool(self):
        # the cheap head sets a sub-millisecond mean, so a worker that
        # frees up could take every sleep in one message; its share of
        # the queue leaves the other workers theirs
        head = [named("pass", "cheap", i) for i in range(100)]
        tail = [named("sleep:0.2", "nap", i) for i in range(8)]
        tracer = Tracer()
        report = run_batch(head + tail, jobs=4, timeout=60, obs=tracer)
        assert report.ok
        assert tracer.metrics.counter("server.dispatches").value < len(head)
        assert len({r.worker_pid for r in report.results[len(head) :]}) == 4


class TestVerifyRequirementsFacade:
    def test_all_requirements_pass_inline(self):
        report = api.verify_requirements()
        assert report.ok
        assert [r.check_id for r in report.results] == [
            "R01",
            "R02",
            "R03",
            "R04",
            "R05",
        ]

    def test_subset_and_parallel(self, tmp_path):
        report = api.verify_requirements(
            ["R02", "R01"], jobs=2, cache_dir=str(tmp_path)
        )
        assert report.ok
        assert [r.check_id for r in report.results] == ["R02", "R01"]

    def test_matches_requirement_specs_helper(self):
        assert [s.check_id for s in requirement_specs(["R04"])] == ["R04"]
