"""Fault injection: a broken job fails alone, the batch completes.

These tests drive the executor through its whole failure taxonomy with
``selftest`` specs -- a worker that raises, one that sleeps past its
deadline, one that ``os._exit``\\ s mid-job (the segfault stand-in: no
teardown, no result on the pipe) -- and assert the siblings' results are
untouched.
"""

import threading
import time

import pytest

from repro.batch import CheckSpec, run_batch
from repro.obs.trace import Tracer


def test_mixed_faults_isolate_per_job():
    specs = [
        CheckSpec.selftest("pass", check_id="ok-head"),
        CheckSpec.selftest("raise", check_id="raiser"),
        CheckSpec.selftest("sleep:30", check_id="sleeper"),
        CheckSpec.selftest("exit:3", check_id="crasher"),
        CheckSpec.selftest("pass", check_id="ok-tail"),
    ]
    report = run_batch(specs, jobs=2, timeout=0.5)
    verdicts = {r.check_id: r.verdict for r in report.results}
    assert verdicts == {
        "ok-head": "PASS",
        "raiser": "ERROR",
        "sleeper": "TIMEOUT",
        "crasher": "ERROR",
        "ok-tail": "PASS",
    }
    by_id = {r.check_id: r for r in report.results}
    assert "RuntimeError" in by_id["raiser"].error
    assert "timeout" in by_id["sleeper"].error
    assert "exited with code 3" in by_id["crasher"].error
    assert not report.ok
    assert report.counts() == {"PASS": 2, "ERROR": 2, "TIMEOUT": 1}


def test_timeout_terminates_promptly():
    specs = [CheckSpec.selftest("sleep:30", check_id="s")]
    started = time.perf_counter()
    report = run_batch(specs, jobs=1, timeout=0.3)
    elapsed = time.perf_counter() - started
    assert report.results[0].verdict == "TIMEOUT"
    assert elapsed < 10.0  # terminated, not joined to completion


def test_crash_with_exit_code_zero_is_still_an_error():
    # a worker that exits "successfully" without reporting still failed its job
    report = run_batch([CheckSpec.selftest("exit:0", check_id="z")], jobs=1)
    assert report.results[0].verdict == "ERROR"
    assert "exited with code 0" in report.results[0].error


def test_batch_timeout_cancels_the_remainder():
    specs = [CheckSpec.selftest("sleep:30", check_id=str(i)) for i in range(4)]
    started = time.perf_counter()
    report = run_batch(specs, jobs=2, batch_timeout=0.4)
    assert time.perf_counter() - started < 10.0
    assert [r.verdict for r in report.results] == ["CANCELLED"] * 4
    assert all(r.error == "batch cancelled" for r in report.results)


def test_external_cancellation_event():
    cancel = threading.Event()
    specs = [CheckSpec.selftest("sleep:30", check_id=str(i)) for i in range(3)]
    timer = threading.Timer(0.2, cancel.set)
    timer.start()
    try:
        report = run_batch(specs, jobs=2, timeout=60, cancel=cancel)
    finally:
        timer.cancel()
    assert [r.verdict for r in report.results] == ["CANCELLED"] * 3


def test_cancellation_applies_inline_too():
    cancel = threading.Event()
    cancel.set()
    report = run_batch([CheckSpec.selftest("pass", check_id="x")], inline=True, cancel=cancel)
    assert report.results[0].verdict == "CANCELLED"


def test_faults_do_not_poison_later_jobs_on_the_same_slot():
    # jobs=1 forces every job through the same slot, one after another;
    # a crash in the middle must not break the scheduler's reuse of it
    specs = [
        CheckSpec.selftest("exit:9", check_id="boom"),
        CheckSpec.selftest("pass", check_id="after-1"),
        CheckSpec.selftest("raise", check_id="boom-2"),
        CheckSpec.selftest("pass", check_id="after-2"),
    ]
    report = run_batch(specs, jobs=1, timeout=30)
    assert [r.verdict for r in report.results] == ["ERROR", "PASS", "ERROR", "PASS"]


# -- faults inside a chunk -----------------------------------------------------


def cheap(label):
    """A cheap check under its own name: distinct names never coalesce."""
    return CheckSpec.selftest("pass", check_id=label, name=label)


#: runs alone on the one worker (no execution time is measured yet) while
#: the rest of the batch queues behind it
BLOCKER = CheckSpec.selftest("sleep:0.3", check_id="blocker")


@pytest.mark.parametrize(
    "op, verdict, error, lost",
    [
        ("raise", "ERROR", "RuntimeError", 0),
        ("exit:4", "ERROR", "exited with code 4", 1),
        ("sleep:30", "TIMEOUT", "0.5s timeout", 1),
    ],
)
def test_a_fault_mid_chunk_fails_alone(chunk_by_share, op, verdict, error, lost):
    before = [cheap("before-{}".format(i)) for i in range(5)]
    after = [cheap("after-{}".format(i)) for i in range(chunk_by_share - 6)]
    fault = CheckSpec.selftest(op, check_id="fault")
    tracer = Tracer()
    report = run_batch(
        [BLOCKER] + before + [fault] + after, jobs=1, timeout=0.5, obs=tracer
    )
    faulted = report.results[1 + len(before)]
    assert (faulted.check_id, faulted.verdict) == ("fault", verdict)
    assert error in faulted.error
    siblings = [r for r in report.results if r is not faulted]
    assert [r.verdict for r in siblings] == ["PASS"] * len(siblings)
    metrics = tracer.metrics
    # the blocker, the chunk, and the requeued rest after a lost worker
    assert metrics.counter("server.dispatches").value == 2 + lost
    assert metrics.counter("server.executions").value == len(report.results)
    assert metrics.counter("server.worker_restarts").value == lost


def test_batch_timeout_cancels_every_chunk_member(chunk_by_share):
    stuck = CheckSpec.selftest("sleep:30", check_id="stuck")
    behind = [cheap("behind-{}".format(i)) for i in range(4)]
    tracer = Tracer()
    report = run_batch([BLOCKER, stuck] + behind, jobs=1, batch_timeout=2.0, obs=tracer)
    assert [r.verdict for r in report.results] == ["PASS"] + ["CANCELLED"] * 5
    assert all(r.error == "batch cancelled" for r in report.results[1:])
    # the five were one message on the worker when the deadline fired
    assert tracer.metrics.counter("server.dispatches").value == 2
