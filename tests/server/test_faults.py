"""Fault injection: one request fails alone, the daemon keeps serving.

The matrix from the executor's fault taxonomy, replayed against the warm
pool: a worker that ``os._exit``\\ s mid-request, a request that overruns
its deadline, malformed and oversize submissions, and a disk cache entry
corrupted between requests.  Every one must resolve exactly one request
with ``ERROR``/``TIMEOUT`` (or a deterministic rejection) while later
requests on the same daemon still verify normally.
"""

import os
import time

import pytest

from repro.batch import CheckSpec
from repro.csp.events import Event
from repro.csp.process import Prefix, Stop
from repro.exec.runtime import execute_spec
from repro.server.protocol import BAD_REQUEST, OVERSIZE, Rejection

from .conftest import wait_until

A, B = Event("a"), Event("b")


def selftest(op, check_id, **options):
    return CheckSpec.selftest(op, check_id=check_id, **options).to_doc()


def cached_refinement():
    good = Prefix(A, Prefix(B, Stop()))
    return CheckSpec.refinement(good, good, "T", check_id="cached")


def test_worker_crash_errors_that_request_only(make_server):
    server = make_server(workers=2)
    sibling = server.submit(selftest("sleep:1", "sibling"))
    crasher = server.submit(selftest("exit:3", "crasher"))
    crashed = crasher.result(timeout=60)
    assert crashed.verdict == "ERROR"
    assert "worker exited with code 3" in crashed.error
    # the sibling in flight on the other worker is untouched
    assert sibling.result(timeout=60).verdict == "PASS"
    # the pool healed: the replacement worker serves the next request
    assert server.submit(selftest("pass", "after")).result(timeout=60).verdict == "PASS"
    assert server.metrics.counter("server.worker_restarts").value == 1


def test_crash_with_exit_code_zero_is_still_an_error(make_server):
    server = make_server(workers=1)
    result = server.submit(selftest("exit:0", "z")).result(timeout=60)
    assert result.verdict == "ERROR"
    assert "exited with code 0" in result.error


def test_crash_fails_every_coalesced_ticket(make_server):
    server = make_server(workers=1)
    server.submit(selftest("sleep:0.75", "blk"))
    # two requesters share the doomed execution; both must see the ERROR
    one = server.submit(selftest("exit:5", "boom"), request_id="r1")
    two = server.submit(selftest("exit:5", "boom"), request_id="r2")
    assert server.metrics.counter("server.dedup_hits").value == 1
    for ticket in (one, two):
        result = ticket.result(timeout=60)
        assert result.verdict == "ERROR"
        assert "worker exited with code 5" in result.error


def test_timeout_terminates_promptly_and_alone(make_server):
    server = make_server(workers=2)
    started = time.perf_counter()
    slow = server.submit(selftest("sleep:30", "slow"), timeout=0.3)
    quick = server.submit(selftest("pass", "quick"))
    timed_out = slow.result(timeout=60)
    assert time.perf_counter() - started < 10.0
    assert timed_out.verdict == "TIMEOUT"
    assert "0.3s timeout" in timed_out.error
    assert quick.result(timeout=60).verdict == "PASS"
    # the killed worker was replaced; the daemon still serves
    assert server.submit(selftest("pass", "after")).result(timeout=60).verdict == "PASS"


def test_malformed_spec_rejects_without_harm(make_server):
    server = make_server(workers=1)
    with pytest.raises(Rejection) as excinfo:
        server.submit({"kind": "refinement", "model": "T", "spec": 7, "impl": 8})
    assert excinfo.value.code == BAD_REQUEST
    assert server.submit(selftest("pass", "ok")).result(timeout=60).verdict == "PASS"


def test_deep_spec_does_not_stall_the_scheduler(make_server, deep_property_spec):
    # a 700-deep document is too deep to pickle; it crosses as JSON text
    server = make_server(workers=1)
    deep = server.submit(deep_property_spec(700).to_doc()).result(timeout=60)
    assert deep.verdict == "ERROR"
    assert server.submit(selftest("pass", "after")).result(timeout=60).verdict == "PASS"


def test_every_nesting_depth_gets_a_typed_answer(make_server, tmp_path, nested_term_doc):
    # near the recursion limit a spec can decode yet fail to re-encode a
    # few frames further down (the key, the result-cache probe); admission
    # must turn that into a rejection too, never an exception
    server = make_server(
        workers=1, queue_limit=200, result_cache_dir=str(tmp_path / "rc")
    )
    codes = set()
    for depth in range(900, 1050):
        doc = {"kind": "property", "property": "deadlock free", "term": nested_term_doc(depth)}
        try:
            server.submit(doc)
            codes.add("admitted")
        except Rejection as rejection:
            codes.add(rejection.code)
    assert codes == {"admitted", BAD_REQUEST}
    server.close(drain=False)


def test_oversize_spec_rejects_without_harm(make_server):
    server = make_server(workers=1, max_request_bytes=150)
    with pytest.raises(Rejection) as excinfo:
        server.submit(selftest("pass", "big", name="y" * 1000))
    assert excinfo.value.code == OVERSIZE
    assert server.submit(selftest("pass", "ok")).result(timeout=60).verdict == "PASS"


def test_corrupted_cache_entry_mid_session(make_server, tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = cached_refinement()
    reference = execute_spec(spec)
    server = make_server(workers=1, cache_dir=cache_dir)
    cold = server.submit(spec.to_doc()).result(timeout=120)
    assert cold.canonical() == reference.canonical()
    entries = [name for name in os.listdir(cache_dir) if name.endswith(".ltsb")]
    assert entries, "the first request should persist cache entries"
    # vandalise every entry while the daemon is live; the next request for
    # the same check must quarantine, recompile and agree byte-for-byte
    for name in entries:
        with open(os.path.join(cache_dir, name), "wb") as handle:
            handle.write(b"garbage")
    warm = server.submit(spec.to_doc()).result(timeout=120)
    assert warm.canonical() == reference.canonical()
    assert server.submit(selftest("pass", "after")).result(timeout=60).verdict == "PASS"


def test_drain_finishes_inflight_work(make_server):
    server = make_server(workers=1)
    ticket = server.submit(selftest("sleep:0.5", "inflight"))
    wait_until(lambda: server.stats()["busy_workers"] == 1)
    server.close(drain=True)
    assert server.state == "closed"
    # the drain waited the sleep out rather than cancelling it
    assert ticket.result(timeout=1).verdict == "PASS"


def test_drain_deadline_force_cancels_stragglers(make_server):
    server = make_server(workers=1)
    ticket = server.submit(selftest("sleep:30", "straggler"))
    wait_until(lambda: server.stats()["busy_workers"] == 1)
    started = time.perf_counter()
    server.close(drain=True, timeout=0.5)
    assert time.perf_counter() - started < 10.0
    result = ticket.result(timeout=1)
    assert result.verdict == "CANCELLED"
    assert result.error == "server closed"
    assert server.state == "closed"


def test_cancel_resolves_queued_work_too(make_server):
    server = make_server(workers=1)
    server.submit(selftest("sleep:30", "running"))
    wait_until(lambda: server.stats()["busy_workers"] == 1)
    queued = server.submit(selftest("pass", "queued"))
    server.close(drain=False)
    # never silence: even never-dispatched work gets a CANCELLED response
    assert queued.result(timeout=1).verdict == "CANCELLED"


# -- chunked dispatch ----------------------------------------------------------


def cheap(label):
    """A cheap check under its own name: distinct names never coalesce."""
    return selftest("pass", label, name=label)


def counted(server, name):
    return server.metrics.counter(name).value


def line_up(server, docs, timeout=None):
    """Queue *docs* behind a blocker on a one-worker server.

    A first check measures an execution time and the blocker occupies the
    worker while every doc queues, so the freed worker takes the docs in
    one message (up to the chunk cap).  That makes three dispatches and
    ``2 + len(docs)`` executions once the chunk is sent.
    """
    assert server.submit(cheap("warm")).result(timeout=60).verdict == "PASS"
    server.submit(selftest("sleep:0.3", "blocker"))
    wait_until(lambda: server.stats()["busy_workers"] == 1)
    return [server.submit(doc, timeout=timeout) for doc in docs]


@pytest.mark.parametrize(
    "op, verdict, error, restarts",
    [
        ("raise", "ERROR", "RuntimeError: injected worker exception", 0),
        ("exit:3", "ERROR", "worker exited with code 3", 1),
        ("sleep:30", "TIMEOUT", "request exceeded 0.5s timeout", 1),
    ],
)
def test_a_fault_mid_chunk_fails_alone(
    make_server, chunk_by_share, op, verdict, error, restarts
):
    server = make_server(workers=1)
    before = [cheap("before-{}".format(i)) for i in range(5)]
    after = [cheap("after-{}".format(i)) for i in range(chunk_by_share - 6)]
    tickets = line_up(server, before + [selftest(op, "fault")] + after, timeout=0.5)
    started = time.perf_counter()
    results = [ticket.result(timeout=60) for ticket in tickets]
    assert time.perf_counter() - started < 10.0
    faulted = results[len(before)]
    assert (faulted.check_id, faulted.verdict) == ("fault", verdict)
    assert error in faulted.error
    siblings = results[: len(before)] + results[len(before) + 1 :]
    assert [(r.check_id, r.verdict) for r in siblings] == [
        (doc["id"], "PASS") for doc in before + after
    ]
    assert counted(server, "server.worker_restarts") == restarts
    # one chunk, plus one more message for the requeued rest after a lost
    # worker; a requeued execution still counts once
    assert counted(server, "server.dispatches") == 3 + restarts
    assert counted(server, "server.executions") == 2 + len(tickets)
    if restarts:
        assert {r.worker_pid for r in results[len(before) + 1 :]}.isdisjoint(
            r.worker_pid for r in results[: len(before)]
        )


def test_each_chunk_member_has_its_own_deadline(make_server, chunk_by_share):
    # 0.9 s of sleeps in one message, each well inside its own 0.5 s
    server = make_server(workers=1)
    naps = [
        selftest("sleep:0.3", "nap-{}".format(i), name="nap-{}".format(i))
        for i in range(3)
    ]
    tickets = line_up(server, [cheap("head")] + naps + [cheap("tail")], timeout=0.5)
    results = [ticket.result(timeout=60) for ticket in tickets]
    assert [r.verdict for r in results] == ["PASS"] * 5
    assert counted(server, "server.dispatches") == 3
    assert counted(server, "server.worker_restarts") == 0


@pytest.mark.parametrize(
    "close",
    [{"drain": False}, {"drain": True, "timeout": 0.5}],
    ids=["cancel", "drain-deadline"],
)
def test_closing_cancels_every_chunk_member(make_server, chunk_by_share, close):
    server = make_server(workers=1)
    stuck = selftest("sleep:30", "stuck")
    docs = [stuck] + [cheap("behind-{}".format(i)) for i in range(4)]
    tickets = line_up(server, docs)
    # the whole chunk is on the worker, none of it in the queue
    wait_until(lambda: counted(server, "server.dispatches") == 3)
    assert server.stats()["pending"] == 0
    server.close(**close)
    results = [ticket.result(timeout=1) for ticket in tickets]
    assert [(r.verdict, r.error) for r in results] == [
        ("CANCELLED", "server closed")
    ] * 5


def test_drain_finishes_every_chunk_member(make_server, chunk_by_share):
    server = make_server(workers=1)
    nap = selftest("sleep:0.2", "nap", name="nap")
    docs = [nap] + [cheap("rest-{}".format(i)) for i in range(3)]
    tickets = line_up(server, docs)
    wait_until(lambda: counted(server, "server.dispatches") == 3)
    server.close(drain=True)
    assert [ticket.result(timeout=1).verdict for ticket in tickets] == ["PASS"] * 4
