"""The server core: admission, dedup, backpressure, quotas, lifecycle."""

import threading

import pytest

from repro.batch import CheckSpec, execute_spec
from repro.csp.events import Event
from repro.exec.resultcache import ResultCache
from repro.csp.process import Prefix, Stop
from repro.server import VerificationServer
from repro.server.protocol import (
    BAD_REQUEST,
    DRAINING,
    OVERSIZE,
    QUEUE_FULL,
    QUOTA,
    Rejection,
)

from .conftest import wait_until

A, B, C = Event("a"), Event("b"), Event("c")


def selftest(op, check_id, **options):
    return CheckSpec.selftest(op, check_id=check_id, **options).to_doc()


def failing_refinement(check_id="ref"):
    good = Prefix(A, Prefix(B, Stop()))
    bad = Prefix(A, Prefix(C, Stop()))
    return CheckSpec.refinement(good, bad, "T", check_id=check_id)


class TestRoundTrips:
    def test_selftest_passes(self, make_server):
        server = make_server(workers=1)
        result = server.submit(selftest("pass", "ok")).result(timeout=60)
        assert result.verdict == "PASS"
        assert result.check_id == "ok"

    def test_refinement_matches_the_sequential_reference(self, make_server):
        spec = failing_refinement()
        reference = execute_spec(spec)
        server = make_server(workers=1)
        result = server.submit(spec.to_doc()).result(timeout=60)
        assert result.canonical() == reference.canonical()
        assert result.verdict == "FAIL"
        assert result.counterexample["trace"] == ["a"]

    def test_ticket_carries_request_metadata(self, make_server):
        server = make_server(workers=1)
        ticket = server.submit(
            selftest("pass", "c9"), request_id="r9", index=4, tenant="ci"
        )
        response = ticket.wait(timeout=60)
        assert response["id"] == "r9"
        assert response["status"] == "ok"
        assert response["result"]["id"] == "c9"
        assert response["result"]["index"] == 4

    def test_completion_metrics(self, make_server):
        server = make_server(workers=1)
        server.submit(selftest("pass", "m")).result(timeout=60)
        counters = server.metrics
        assert counters.counter("server.requests").value == 1
        assert counters.counter("server.executions").value == 1
        assert counters.counter("server.completed").value == 1
        assert counters.counter("server.verdict.pass").value == 1
        assert counters.histogram("server.request_ms").count == 1


class TestDedup:
    def test_identical_inflight_requests_coalesce(self, make_server):
        server = make_server(workers=1)
        # the blocker owns the only worker, so both submissions below are
        # guaranteed to be in flight together and must share one execution
        blocker = server.submit(selftest("sleep:0.75", "blk"))
        first = server.submit(selftest("pass", "same"), request_id="r1", index=1)
        second = server.submit(selftest("pass", "same"), request_id="r2", index=2)
        assert server.metrics.counter("server.dedup_hits").value == 1
        responses = [first.wait(timeout=60), second.wait(timeout=60)]
        assert [r["id"] for r in responses] == ["r1", "r2"]
        assert [r["result"]["index"] for r in responses] == [1, 2]
        assert blocker.result(timeout=60).verdict == "PASS"
        # one execution for the blocker, one shared by the coalesced pair
        assert server.metrics.counter("server.executions").value == 2

    def test_coalesced_requests_are_relabelled(self, make_server):
        server = make_server(workers=1)
        server.submit(selftest("sleep:0.75", "blk"))
        # same check, different client-side ids: still one execution, but
        # each response wears its requester's own label
        mine = server.submit(selftest("pass", "mine"))
        theirs = server.submit(selftest("pass", "theirs"))
        assert server.metrics.counter("server.dedup_hits").value == 1
        assert mine.result(timeout=60).check_id == "mine"
        assert theirs.result(timeout=60).check_id == "theirs"

    def test_different_names_do_not_coalesce(self, make_server):
        server = make_server(workers=2)
        one = server.submit(selftest("pass", "x", name="first"))
        two = server.submit(selftest("pass", "x", name="second"))
        assert server.metrics.counter("server.dedup_hits").value == 0
        assert one.result(timeout=60).name == "first"
        assert two.result(timeout=60).name == "second"


class TestBackpressure:
    def test_fail_fast_rejects_when_the_queue_is_full(self, make_server):
        server = make_server(workers=1, queue_limit=1)
        server.submit(selftest("sleep:30", "blk"))
        wait_until(lambda: server.stats()["busy_workers"] == 1)
        server.submit(selftest("pass", "queued"))
        with pytest.raises(Rejection) as excinfo:
            server.submit(selftest("fail", "bounced"))
        assert excinfo.value.code == QUEUE_FULL
        assert excinfo.value.retryable
        assert server.metrics.counter("server.rejected.queue_full").value == 1

    def test_coalesced_requests_consume_no_queue_slot(self, make_server):
        server = make_server(workers=1, queue_limit=1)
        server.submit(selftest("sleep:30", "blk"))
        wait_until(lambda: server.stats()["busy_workers"] == 1)
        server.submit(selftest("pass", "queued"))
        # the queue is full, but an identical check rides the queued one
        ticket = server.submit(selftest("pass", "queued"))
        assert not ticket.done
        assert server.metrics.counter("server.dedup_hits").value == 1

    def test_blocking_submission_waits_for_capacity(self, make_server):
        server = make_server(workers=1, queue_limit=1)
        server.submit(selftest("sleep:0.5", "blk"))
        wait_until(lambda: server.stats()["busy_workers"] == 1)
        server.submit(selftest("pass", "queued"))
        # fail-fast would bounce here; blocking admission rides out the
        # backpressure and still gets its verdict
        ticket = server.submit(selftest("fail", "patient"), block=True)
        assert ticket.result(timeout=60).verdict == "FAIL"


class TestQuotas:
    def test_tenant_over_quota_is_rejected(self, make_server):
        server = make_server(workers=1, quota=1)
        server.submit(selftest("sleep:30", "blk"), tenant="alice")
        with pytest.raises(Rejection) as excinfo:
            server.submit(selftest("pass", "extra"), tenant="alice")
        assert excinfo.value.code == QUOTA
        assert excinfo.value.retryable
        assert server.metrics.counter("server.rejected.quota").value == 1

    def test_quota_is_per_tenant(self, make_server):
        server = make_server(workers=2, quota=1)
        server.submit(selftest("sleep:30", "blk"), tenant="alice")
        # bob's budget is his own
        ticket = server.submit(selftest("pass", "bobs"), tenant="bob")
        assert ticket.result(timeout=60).verdict == "PASS"

    def test_quota_frees_when_the_request_completes(self, make_server):
        server = make_server(workers=1, quota=1)
        server.submit(selftest("pass", "one"), tenant="t").result(timeout=60)
        ticket = server.submit(selftest("pass", "two"), tenant="t")
        assert ticket.result(timeout=60).verdict == "PASS"
        assert server.stats()["tenants"] == {}


class TestValidation:
    def test_bad_spec_is_rejected(self, make_server):
        server = make_server(workers=1)
        with pytest.raises(Rejection) as excinfo:
            server.submit({"kind": "bogus"})
        assert excinfo.value.code == BAD_REQUEST
        assert not excinfo.value.retryable

    def test_oversize_spec_is_rejected(self, make_server):
        server = make_server(workers=1, max_request_bytes=120)
        doc = selftest("pass", "big", name="x" * 500)
        with pytest.raises(Rejection) as excinfo:
            server.submit(doc)
        assert excinfo.value.code == OVERSIZE

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            VerificationServer(workers=0)
        with pytest.raises(ValueError):
            VerificationServer(queue_limit=0)
        with pytest.raises(ValueError):
            VerificationServer(quota=0)


class TestTimeouts:
    def test_default_timeout_applies_when_the_request_names_none(
        self, make_server
    ):
        server = make_server(workers=1, default_timeout=0.3)
        result = server.submit(selftest("sleep:30", "slow")).result(timeout=60)
        assert result.verdict == "TIMEOUT"
        assert "timeout" in result.error

    def test_max_timeout_clamps_the_request(self, make_server):
        server = make_server(workers=1, max_timeout=0.3)
        ticket = server.submit(selftest("sleep:30", "slow"), timeout=3600)
        assert ticket.result(timeout=60).verdict == "TIMEOUT"


class TestLifecycle:
    def test_start_twice_raises(self, make_server):
        server = make_server(workers=1)
        with pytest.raises(RuntimeError):
            server.start()

    def test_closed_server_rejects_submissions(self, make_server):
        server = make_server(workers=1)
        server.close(drain=True)
        with pytest.raises(Rejection) as excinfo:
            server.submit(selftest("pass", "late"))
        assert excinfo.value.code == DRAINING

    def test_context_manager_drains_on_exit(self):
        with VerificationServer(workers=1) as server:
            ticket = server.submit(selftest("pass", "cm"))
        assert server.state == "closed"
        assert ticket.result(timeout=1).verdict == "PASS"

    def test_close_before_start_is_clean(self):
        server = VerificationServer(workers=1)
        server.close()
        assert server.state == "closed"

    def test_stats_shape(self, make_server):
        server = make_server(workers=2, queue_limit=7, quota=3)
        snapshot = server.stats()
        assert snapshot["state"] == "running"
        assert snapshot["workers"] == 2
        assert snapshot["queue_limit"] == 7
        assert snapshot["quota"] == 3
        assert snapshot["pending"] == 0
        assert snapshot["inflight"] == 0
        assert isinstance(snapshot["metrics"], dict)

    def test_blocking_submission_unblocks_on_drain(self, make_server):
        server = make_server(workers=1, queue_limit=1)
        server.submit(selftest("sleep:30", "blk"))
        wait_until(lambda: server.stats()["busy_workers"] == 1)
        server.submit(selftest("pass", "queued"))
        outcome = {}

        def patient():
            try:
                server.submit(selftest("fail", "patient"), block=True)
            except Rejection as rejection:
                outcome["code"] = rejection.code

        thread = threading.Thread(target=patient)
        thread.start()
        try:
            # closing must release the blocked submitter with a rejection,
            # not leave it parked forever
            server.close(drain=False)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert outcome["code"] == DRAINING
        finally:
            thread.join(timeout=1)


class TestResultCacheStore:
    def test_clear_from_a_second_instance_empties_a_live_store(
        self, make_server, tmp_path
    ):
        # the server and both workers hold the store open; a clear through
        # an unrelated instance must reach all of their connections
        directory = str(tmp_path / "rc")
        server = make_server(workers=2, result_cache_dir=directory)
        doc = failing_refinement("memo").to_doc()
        cold = server.submit(doc).result(timeout=60)
        # the worker wrote the verdict through its own connection
        assert len(ResultCache(directory)) == 1
        assert server.result_cache.writes == 0
        server.submit(doc).result(timeout=60)
        assert server.stats()["metrics"]["server.result_hits"] == 1
        ResultCache(directory).clear()
        assert len(ResultCache(directory)) == 0
        again = server.submit(doc).result(timeout=60)
        metrics = server.stats()["metrics"]
        assert metrics["server.result_hits"] == 1
        assert metrics["server.executions"] == 2
        # executed, not answered by a worker's stale view, and written back
        assert len(ResultCache(directory)) == 1
        assert again.canonical_line() == cold.canonical_line()
