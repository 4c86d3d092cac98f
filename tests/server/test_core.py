"""The server core: admission, dedup, backpressure, quotas, lifecycle."""

import threading
import time

import pytest

from repro.batch import CheckSpec, run_batch
from repro.csp.events import Event
from repro.exec.resultcache import ResultCache
from repro.csp.process import Prefix, Stop
from repro.exec.runtime import execute_spec
from repro.server import VerificationServer, core
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


    def test_a_checkspec_is_admitted_without_decoding(self, make_server, monkeypatch):
        # a pooled batch hands submit the spec it holds; only its document
        # is built, never decoded back (the worker, forked earlier, decodes)
        server = make_server(workers=1)

        def no_decoding(doc):
            raise AssertionError("submit decoded a spec it was handed")

        monkeypatch.setattr(CheckSpec, "from_doc", staticmethod(no_decoding))
        spec = failing_refinement()
        result = server.submit(spec, index=3).result(timeout=60)
        assert result.canonical_line() == execute_spec(spec, 3).canonical_line()

    def test_sequential_checks_never_wait_for_the_idle_tick(self, make_server):
        # each arrival on an empty queue wakes the scheduler at once
        server = make_server(workers=1)
        started = time.perf_counter()
        for i in range(10):
            check = selftest("pass", "seq-{}".format(i), name="seq-{}".format(i))
            assert server.submit(check).result(timeout=60).verdict == "PASS"
        assert time.perf_counter() - started < 10 * core._IDLE_TICK / 2


class TestChunkSize:
    @pytest.fixture
    def server(self):
        # never started: the rule reads only the queue, the pool size and
        # the recent mean
        server = VerificationServer(workers=4)
        yield server
        server.close()

    def test_one_execution_until_a_time_is_measured(self, server):
        server._pending.extend([None] * 40)
        assert server._chunk_size_locked() == 1

    def test_the_slice_at_the_recent_mean_sets_the_size(self, server):
        server._pending.extend([None] * 40)
        server._mean_ms = core._CHUNK_SLICE_MS / 5.5
        assert server._chunk_size_locked() == 5
        # a check longer than the slice never shares a message
        server._mean_ms = core._CHUNK_SLICE_MS * 1.5
        assert server._chunk_size_locked() == 1

    def test_the_pool_share_and_the_cap_bound_the_size(self, server):
        # the share is of the whole pool, however many workers are idle
        server._mean_ms = core._CHUNK_SLICE_MS / 1000
        server._pending.extend([None] * 10)
        assert server._chunk_size_locked() == 3  # ceil(10 / 4)
        server._pending.extend([None] * 100)
        assert server._chunk_size_locked() == core._CHUNK_CAP


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


class TestSpellings:
    """Every key is material() of the decoded check, whatever the spelling."""

    @staticmethod
    def documents():
        # five documents, three checks: a failing refinement spelled with
        # and without its model, a property with a null budget and with an
        # unknown key, and a passing refinement with its default passes
        good = Prefix(A, Prefix(B, Stop()))
        fail = failing_refinement().to_doc()
        prop = CheckSpec.property_check(good, "deadlock free").to_doc()
        ok = CheckSpec.refinement(good, good, "T").to_doc()
        del fail["model"], ok["model"]
        return [
            dict(fail, id="fail-1"),
            dict(fail, id="fail-2", model="T"),
            dict(prop, id="prop-1", max_states=None),
            dict(prop, id="prop-2", note="an unknown key"),
            dict(ok, id="ok", passes="default"),
        ]

    def test_a_served_store_answers_every_spelling_the_inline_run_stored(
        self, make_server, tmp_path
    ):
        docs = self.documents()
        store = str(tmp_path / "rc")
        inline = run_batch(
            [CheckSpec.from_doc(doc) for doc in docs], jobs=0, result_cache_dir=store
        )
        assert inline.result_cache_stats["result_entries"] == 3
        assert inline.result_cache_stats["result_hits"] == 2
        server = make_server(workers=1, result_cache_dir=store)
        served = [
            server.submit(doc, index=index).result(timeout=60)
            for index, doc in enumerate(docs)
        ]
        metrics = server.stats()["metrics"]
        assert metrics["server.result_hits"] == 5
        assert metrics.get("server.executions", 0) == 0
        assert [result.canonical_line() for result in served] == [
            result.canonical_line() for result in inline.results
        ]

    def test_spellings_in_flight_share_one_execution(self, make_server):
        server = make_server(workers=1)
        plain = selftest("sleep:0.5", "s1")
        tickets = [
            server.submit(plain),
            server.submit(dict(plain, id="s2", passes="default")),
            server.submit(dict(plain, id="s3", max_states=None, note="x")),
        ]
        results = [ticket.result(timeout=60) for ticket in tickets]
        assert [result.check_id for result in results] == ["s1", "s2", "s3"]
        assert server.metrics.counter("server.executions").value == 1
        assert server.metrics.counter("server.dedup_hits").value == 2


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

    def test_term_a_constructor_refuses_is_undecodable(self, make_server):
        # ProcessRef("") raises a plain ValueError while the term decodes
        server = make_server(workers=1)
        doc = {
            "kind": "property",
            "property": "deadlock free",
            "term": {"op": "ref", "name": ""},
        }
        with pytest.raises(Rejection) as excinfo:
            server.submit(doc)
        assert excinfo.value.code == BAD_REQUEST
        assert excinfo.value.message.startswith("undecodable spec: ")
        assert server.metrics.counter("server.rejected.bad_request").value == 1

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
