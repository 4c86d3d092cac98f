"""Property-based tests: dedup, arrival order and quota determinism.

The server's scheduling promises, checked over generated refinement checks
(replay via ``REPRO_SEED``):

* N identical concurrent submissions trigger **exactly one** execution --
  asserted through the ``server.executions`` counter in :mod:`repro.obs`
  -- and every requester's relabelled result matches the sequential
  reference byte-for-byte;
* canonical results are independent of arrival order;
* quota-exceeded submissions get the same deterministic rejection every
  time, regardless of scheduler load.
"""

import random

import pytest

from repro.batch import CheckSpec
from repro.csp import event
from repro.exec.runtime import execute_spec
from repro.quickcheck import for_all, process_terms, sampled_from, tuples
from repro.server import VerificationServer
from repro.server.protocol import QUOTA, Rejection

EVENTS = (event("a"), event("b"))
PROCESSES = process_terms(EVENTS)

#: identical concurrent submissions per dedup case (the ISSUE asks >= 4)
N_IDENTICAL = 5


def _one_check():
    return tuples(PROCESSES, PROCESSES, sampled_from(["T", "F"]))


def _spec_of(value, check_id):
    spec, impl, model = value
    return CheckSpec.refinement(spec, impl, model, check_id=check_id)


def test_identical_concurrent_requests_compile_exactly_once(repro_seed):
    def check(value):
        doc = _spec_of(value, "shared").to_doc()
        reference = execute_spec(CheckSpec.from_doc(doc))
        server = VerificationServer(workers=1).start()
        try:
            # the blocker pins the only worker, so all N submissions below
            # are in flight together -- dedup has no timing window to miss
            blocker = server.submit(
                CheckSpec.selftest("sleep:0.75", check_id="blk").to_doc()
            )
            tickets = [
                server.submit(dict(doc, id="req-{}".format(i)), index=i)
                for i in range(N_IDENTICAL)
            ]
            assert (
                server.metrics.counter("server.dedup_hits").value
                == N_IDENTICAL - 1
            )
            results = [ticket.result(timeout=120) for ticket in tickets]
            blocker.result(timeout=120)
            # exactly one execution beyond the blocker served all N
            assert server.metrics.counter("server.executions").value == 2
            assert (
                server.metrics.counter("server.requests").value
                == N_IDENTICAL + 1
            )
            for i, result in enumerate(results):
                expected = dict(reference.canonical(), id="req-{}".format(i))
                assert result.canonical() == expected
        finally:
            server.close(drain=False)

    for_all(
        _one_check(),
        check,
        seed=repro_seed,
        name="server-dedup-single-compile",
        cases=3,
    )


def test_results_are_independent_of_arrival_order(repro_seed):
    def check(triple):
        specs = [_spec_of(value, "job-{}".format(i)) for i, value in enumerate(triple)]
        expected = sorted(
            (spec.check_id, execute_spec(spec).canonical_line()) for spec in specs
        )
        orders = [list(specs), list(specs)]
        random.Random(repro_seed).shuffle(orders[1])
        for order in orders:
            server = VerificationServer(workers=2).start()
            try:
                tickets = [server.submit(spec.to_doc()) for spec in order]
                produced = sorted(
                    (result.check_id, result.canonical_line())
                    for result in (t.result(timeout=120) for t in tickets)
                )
            finally:
                server.close(drain=False)
            assert produced == expected

    for_all(
        tuples(_one_check(), _one_check(), _one_check()),
        check,
        seed=repro_seed,
        name="server-arrival-order",
        cases=5,
    )


def test_quota_rejection_is_deterministic(make_server):
    server = make_server(workers=1, quota=2)
    blocker = CheckSpec.selftest("sleep:30", check_id="blk").to_doc()
    server.submit(blocker, tenant="t")
    server.submit(dict(blocker, id="blk-2"), tenant="t")
    messages = set()
    for _ in range(5):
        with pytest.raises(Rejection) as excinfo:
            server.submit(
                CheckSpec.selftest("pass", check_id="extra").to_doc(), tenant="t"
            )
        assert excinfo.value.code == QUOTA
        assert excinfo.value.retryable
        messages.add(excinfo.value.message)
    # byte-for-byte the same rejection every time
    assert len(messages) == 1
    assert "quota 2" in messages.pop()
    assert server.metrics.counter("server.rejected.quota").value == 5
