"""Property-based tests: batch execution is invariant under scheduling.

Whatever the executor varies -- job order, worker count, cache temperature
-- the canonical result documents must not.  Inputs come from the shared
:mod:`repro.quickcheck` generators (replay via ``REPRO_SEED``); worker
counts stay small because every pooled case forks real processes.
"""

import random

from repro.batch import CheckSpec, run_batch
from repro.csp import event
from repro.quickcheck import for_all, process_terms, sampled_from, tuples
from repro.quickcheck.oracles import ORACLES

EVENTS = (event("a"), event("b"))
PROCESSES = process_terms(EVENTS)


def _spec_of(value, index):
    spec, impl, model = value
    return CheckSpec.refinement(spec, impl, model, check_id="job-{}".format(index))


def _batch_input():
    one = tuples(PROCESSES, PROCESSES, sampled_from(["T", "F"]))
    return tuples(one, one, one)


def _canonical_by_id(report):
    return sorted(
        (result.check_id, result.canonical_line()) for result in report.results
    )


def test_results_invariant_under_job_order(repro_seed):
    def check(triple):
        specs = [_spec_of(value, i) for i, value in enumerate(triple)]
        shuffled = list(specs)
        random.Random(repro_seed).shuffle(shuffled)
        direct = run_batch(specs, inline=True)
        reordered = run_batch(shuffled, inline=True)
        assert _canonical_by_id(direct) == _canonical_by_id(reordered)

    for_all(
        _batch_input(),
        check,
        seed=repro_seed,
        name="batch-job-order",
        cases=20,
    )


def test_single_worker_matches_many_workers(repro_seed):
    def check(triple):
        specs = [_spec_of(value, i) for i, value in enumerate(triple)]
        serial = run_batch(specs, jobs=1, timeout=120)
        parallel = run_batch(specs, jobs=3, timeout=120)
        assert [r.canonical_line() for r in serial.results] == [
            r.canonical_line() for r in parallel.results
        ]

    # each case forks up to four worker processes; keep the count low
    for_all(
        _batch_input(),
        check,
        seed=repro_seed,
        name="batch-jobs-1-vs-n",
        cases=6,
    )


def test_cold_and_warm_disk_cache_agree(repro_seed, tmp_path):
    counter = [0]

    def check(triple):
        specs = [_spec_of(value, i) for i, value in enumerate(triple)]
        counter[0] += 1
        cache_dir = str(tmp_path / "cache-{}".format(counter[0]))
        cold = run_batch(specs, inline=True, cache_dir=cache_dir)
        warm = run_batch(specs, inline=True, cache_dir=cache_dir)
        uncached = run_batch(specs, inline=True)
        assert [r.canonical_line() for r in cold.results] == [
            r.canonical_line() for r in uncached.results
        ]
        assert [r.canonical_line() for r in warm.results] == [
            r.canonical_line() for r in uncached.results
        ]

    for_all(
        _batch_input(),
        check,
        seed=repro_seed,
        name="batch-cache-temperature",
        cases=15,
    )


def test_batch_oracle_is_registered():
    oracle = ORACLES["batch"]
    assert "executor" in oracle.description or "batch" in oracle.description
    assert "repro.exec.spec" in oracle.guards


def test_batch_oracle_runs_clean(repro_seed):
    oracle = ORACLES["batch"]
    rng = random.Random(repro_seed)
    for _ in range(15):
        assert oracle.run_one(rng) is None
