"""The verdict store (:mod:`repro.exec.resultcache`): round trips, and
every way an entry is *refused* -- version skew, corruption, truncation,
key mismatch, non-deterministic verdicts.  The refusal paths are the
soundness surface: a defective row must degrade to a counted miss, never
to data.  Rows are edited through a second sqlite connection, the way a
hand edit or a foreign writer would reach them."""

import json
import os
import sqlite3
from contextlib import closing

import pytest

from repro.batch.spec import CheckSpec, JobResult
from repro.csp import Event, Prefix, STOP
from repro.exec.keys import (
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    result_key_digest,
    spec_material,
)
from repro.exec.resultcache import STORE_NAME, ResultCache, cacheable


def _spec(name="fixture"):
    term = Prefix(Event("a"), STOP)
    return CheckSpec.refinement(term, term, "T", name=name)


def _pass_result(index=0, check_id=None):
    return JobResult(
        index,
        check_id,
        "PASS",
        name="fixture",
        states_explored=2,
        transitions_explored=1,
    )


@pytest.fixture
def cache(tmp_path):
    store = ResultCache(str(tmp_path / "results"))
    yield store
    store.close()


def _digest(doc):
    return result_key_digest(spec_material(doc))


def _sql(cache, statement, *params):
    """Run one statement on the store through a connection of its own."""
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as db:
        return db.execute(statement, params).fetchall()


def _row(cache, doc):
    """The stored (format, engine, key, result) columns of *doc*, or None."""
    rows = _sql(
        cache,
        "SELECT format, engine, key, result FROM results WHERE digest = ?",
        _digest(doc),
    )
    return rows[0] if rows else None


def _set(cache, doc, column, value):
    _sql(
        cache,
        "UPDATE results SET {} = ? WHERE digest = ?".format(column),
        value,
        _digest(doc),
    )


def _edit_result(cache, doc, edit):
    stored = json.loads(_row(cache, doc)[3])
    edit(stored)
    _set(cache, doc, "result", json.dumps(stored))


def test_round_trip_is_canonically_identical(cache):
    doc = _spec().to_doc()
    original = _pass_result()
    assert cache.put(doc, original)
    replayed = cache.get(doc)
    assert replayed is not None
    assert replayed.canonical() == original.canonical()
    assert cache.stats()["result_entries"] == 1
    assert (cache.hits, cache.misses, cache.writes) == (1, 0, 1)


def test_missing_entry_is_a_counted_miss(cache):
    assert cache.get(_spec().to_doc()) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_hit_relabels_to_the_requester(cache):
    term = Prefix(Event("a"), STOP)
    writer_doc = CheckSpec.refinement(term, term, "T", check_id="writer").to_doc()
    reader_doc = CheckSpec.refinement(term, term, "T", check_id="reader").to_doc()
    cache.put(writer_doc, _pass_result(index=3, check_id="writer"))
    replayed = cache.get(reader_doc, index=9)
    assert replayed is not None
    assert replayed.index == 9
    assert replayed.check_id == "reader"


def test_fail_verdicts_with_counterexamples_round_trip(cache):
    doc = _spec().to_doc()
    original = JobResult(
        0,
        None,
        "FAIL",
        name="fixture",
        counterexample={
            "kind": "trace",
            "trace": ["a"],
            "description": "after <a> ...",
        },
        states_explored=5,
        transitions_explored=4,
    )
    assert cache.put(doc, original)
    replayed = cache.get(doc)
    assert replayed.canonical() == original.canonical()


@pytest.mark.parametrize("verdict", ["ERROR", "TIMEOUT", "CANCELLED"])
def test_nondeterministic_verdicts_are_never_stored(cache, verdict):
    doc = _spec().to_doc()
    refused = JobResult(0, None, verdict, error="environmental")
    assert not cacheable(doc, verdict)
    assert not cache.put(doc, refused)
    assert cache.skipped == 1
    assert len(cache) == 0


def test_selftest_specs_are_never_stored(cache):
    doc = CheckSpec.selftest("pass").to_doc()
    assert not cacheable(doc, "PASS")
    assert not cache.put(doc, _pass_result())
    assert cache.skipped == 1


def test_format_version_skew_is_swept_as_stale(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _set(cache, doc, "format", _row(cache, doc)[0] + 1)
    assert cache.get(doc) is None
    assert cache.stale == 1
    assert cache.quarantined == 0
    assert _row(cache, doc) is None, "a stale row is deleted, not retried"
    assert cache.stats()["result_stale"] == 1


def test_engine_version_skew_is_swept_as_stale(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _set(cache, doc, "engine", 999)
    assert cache.get(doc) is None
    assert cache.stale == 1
    assert _row(cache, doc) is None


def test_version_bump_changes_the_digest_itself(cache, monkeypatch):
    # the primary invalidation is by construction: a bumped version makes a
    # *different digest*, so old rows are simply unreachable
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    old_digest = _digest(doc)
    import repro.exec.keys as keys

    monkeypatch.setattr(keys, "ENGINE_SEMANTICS_VERSION", 2)
    assert _digest(doc) != old_digest
    assert cache.get(doc) is None
    assert _sql(
        cache, "SELECT COUNT(*) FROM results WHERE digest = ?", old_digest
    ) == [(1,)], "old-generation rows are untouched"


def test_truncated_entry_quarantines(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _set(cache, doc, "result", _row(cache, doc)[3][:10])
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert _row(cache, doc) is None
    assert cache.stats()["result_quarantined"] == 1


def test_garbage_entry_quarantines(cache):
    doc = _spec().to_doc()
    assert len(cache) == 0  # creates the empty store
    _sql(
        cache,
        "INSERT INTO results VALUES (?, ?, ?, ?, ?)",
        _digest(doc),
        RESULT_FORMAT_VERSION,
        ENGINE_SEMANTICS_VERSION,
        spec_material(doc),
        "not json at all {{{",
    )
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert _row(cache, doc) is None


def test_stored_key_mismatch_quarantines(cache):
    # a collision or a copied-over row: the digest matches but the stored
    # text does not -- refuse it rather than answer the wrong check
    term = Prefix(Event("a"), STOP)
    doc = CheckSpec.refinement(term, term, "T", name="one").to_doc()
    other = CheckSpec.refinement(term, term, "T", name="two").to_doc()
    cache.put(other, JobResult(0, None, "PASS", name="two"))
    _set(cache, other, "digest", _digest(doc))
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert _row(cache, doc) is None


def test_stored_uncacheable_verdict_quarantines(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _edit_result(cache, doc, lambda stored: stored.update(verdict="ERROR"))
    assert cache.get(doc) is None
    assert cache.quarantined == 1


def test_missing_result_fields_quarantine(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _edit_result(cache, doc, lambda stored: stored.pop("states_explored"))
    assert cache.get(doc) is None
    assert cache.quarantined == 1


def test_quarantine_does_not_poison_future_writes(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _set(cache, doc, "result", "garbage")
    assert cache.get(doc) is None
    assert cache.put(doc, _pass_result())
    assert cache.get(doc) is not None
    assert cache.hits == 1


def test_entries_have_no_id_on_disk(cache):
    doc = CheckSpec.refinement(
        Prefix(Event("a"), STOP), Prefix(Event("a"), STOP), "T", check_id="x"
    ).to_doc()
    cache.put(doc, _pass_result(check_id="x"))
    assert "id" not in json.loads(_row(cache, doc)[3])


def test_a_row_stores_the_canonical_text_as_its_key(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    stored_format, stored_engine, key, _result = _row(cache, doc)
    assert (stored_format, stored_engine) == (
        RESULT_FORMAT_VERSION,
        ENGINE_SEMANTICS_VERSION,
    )
    assert key == spec_material(doc)


def test_a_non_database_store_file_is_moved_aside(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / STORE_NAME).write_bytes(b"not a database " * 64)
    cache = ResultCache(str(directory))
    doc = _spec().to_doc()
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert cache.put(doc, _pass_result())
    assert cache.get(doc) is not None
    cache.close()
    aside = directory / (STORE_NAME + ".quarantined")
    assert aside.read_bytes() == b"not a database " * 64


def test_a_forked_child_writes_through_its_own_connection(cache):
    parent_doc = _spec("parent").to_doc()
    child_doc = _spec("child").to_doc()
    assert cache.put(parent_doc, _pass_result())  # opens the parent's connection
    parent_connection = cache._conn
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        ok = cache.put(child_doc, _pass_result()) and cache.get(parent_doc)
        ok = ok and cache._conn is not parent_connection
        cache.close()
        os._exit(0 if ok else 1)
    _pid, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    # the child neither used nor closed the parent's connection
    assert cache.get(child_doc) is not None
    assert cache.put(parent_doc, _pass_result())
    assert len(cache) == 2


def test_clear_from_another_instance_reaches_open_connections(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    assert cache.get(doc) is not None
    ResultCache(cache.directory).clear()
    assert cache.get(doc) is None
    assert len(cache) == 0


def test_a_locked_store_leaves_the_verdict_unwritten(cache, monkeypatch):
    import repro.exec.resultcache as resultcache

    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    monkeypatch.setattr(resultcache, "_BUSY_TIMEOUT_S", 0.0)
    writer = ResultCache(cache.directory)
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as db:
        db.execute("BEGIN EXCLUSIVE")
        assert not writer.put(_spec("other").to_doc(), _pass_result())
        assert writer.writes == 0
        # WAL readers never wait on the writer
        assert writer.get(doc) is not None
        db.execute("ROLLBACK")
    assert writer.put(_spec("other").to_doc(), _pass_result())
    writer.close()


def test_a_failing_store_is_a_miss_never_an_error(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    _sql(cache, "DROP TABLE results")
    assert cache.get(doc) is None
    assert not cache.put(doc, _pass_result())
    assert len(cache) == 0
    assert cache.misses == 1


def test_clear_empties_the_store(cache):
    cache.put(_spec().to_doc(), _pass_result())
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_stats_names_are_the_wire_contract(cache):
    assert sorted(cache.stats()) == [
        "result_entries",
        "result_hits",
        "result_misses",
        "result_quarantined",
        "result_skipped",
        "result_stale",
        "result_writes",
    ]


def _hammer(directory, worker, rounds):
    """One process's share of the stress test: write its own specs, read all."""
    cache = ResultCache(directory)
    written = 0
    for step in range(rounds):
        doc = _spec("w{}-{}".format(worker, step)).to_doc()
        written += cache.put(doc, _pass_result())
        cache.get(_spec("w{}-{}".format((worker + 1) % 4, step)).to_doc())
    cache.close()
    if written != rounds:
        raise SystemExit(1)


def test_concurrent_writers_lose_no_verdict(tmp_path):
    # more writers than cores, in processes and in threads of one process
    import multiprocessing
    import sys
    import threading

    directory = str(tmp_path / "results")
    rounds = 40
    context = multiprocessing.get_context("spawn")
    processes = [
        context.Process(target=_hammer, args=(directory, worker, rounds))
        for worker in range(4)
    ]
    for process in processes:
        process.start()
    shared = ResultCache(directory)
    failures = []

    def thread_writer(worker):
        for step in range(rounds):
            doc = _spec("t{}-{}".format(worker, step)).to_doc()
            if not shared.put(doc, _pass_result()) or shared.get(doc) is None:
                failures.append(doc["name"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=thread_writer, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for process in processes:
        process.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert [process.exitcode for process in processes] == [0] * 4
    assert failures == []
    assert (shared.writes, shared.hits) == (4 * rounds, 4 * rounds)
    assert len(shared) == 8 * rounds
    shared.close()
