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

from repro.csp import Event, Prefix, STOP
from repro.exec.keys import (
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    result_key_digest,
    spec_material,
)
from repro.exec.resultcache import STORE_NAME, ResultCache, cacheable
from repro.exec.spec import CheckSpec, JobResult


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


def _put(cache, material, result):
    return cache.put(material, result, kind="refinement")


def _sql(cache, statement, *params):
    """Run one statement on the store through a connection of its own."""
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as db:
        return db.execute(statement, params).fetchall()


def _row(cache, material):
    """The stored (format, engine, key, result) columns of a spec, or None."""
    rows = _sql(
        cache,
        "SELECT format, engine, key, result FROM results WHERE digest = ?",
        result_key_digest(material),
    )
    return rows[0] if rows else None


def _set(cache, material, column, value):
    _sql(
        cache,
        "UPDATE results SET {} = ? WHERE digest = ?".format(column),
        value,
        result_key_digest(material),
    )


def _edit_result(cache, material, edit):
    stored = json.loads(_row(cache, material)[3])
    edit(stored)
    _set(cache, material, "result", json.dumps(stored))


def test_round_trip_is_canonically_identical(cache):
    material = _spec().material()
    original = _pass_result()
    assert _put(cache, material, original)
    replayed = cache.get(material)
    assert replayed is not None
    assert replayed.canonical() == original.canonical()
    assert cache.stats()["result_entries"] == 1
    assert (cache.hits, cache.misses, cache.writes) == (1, 0, 1)


def test_missing_entry_is_a_counted_miss(cache):
    assert cache.get(_spec().material()) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_hit_relabels_to_the_requester(cache):
    term = Prefix(Event("a"), STOP)
    writer = CheckSpec.refinement(term, term, "T", check_id="writer")
    reader = CheckSpec.refinement(term, term, "T", check_id="reader")
    _put(cache, writer.material(), _pass_result(index=3, check_id="writer"))
    replayed = cache.get(reader.material(), index=9, check_id=reader.check_id)
    assert replayed is not None
    assert replayed.index == 9
    assert replayed.check_id == "reader"


def test_fail_verdicts_with_counterexamples_round_trip(cache):
    material = _spec().material()
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
    assert _put(cache, material, original)
    replayed = cache.get(material)
    assert replayed.canonical() == original.canonical()


@pytest.mark.parametrize("verdict", ["ERROR", "TIMEOUT", "CANCELLED"])
def test_nondeterministic_verdicts_are_never_stored(cache, verdict):
    material = _spec().material()
    refused = JobResult(0, None, verdict, error="environmental")
    assert not cacheable("refinement", verdict)
    assert not _put(cache, material, refused)
    assert cache.skipped == 1
    assert len(cache) == 0


def test_selftest_specs_are_never_stored(cache):
    material = CheckSpec.selftest("pass").material()
    assert not cacheable("selftest", "PASS")
    assert not cache.put(material, _pass_result(), kind="selftest")
    assert cache.skipped == 1


def test_format_version_skew_is_swept_as_stale(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _set(cache, material, "format", _row(cache, material)[0] + 1)
    assert cache.get(material) is None
    assert cache.stale == 1
    assert cache.quarantined == 0
    assert _row(cache, material) is None, "a stale row is deleted, not retried"
    assert cache.stats()["result_stale"] == 1


def test_engine_version_skew_is_swept_as_stale(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _set(cache, material, "engine", 999)
    assert cache.get(material) is None
    assert cache.stale == 1
    assert _row(cache, material) is None


def test_version_bump_changes_the_digest_itself(cache, monkeypatch):
    # the primary invalidation is by construction: a bumped version makes a
    # *different digest*, so old rows are simply unreachable
    material = _spec().material()
    _put(cache, material, _pass_result())
    old_digest = result_key_digest(material)
    import repro.exec.keys as keys

    monkeypatch.setattr(keys, "ENGINE_SEMANTICS_VERSION", 2)
    assert result_key_digest(material) != old_digest
    assert cache.get(material) is None
    assert _sql(
        cache, "SELECT COUNT(*) FROM results WHERE digest = ?", old_digest
    ) == [(1,)], "old-generation rows are untouched"


def test_truncated_entry_quarantines(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _set(cache, material, "result", _row(cache, material)[3][:10])
    assert cache.get(material) is None
    assert cache.quarantined == 1
    assert _row(cache, material) is None
    assert cache.stats()["result_quarantined"] == 1


def test_garbage_entry_quarantines(cache):
    material = _spec().material()
    assert len(cache) == 0  # creates the empty store
    _sql(
        cache,
        "INSERT INTO results VALUES (?, ?, ?, ?, ?)",
        result_key_digest(material),
        RESULT_FORMAT_VERSION,
        ENGINE_SEMANTICS_VERSION,
        material,
        "not json at all {{{",
    )
    assert cache.get(material) is None
    assert cache.quarantined == 1
    assert _row(cache, material) is None


def test_stored_key_mismatch_quarantines(cache):
    # a collision or a copied-over row: the digest matches but the stored
    # text does not -- refuse it rather than answer the wrong check
    term = Prefix(Event("a"), STOP)
    material = CheckSpec.refinement(term, term, "T", name="one").material()
    other = CheckSpec.refinement(term, term, "T", name="two").material()
    _put(cache, other, JobResult(0, None, "PASS", name="two"))
    _set(cache, other, "digest", result_key_digest(material))
    assert cache.get(material) is None
    assert cache.quarantined == 1
    assert _row(cache, material) is None


def test_stored_uncacheable_verdict_quarantines(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _edit_result(cache, material, lambda stored: stored.update(verdict="ERROR"))
    assert cache.get(material) is None
    assert cache.quarantined == 1


def test_missing_result_fields_quarantine(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _edit_result(cache, material, lambda stored: stored.pop("states_explored"))
    assert cache.get(material) is None
    assert cache.quarantined == 1


def test_quarantine_does_not_poison_future_writes(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _set(cache, material, "result", "garbage")
    assert cache.get(material) is None
    assert _put(cache, material, _pass_result())
    assert cache.get(material) is not None
    assert cache.hits == 1


def test_entries_have_no_id_on_disk(cache):
    material = CheckSpec.refinement(
        Prefix(Event("a"), STOP), Prefix(Event("a"), STOP), "T", check_id="x"
    ).material()
    _put(cache, material, _pass_result(check_id="x"))
    assert "id" not in json.loads(_row(cache, material)[3])


def test_a_row_stores_the_canonical_text_as_its_key(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    stored_format, stored_engine, key, _result = _row(cache, material)
    assert (stored_format, stored_engine) == (
        RESULT_FORMAT_VERSION,
        ENGINE_SEMANTICS_VERSION,
    )
    assert key == material == spec_material(_spec().to_doc())


def test_a_non_database_store_file_is_moved_aside(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / STORE_NAME).write_bytes(b"not a database " * 64)
    cache = ResultCache(str(directory))
    material = _spec().material()
    assert cache.get(material) is None
    assert cache.quarantined == 1
    assert _put(cache, material, _pass_result())
    assert cache.get(material) is not None
    cache.close()
    aside = directory / (STORE_NAME + ".quarantined")
    assert aside.read_bytes() == b"not a database " * 64


def test_a_forked_child_writes_through_its_own_connection(cache):
    parent_material = _spec("parent").material()
    child_material = _spec("child").material()
    assert _put(cache, parent_material, _pass_result())  # opens the parent's connection
    parent_connection = cache._conn
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        ok = _put(cache, child_material, _pass_result()) and cache.get(parent_material)
        ok = ok and cache._conn is not parent_connection
        cache.close()
        os._exit(0 if ok else 1)
    _pid, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    # the child neither used nor closed the parent's connection
    assert cache.get(child_material) is not None
    assert _put(cache, parent_material, _pass_result())
    assert len(cache) == 2


class _RecordingConnection:
    """Stands in for a sqlite connection; counts the calls to close()."""

    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


def test_close_leaves_a_connection_opened_by_another_process(cache):
    inherited = _RecordingConnection()
    cache._conn, cache._pid = inherited, os.getpid() + 1
    cache.close()
    assert inherited.closed == 0
    assert cache._conn is inherited


def test_close_closes_this_process_connection(cache):
    ours = _RecordingConnection()
    cache._conn, cache._pid = ours, os.getpid()
    cache.close()
    assert ours.closed == 1
    assert cache._conn is None


def test_clear_from_another_instance_reaches_open_connections(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    assert cache.get(material) is not None
    ResultCache(cache.directory).clear()
    assert cache.get(material) is None
    assert len(cache) == 0


def test_a_locked_store_leaves_the_verdict_unwritten(cache, monkeypatch):
    import repro.exec.resultcache as resultcache

    material = _spec().material()
    _put(cache, material, _pass_result())
    monkeypatch.setattr(resultcache, "_BUSY_TIMEOUT_S", 0.0)
    writer = ResultCache(cache.directory)
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as db:
        db.execute("BEGIN EXCLUSIVE")
        assert not _put(writer, _spec("other").material(), _pass_result())
        assert writer.writes == 0
        # WAL readers never wait on the writer
        assert writer.get(material) is not None
        db.execute("ROLLBACK")
    assert _put(writer, _spec("other").material(), _pass_result())
    writer.close()


def test_a_failing_store_is_a_miss_never_an_error(cache):
    material = _spec().material()
    _put(cache, material, _pass_result())
    _sql(cache, "DROP TABLE results")
    assert cache.get(material) is None
    assert not _put(cache, material, _pass_result())
    assert len(cache) == 0
    assert cache.misses == 1


def test_clear_empties_the_store(cache):
    _put(cache, _spec().material(), _pass_result())
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
        material = _spec("w{}-{}".format(worker, step)).material()
        written += _put(cache, material, _pass_result())
        cache.get(_spec("w{}-{}".format((worker + 1) % 4, step)).material())
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
            material = _spec("t{}-{}".format(worker, step)).material()
            written = _put(shared, material, _pass_result())
            if not written or shared.get(material) is None:
                failures.append(step)

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
