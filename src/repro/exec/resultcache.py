"""A content-addressed verdict store: one sqlite database per directory.

The LTS :class:`~repro.engine.diskcache.DiskCache` persists *compiled
automata*, so a warm run skips compilation but still re-runs every search.
This store persists the **outcome**: the canonical
:class:`~repro.exec.spec.JobResult` bytes of a completed check (verdict,
counterexample, explored counts -- timings excluded, exactly the
byte-identity surface the conformance corpus pins), keyed by the same
structural key the server's dedup table uses.  A later identical request
in *any* mode -- inline :mod:`repro.api`, ``cspbatch``, a warm or cold
``cspserve`` -- answers without re-verifying anything.

The store is one file, ``results.sqlite3`` in the store directory, with
one row per verdict: its digest, the format and engine versions it was
written under, its key material (the spec's canonical text, see
:func:`~repro.exec.keys.spec_material`) and the result document.  A read
compares the stored key as a string and parses only the small result
document.  The database runs in WAL mode, so the daemon, its workers and
any number of batch runs read while one of them writes; each verdict is
its own autocommitted row.  WAL needs shared memory between the processes
that open the file, so the store directory must be on a local filesystem.

Design constraints, in order (the same contract as the LTS store):

* **Soundness over availability.**  The digest folds in
  :data:`~repro.exec.keys.RESULT_FORMAT_VERSION` and
  :data:`~repro.exec.keys.ENGINE_SEMANTICS_VERSION`, so bumping either
  orphans every old row; the pass configuration and state budget live
  in the spec document and therefore in the key, so a check run under a
  different pass list is a different entry.  Every read still validates
  the stored format/engine versions and the full key material: a
  version-skewed row (only reachable by hand-editing) counts as *stale*,
  and a missing field, truncated or garbage result text or a key
  mismatch counts as *quarantined*; both rows are deleted and served as
  a miss, never as data.  A store file that is not a database is moved
  aside (``results.sqlite3.quarantined``) and recreated.
* **Determinism only.**  Just ``PASS`` and ``FAIL`` are persisted.
  ``ERROR`` can be environmental (a dead worker, a full disk), ``TIMEOUT``
  and ``CANCELLED`` depend on scheduling, and ``selftest`` specs exist to
  inject faults -- none of those verdicts may outlive the run that
  produced them.
* **Label relabelling.**  The stored canonical document carries no ``id``
  (ids are stripped from the key, so requesters with different labels
  share one entry); a hit is rehydrated with the *requester's* ``id`` and
  index, exactly like the server relabels coalesced tickets.
* **An accelerator, never a dependency.**  A busy, locked or failing
  database gives a miss or an unwritten verdict, never an error.

Each instance holds one connection, opened lazily in the process that
uses it: an instance inherited across ``fork`` opens its own rather than
touch its parent's.  :meth:`ResultCache.close` releases it, and a process
that forks workers while it holds the store open forks them inside
:meth:`ResultCache.released`.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from .keys import (
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    result_key_digest,
    spec_material,
)
from .spec import FAIL, JobResult, PASS

if TYPE_CHECKING:
    # imported where used: sqlite3 costs ~1.5 MB of resident memory, and
    # most processes that import this module never open a store
    import sqlite3

#: the database file inside a store directory
STORE_NAME = "results.sqlite3"

#: how long one statement waits on another process's write lock (seconds)
_BUSY_TIMEOUT_S = 2.0

#: page cache per connection, in KiB (sqlite's default is 2000)
_CACHE_KIB = 128

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS results ("
    "digest TEXT PRIMARY KEY, format INTEGER NOT NULL, "
    "engine INTEGER NOT NULL, key TEXT NOT NULL, result TEXT NOT NULL)"
)

_INSERT = "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?)"

#: the verdicts deterministic enough to outlive their run
_CACHEABLE_VERDICTS = (PASS, FAIL)


def cacheable(spec_doc: Dict[str, Any], verdict: str) -> bool:
    """May this outcome be persisted and replayed to later requesters?"""
    return verdict in _CACHEABLE_VERDICTS and spec_doc.get("kind") != "selftest"


def _connect(path: str) -> sqlite3.Connection:
    import sqlite3

    conn = sqlite3.connect(
        path, timeout=_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
    )
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA cache_size=-{}".format(_CACHE_KIB))
        conn.execute(_SCHEMA)
    except BaseException:
        conn.close()
        raise
    return conn


class ResultCache:
    """Content-addressed verdict store shared across modes and sessions."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, STORE_NAME)
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: uncacheable outcomes offered to :meth:`put` (not failures)
        self.skipped = 0
        #: rows (or a whole store file) rejected by validation
        self.quarantined = 0
        #: rows whose stored format/engine version is skewed (swept on read)
        self.stale = 0
        # the daemon probes from its frontend threads
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        #: a connection inherited across fork: its parent's, never closed here
        self._inherited: Optional[sqlite3.Connection] = None

    # -- the connection ------------------------------------------------------

    def _run(self, statement: str, params: Tuple = ()) -> Optional[List[Tuple]]:
        """The rows of one autocommitted statement; None if the store failed."""
        import sqlite3

        ours = self._conn is not None and self._pid == os.getpid()
        if not ours and not self._reconnect():
            return None
        try:
            return self._conn.execute(statement, params).fetchall()
        except sqlite3.Error:
            return None

    def _reconnect(self) -> bool:
        """Open this process's connection; False if the store is unusable."""
        import sqlite3

        if self._conn is not None:
            self._inherited, self._conn = self._conn, None
        try:
            self._conn = _connect(self.path)
        except sqlite3.OperationalError:
            return False  # busy, locked or unopenable: retried next call
        except sqlite3.DatabaseError:
            # not a database (or corrupt past its header): move it aside
            self.quarantined += 1
            self._move_aside()
            try:
                self._conn = _connect(self.path)
            except sqlite3.Error:
                return False
        self._pid = os.getpid()
        return True

    def _move_aside(self) -> None:
        try:
            os.rename(self.path, self.path + ".quarantined")
        except OSError:
            pass
        for suffix in ("-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except OSError:
                pass

    def close(self) -> None:
        """Release this process's connection; the next use reopens one."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        # an inherited connection is its parent's to close
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
            self._conn = None

    @contextmanager
    def released(self) -> Iterator[None]:
        """Hold this process's connection closed for the block.

        Fork inside it: a child forked while sqlite has the store open
        copies that connection's lock bookkeeping along with its memory.
        """
        with self._lock:
            self._close_locked()
            yield

    def __len__(self) -> int:
        with self._lock:
            rows = self._run("SELECT COUNT(*) FROM results")
        return 0 if rows is None else rows[0][0]

    # -- reads ---------------------------------------------------------------

    def get(
        self,
        spec_doc: Dict[str, Any],
        index: int = 0,
        *,
        material: Optional[str] = None,
    ) -> Optional[JobResult]:
        """The memoised result for *spec_doc*, relabelled for this requester.

        *material* is the spec's canonical text when the caller already
        holds it.  Any defect in the row -- version skew, stored-key
        mismatch, non-cacheable verdict, unparsable or incomplete result --
        counts as a miss, and the row is deleted so it cannot fail every
        future read.
        """
        if material is None:
            material = spec_material(spec_doc)
        digest = result_key_digest(material)
        with self._lock:
            rows = self._run(
                "SELECT format, engine, key, result FROM results WHERE digest = ?",
                (digest,),
            )
            if not rows:
                self.misses += 1
                return None
            stored_format, stored_engine, key, text = rows[0]
            if (
                stored_format != RESULT_FORMAT_VERSION
                or stored_engine != ENGINE_SEMANTICS_VERSION
            ):
                self.stale += 1
                self._run("DELETE FROM results WHERE digest = ?", (digest,))
                self.misses += 1
                return None
            try:
                if key != material:
                    raise ValueError("stored key mismatch")
                stored = json.loads(text)
                if not isinstance(stored, dict):
                    raise ValueError("stored result is not an object")
                verdict = stored["verdict"]
                if verdict not in _CACHEABLE_VERDICTS:
                    raise ValueError("non-cacheable stored verdict")
                result = JobResult(
                    index,
                    spec_doc.get("id"),
                    verdict,
                    name=stored.get("name"),
                    counterexample=stored.get("counterexample"),
                    states_explored=stored["states_explored"],
                    transitions_explored=stored["transitions_explored"],
                    error=stored.get("error"),
                )
            except (KeyError, TypeError, ValueError):
                self.quarantined += 1
                self._run("DELETE FROM results WHERE digest = ?", (digest,))
                self.misses += 1
                return None
            self.hits += 1
            return result

    # -- writes --------------------------------------------------------------

    def put(
        self,
        spec_doc: Dict[str, Any],
        result: JobResult,
        *,
        material: Optional[str] = None,
    ) -> bool:
        """Persist *result* under *spec_doc*'s key; False if not persisted.

        Only deterministic verdicts of real checks are stored (see
        :func:`cacheable`).  The row holds the canonical result document
        minus its ``id`` (relabelled per requester on read).  Failures are
        swallowed: the cache is an accelerator, never a correctness
        dependency.
        """
        if not cacheable(spec_doc, result.verdict):
            self.skipped += 1
            return False
        if material is None:
            material = spec_material(spec_doc)
        stored = result.canonical()
        del stored["id"]
        row = (
            result_key_digest(material),
            RESULT_FORMAT_VERSION,
            ENGINE_SEMANTICS_VERSION,
            material,
            json.dumps(stored, sort_keys=True, separators=(",", ":")),
        )
        with self._lock:
            if self._run(_INSERT, row) is None:
                return False
            self.writes += 1
            return True

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Delete every row, including rows written by other processes."""
        with self._lock:
            self._run("DELETE FROM results")

    def stats(self) -> Dict[str, int]:
        return {
            "result_entries": len(self),
            "result_hits": self.hits,
            "result_misses": self.misses,
            "result_writes": self.writes,
            "result_skipped": self.skipped,
            "result_quarantined": self.quarantined,
            "result_stale": self.stale,
        }

    def __repr__(self) -> str:
        return "ResultCache({!r}, {} entries)".format(self.directory, len(self))
