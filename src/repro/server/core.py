"""The verification server core: a job queue over persistent warm workers.

This is the one execution pool in the system: the ``cspserve`` daemon runs
it behind its stdio and HTTP frontends, and ``cspbatch --jobs N`` (every
pooled :func:`~repro.batch.executor.run_batch`) runs it in-process.  A
fixed pool of **warm** worker processes stays alive across requests: the
interpreter, the imported toolchain and the shared
:class:`~repro.engine.diskcache.DiskCache` directory all persist, so only
the first request for a given model pays compilation and nobody pays
import cost twice.  Everything a worker is asked to do is still a
:class:`~repro.exec.spec.CheckSpec` document run through
:func:`~repro.exec.runtime.execute_spec` -- the sequential reference
semantics -- so a pooled or daemon-served verdict is byte-identical
(canonically) to an inline ``cspbatch`` run of the same spec.  The
document crosses the pipe as its canonical JSON text (see
:mod:`repro.exec.keys`), never as a pickled tree, so no nesting depth the
decoder accepted can break the hand-off.

Scheduling properties, in order of importance:

* **Isolation.**  A request that crashes its worker (``os._exit``, signal)
  or exceeds its deadline poisons nothing: the worker is terminated and
  respawned, the request alone resolves ``ERROR``/``TIMEOUT``, and the
  daemon keeps serving.
* **Dedup and memoisation.**  In-flight requests are keyed by
  :func:`~repro.exec.keys.structural_key`; an identical check arriving
  while one is queued or running attaches to it and shares the single
  execution, with each requester's response relabelled to its own
  ``id``/``index``.  Coalesced requests consume no queue slot.  With a
  result-cache directory configured, the in-flight table becomes the first
  tier of a two-tier cache: completed ``PASS``/``FAIL`` verdicts persist
  in a :class:`~repro.exec.resultcache.ResultCache` (written through by
  the workers, which never probe it: the probe happens here, at submit),
  and a later identical request -- this run or any future one, daemon or
  batch -- answers at submit time without a queue slot, a worker, or a
  quota charge.
* **Chunked dispatch.**  An idle worker gets a *chunk* of queued
  executions in one pipe message and answers each as it finishes.  The
  chunk fills :data:`_CHUNK_SLICE_MS` at the recent mean execution time
  (an exponential mean of the ``duration_ms`` of the results that ran),
  capped by an equal share of the queue across the whole pool and by
  :data:`_CHUNK_CAP`, and is one execution until a time has been
  measured.  A lightly loaded daemon therefore still goes one per
  message, a batch of cheap checks pays one pipe round trip per chunk,
  and heavy checks that share a message still spread over the pool: the
  first worker to free up never takes more than its share.  Each member
  keeps its own deadline, started when the previous member's result
  arrives; a crash or overrun fails only the running member and puts the
  unstarted rest back at the head of the queue.
* **Backpressure.**  The pending queue is bounded; a fail-fast submission
  against a full queue is rejected with a retryable ``queue_full`` (HTTP
  429), while batch submissions may opt to block until capacity frees.
* **Quotas.**  Each tenant may hold at most *quota* requests in flight;
  request N+1 gets a deterministic retryable ``quota`` rejection no matter
  how the scheduler is loaded.
* **Graceful drain.**  ``close(drain=True)`` stops admissions, finishes
  everything in flight, then tears the pool down; a drain deadline
  force-cancels whatever remains (``CANCELLED`` responses, never silence).

Live counts (requests, dedup hits, executions, dispatches -- one per pipe
message, so ``executions / dispatches`` is the mean chunk size --
rejections by code, worker restarts, queue depth, request latency) are
kept in a
:class:`~repro.obs.metrics.Metrics` registry -- the server's own, or the
supplied tracer's so ``--trace-out`` exports them with the spans.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Union

from ..exec.keys import material_key, spec_material
from ..exec.runtime import open_result_cache
from ..exec.spec import CANCELLED, CheckSpec, ERROR, JobResult, TIMEOUT, UNENCODABLE
from ..exec.workers import failure_result, persistent_worker_main
from ..obs.metrics import Metrics
from ..obs.profile import Profile, merge_profiles
from ..obs.trace import Tracer, ensure_tracer
from .protocol import (
    BAD_REQUEST,
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_TENANT,
    DRAINING,
    OVERSIZE,
    QUEUE_FULL,
    QUOTA,
    Rejection,
    rejection_response,
    result_response,
)

#: how long the scheduler sleeps with nothing to watch (seconds)
_IDLE_TICK = 0.5

#: how long a blocking submission waits per admission retry (seconds)
_ADMIT_TICK = 0.05

#: the worker time one chunk should fill at the recent mean (milliseconds)
_CHUNK_SLICE_MS = 2.0

#: the most executions one pipe message carries
_CHUNK_CAP = 16

#: the weight of the newest execution time in the recent mean
_MEAN_WEIGHT = 0.25


class Ticket:
    """One requester's handle on a (possibly shared) execution."""

    __slots__ = ("request_id", "check_id", "name", "index", "tenant", "_event", "_response")

    def __init__(
        self,
        request_id: Optional[str],
        check_id: Optional[str],
        name: Optional[str],
        index: int,
        tenant: str,
    ) -> None:
        self.request_id = request_id
        self.check_id = check_id
        self.name = name
        self.index = index
        self.tenant = tenant
        self._event = threading.Event()
        self._response: Optional[Dict[str, Any]] = None

    def resolve(self, response: Dict[str, Any]) -> None:
        self._response = response
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Block until the response document is ready (None on timeout)."""
        if not self._event.wait(timeout):
            return None
        return self._response

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """The response as a :class:`JobResult`; raises on rejection/timeout."""
        response = self.wait(timeout)
        if response is None:
            raise TimeoutError("no response within {}s".format(timeout))
        if response.get("status") != "ok":
            raise Rejection(response["code"], response["error"])
        return JobResult.from_doc(response["result"])


class _Execution:
    """One deduplicated unit of work and everyone waiting on it."""

    __slots__ = ("key", "material", "timeout", "tickets", "dispatched")

    def __init__(self, key: str, material: str, timeout: Optional[float]) -> None:
        self.key = key
        #: the label-stripped spec as canonical JSON text: what the worker
        #: decodes (a string pickles flat, however deep the spec nests)
        self.material = material
        self.timeout = timeout
        self.tickets: List[Ticket] = []
        #: sent to a worker before (a requeued execution counts once)
        self.dispatched = False


class _Worker:
    """One persistent worker process, its request pipe and its chunk."""

    __slots__ = ("process", "conn", "chunk", "deadline")

    def __init__(
        self,
        context,
        cache_dir: Optional[str],
        result_cache_dir: Optional[str] = None,
    ) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=persistent_worker_main,
            args=(child_conn, cache_dir, result_cache_dir, parent_conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: the executions sent and not yet answered, in order; the head runs
        self.chunk: "deque[_Execution]" = deque()
        #: when the head overruns its timeout (None: it has none)
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return bool(self.chunk)

    def start_head(self, now: float) -> None:
        """Start the deadline of the execution the worker runs next."""
        timeout = self.chunk[0].timeout if self.chunk else None
        self.deadline = None if timeout is None else now + timeout

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Ask the worker loop to exit, then join."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass


class VerificationServer:
    """The daemon core shared by the stdio and HTTP frontends."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        quota: Optional[int] = None,
        cache_dir: Optional[str] = None,
        result_cache_dir: Optional[str] = None,
        default_timeout: Optional[float] = None,
        max_timeout: Optional[float] = None,
        max_request_bytes: Optional[int] = DEFAULT_MAX_REQUEST_BYTES,
        obs: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a server needs at least one worker")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if quota is not None and quota < 1:
            raise ValueError("quota must be >= 1 (or None for unlimited)")
        self.workers = workers
        self.queue_limit = queue_limit
        self.quota = quota
        self.cache_dir = cache_dir
        self.result_cache_dir = result_cache_dir
        #: the persisted-verdict tier; the in-flight dedup table above it is
        #: tier one of the same cache (same key, lifetime of one execution)
        self.result_cache = open_result_cache(result_cache_dir)
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        #: cap on one spec's canonical encoding; None means no cap
        self.max_request_bytes = max_request_bytes
        self.tracer = ensure_tracer(obs)
        #: live counts survive even when tracing is off; with a real tracer
        #: they land in its registry so --trace-out exports them alongside
        self.metrics: Metrics = (
            self.tracer.metrics if self.tracer.enabled else Metrics()
        )
        self._cond = threading.Condition()
        self._pending: "deque[_Execution]" = deque()
        self._inflight: Dict[str, _Execution] = {}
        self._tenant_load: Dict[str, int] = {}
        self._pool: List[_Worker] = []
        self._state = "new"
        self._thread: Optional[threading.Thread] = None
        self._context = multiprocessing.get_context()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._profile: Optional[Profile] = None
        #: the recent mean execution time (ms) of results that ran; None
        #: until one is measured, never zero
        self._mean_ms: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "VerificationServer":
        with self._cond:
            if self._state != "new":
                raise RuntimeError("server already started")
            # fork the pool before the scheduler thread exists: clean children
            self._pool = [self._spawn() for _ in range(self.workers)]
            self._state = "running"
        self._thread = threading.Thread(
            target=self._scheduler, name="cspserve-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def __enter__(self) -> "VerificationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(drain=exc_type is None)
        return False

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server: drain in-flight work, or cancel it outright.

        With ``drain=True`` new submissions are rejected (``draining``)
        while queued and running requests finish; *timeout* bounds the
        wait, after which the remainder is force-cancelled.  With
        ``drain=False`` everything unfinished resolves ``CANCELLED``
        immediately.
        """
        with self._cond:
            if self._state in ("new", "closed"):
                self._state = "closed"
                self._release()
                return
            self._state = "draining" if drain else "closed"
            self._cond.notify_all()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                # drain deadline passed: force-cancel the stragglers
                with self._cond:
                    self._state = "closed"
                    self._cond.notify_all()
                self._wake()
                self._thread.join()
        self._release()

    def _release(self) -> None:
        self._wake_r.close()
        self._wake_w.close()
        if self.result_cache is not None:
            self.result_cache.close()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: Union[CheckSpec, Dict[str, Any]],
        *,
        tenant: str = DEFAULT_TENANT,
        timeout: Optional[float] = None,
        request_id: Optional[str] = None,
        index: int = 0,
        block: bool = False,
    ) -> Ticket:
        """Admit one check; returns a ticket or raises :class:`Rejection`.

        *spec* is a wire document, or a :class:`CheckSpec` the caller
        already holds (a pooled batch), which is then neither decoded nor
        turned into a document: its canonical text comes from
        :meth:`CheckSpec.material`.  A spec that cannot be decoded or
        encoded is a ``bad_request``.
        ``block=False`` is the fail-fast flavour every interactive request
        gets: a full queue or an exceeded quota rejects immediately (the
        client retries or fails closed).  ``block=True`` is for batch
        submission, where backpressure should slow the submitter down
        instead -- the call waits for queue and quota capacity, and only a
        draining server still rejects.
        """
        # one encoding per request: the size cap, the dedup key, the
        # result-cache row and the worker's hand-off all use this text
        if isinstance(spec, CheckSpec):
            try:
                material = spec.material()
            except UNENCODABLE as error:
                raise self._reject(BAD_REQUEST, "unencodable spec: {}".format(error))
        else:
            try:
                spec_doc, spec = spec, CheckSpec.from_doc(spec)
                material = spec_material(spec_doc)
            except UNENCODABLE as error:
                # ManifestError is a ValueError.  RecursionError: near the
                # recursion limit a spec can decode yet be too deep to
                # re-encode a few frames further down
                raise self._reject(BAD_REQUEST, "undecodable spec: {}".format(error))
        size = len(material.encode("utf-8"))
        if self.max_request_bytes is not None and size > self.max_request_bytes:
            raise self._reject(
                OVERSIZE,
                "spec of {} bytes exceeds the {} byte cap".format(
                    size, self.max_request_bytes
                ),
            )
        key = material_key(material)
        # probe the persisted-verdict tier before the lock (disk I/O): a
        # memoised check answers without a queue slot, a worker, or a
        # charge against the tenant's quota
        memoised = (
            None
            if self.result_cache is None
            else self.result_cache.get(material, index, check_id=spec.check_id)
        )
        effective = timeout if timeout is not None else self.default_timeout
        if self.max_timeout is not None:
            effective = (
                self.max_timeout
                if effective is None
                else min(effective, self.max_timeout)
            )
        ticket = Ticket(request_id, spec.check_id, spec.name, index, tenant)
        wake = False
        with self._cond:
            if memoised is not None:
                if self._state != "running":
                    raise self._reject(
                        DRAINING, "server is {}".format(self._state), locked=True
                    )
                self.metrics.counter("server.requests").inc()
                self.metrics.counter("server.result_hits").inc()
                self.metrics.counter("result_cache.hits").inc()
                doc = memoised.to_doc()
                if ticket.name is not None:
                    doc["name"] = ticket.name
                ticket.resolve(result_response(ticket.request_id, doc))
                return ticket
            if self.result_cache is not None:
                self.metrics.counter("result_cache.misses").inc()
            while True:
                if self._state != "running":
                    raise self._reject(
                        DRAINING, "server is {}".format(self._state), locked=True
                    )
                load = self._tenant_load.get(tenant, 0)
                if self.quota is not None and load >= self.quota:
                    if block:
                        self._cond.wait(_ADMIT_TICK)
                        continue
                    raise self._reject(
                        QUOTA,
                        "tenant {!r} already has {} requests in flight "
                        "(quota {})".format(tenant, load, self.quota),
                        locked=True,
                    )
                execution = self._inflight.get(key)
                if execution is not None:
                    execution.tickets.append(ticket)
                    self.metrics.counter("server.dedup_hits").inc()
                    break
                if len(self._pending) >= self.queue_limit:
                    if block:
                        self._cond.wait(_ADMIT_TICK)
                        continue
                    raise self._reject(
                        QUEUE_FULL,
                        "queue full ({} pending)".format(len(self._pending)),
                        locked=True,
                    )
                execution = _Execution(key, material, effective)
                execution.tickets.append(ticket)
                self._inflight[key] = execution
                # the scheduler never sleeps on a non-empty queue while a
                # worker is idle, so only the first arrival must wake it
                wake = not self._pending
                self._pending.append(execution)
                self.metrics.gauge("server.queue_depth").set(len(self._pending))
                break
            self._tenant_load[tenant] = self._tenant_load.get(tenant, 0) + 1
            self.metrics.counter("server.requests").inc()
            self.metrics.gauge("server.inflight").set(len(self._inflight))
        if wake:
            self._wake()
        return ticket

    def _reject(self, code: str, message: str, *, locked: bool = False) -> Rejection:
        if locked:
            self.metrics.counter("server.rejected.{}".format(code)).inc()
        else:
            with self._cond:
                self.metrics.counter("server.rejected.{}".format(code)).inc()
        return Rejection(code, message)

    def count(self, name: str) -> None:
        """Add one to the counter *name*, for events a frontend observes.

        Taken under the scheduler lock, like every other counter:
        ``Counter.inc`` is a read-modify-write.
        """
        with self._cond:
            self.metrics.counter(name).inc()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-shaped live snapshot: scheduler state plus all counters."""
        with self._cond:
            return {
                "state": self._state,
                "workers": len(self._pool),
                "busy_workers": sum(1 for w in self._pool if w.busy),
                "pending": len(self._pending),
                "inflight": len(self._inflight),
                "tenants": dict(sorted(self._tenant_load.items())),
                "quota": self.quota,
                "queue_limit": self.queue_limit,
                "result_cache": (
                    None
                    if self.result_cache is None
                    else self.result_cache.stats()
                ),
                "metrics": self.metrics.snapshot(),
            }

    def merged_profile(self) -> Optional[Profile]:
        """Per-request profiles merged by summation (tracing runs only)."""
        with self._cond:
            return self._profile

    # -- the scheduler thread ------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # already signalled (or closing) -- both fine

    def _scheduler(self) -> None:
        while True:
            with self._cond:
                state = self._state
                if state == "closed":
                    self._cancel_everything_locked()
                    break
                self._assign_locked()
                if state == "draining" and not self._inflight:
                    self._state = "closed"
                    self._cond.notify_all()
                    break
                busy = [worker for worker in self._pool if worker.busy]
                deadlines = [
                    worker.deadline for worker in busy if worker.deadline is not None
                ]
                watched = [worker.conn for worker in busy]
                # a worker respawned while assigning is idle: assign again
                # at once rather than sleep on a non-empty queue
                stalled = bool(self._pending) and len(busy) < len(self._pool)
            wait_for = 0.0 if stalled else _IDLE_TICK
            if deadlines:
                wait_for = min(wait_for, max(0.0, min(deadlines) - time.perf_counter()))
            ready = multiprocessing.connection.wait(
                watched + [self._wake_r], timeout=wait_for
            )
            self._drain_wake(ready)
            now = time.perf_counter()
            with self._cond:
                for worker in list(self._pool):
                    if not worker.busy:
                        continue
                    if worker.conn in ready:
                        self._collect_locked(worker)
                    elif worker.deadline is not None and now >= worker.deadline:
                        self._expire_locked(worker)
        self._teardown()

    def _drain_wake(self, ready) -> None:
        if self._wake_r in ready:
            try:
                while self._wake_r.recv(4096):
                    pass
            except (BlockingIOError, OSError):
                pass

    def _assign_locked(self) -> None:
        idle = [worker for worker in self._pool if not worker.busy]
        while self._pending and idle:
            worker = idle.pop(0)
            size = self._chunk_size_locked()
            chunk = [self._pending.popleft() for _ in range(size)]
            try:
                worker.conn.send(
                    ([execution.material for execution in chunk], self.tracer.enabled)
                )
            except (BrokenPipeError, OSError):
                # the worker died idle; its replacement takes the chunk on
                # the next pass
                self._pending.extendleft(reversed(chunk))
                self._respawn_locked(worker)
                continue
            worker.chunk.extend(chunk)
            worker.start_head(time.perf_counter())
            self.metrics.counter("server.dispatches").inc()
            fresh = [execution for execution in chunk if not execution.dispatched]
            for execution in fresh:
                execution.dispatched = True
            self.metrics.counter("server.executions").inc(len(fresh))
        self.metrics.gauge("server.queue_depth").set(len(self._pending))

    def _chunk_size_locked(self) -> int:
        """How many queued executions the next idle worker gets at once.

        One until an execution time has been measured; then as many as
        fill :data:`_CHUNK_SLICE_MS` at the recent mean, but never more
        than an equal share of the queue across the whole pool
        (``ceil(pending / workers)``, so a worker that frees up while the
        others are busy leaves them their part of a heavy tail), never
        more than :data:`_CHUNK_CAP` and never fewer than one.
        """
        if self._mean_ms is None:
            return 1
        share = -(-len(self._pending) // self.workers)
        fill = int(_CHUNK_SLICE_MS / self._mean_ms)
        return max(1, min(share, fill, _CHUNK_CAP))

    def _collect_locked(self, worker: _Worker) -> None:
        """Take every result the worker has sent so far, in chunk order."""
        while True:
            try:
                doc = worker.conn.recv()
            except (EOFError, OSError):
                # the pipe closed without a payload: the worker died mid-request
                worker.process.join()
                exitcode = worker.process.exitcode
                self._lose_worker_locked(
                    worker,
                    _failure_doc(ERROR, "worker exited with code {}".format(exitcode)),
                )
                return
            execution = worker.chunk.popleft()
            worker.start_head(time.perf_counter())
            duration = doc["duration_ms"]
            # a result that never ran (an undecodable spec) carries no time
            if duration > 0:
                self._mean_ms = (
                    duration
                    if self._mean_ms is None
                    else self._mean_ms + _MEAN_WEIGHT * (duration - self._mean_ms)
                )
            self._resolve_locked(execution, doc)
            if not worker.chunk or not worker.conn.poll():
                return

    def _expire_locked(self, worker: _Worker) -> None:
        timeout = worker.chunk[0].timeout
        self._lose_worker_locked(
            worker,
            _failure_doc(
                TIMEOUT, "request exceeded {:.1f}s timeout".format(timeout or 0.0)
            ),
        )

    def _lose_worker_locked(self, worker: _Worker, result_doc: Dict[str, Any]) -> None:
        """The worker crashed or overran: fail its running execution alone.

        The unstarted rest of its chunk goes back to the head of the queue,
        in order, and a fresh worker replaces the killed one.
        """
        chunk, worker.chunk = worker.chunk, deque()
        worker.deadline = None
        self._resolve_locked(chunk.popleft(), result_doc)
        self._pending.extendleft(reversed(chunk))
        self._respawn_locked(worker)

    def _resolve_locked(self, execution: _Execution, result_doc: Dict[str, Any]) -> None:
        self._inflight.pop(execution.key, None)
        verdict = result_doc.get("verdict", ERROR)
        self.metrics.counter("server.completed").inc()
        self.metrics.counter("server.verdict.{}".format(verdict.lower())).inc()
        self.metrics.histogram("server.request_ms").observe(
            result_doc.get("duration_ms", 0.0)
        )
        profile_doc = result_doc.get("profile")
        if profile_doc is not None:
            members = [Profile.from_dict(profile_doc)]
            if self._profile is not None:
                members.append(self._profile)
            self._profile = merge_profiles(members)
        for ticket in execution.tickets:
            doc = dict(result_doc)
            doc["id"] = ticket.check_id
            doc["index"] = ticket.index
            if ticket.name is not None:
                doc["name"] = ticket.name
            load = self._tenant_load.get(ticket.tenant, 0) - 1
            if load > 0:
                self._tenant_load[ticket.tenant] = load
            else:
                self._tenant_load.pop(ticket.tenant, None)
            ticket.resolve(result_response(ticket.request_id, doc))
        self.metrics.gauge("server.inflight").set(len(self._inflight))
        self._cond.notify_all()

    def _respawn_locked(self, worker: _Worker) -> None:
        worker.kill()
        try:
            self._pool.remove(worker)
        except ValueError:
            pass
        self.metrics.counter("server.worker_restarts").inc()
        if self._state != "closed":
            self._pool.append(self._spawn())

    def _spawn(self) -> _Worker:
        if self.result_cache is None:
            return _Worker(self._context, self.cache_dir, self.result_cache_dir)
        # a child forked while this process holds a sqlite connection would
        # inherit its lock state; the worker opens a connection of its own
        with self.result_cache.released():
            return _Worker(self._context, self.cache_dir, self.result_cache_dir)

    def _cancel_everything_locked(self) -> None:
        cancelled = _failure_doc(CANCELLED, "server closed")
        while self._pending:
            execution = self._pending.popleft()
            self._resolve_locked(execution, dict(cancelled))
        for worker in self._pool:
            if worker.busy:
                chunk, worker.chunk = worker.chunk, deque()
                worker.deadline = None
                for execution in chunk:
                    self._resolve_locked(execution, dict(cancelled))
                worker.kill()
        self.metrics.gauge("server.queue_depth").set(0)

    def _teardown(self) -> None:
        with self._cond:
            pool, self._pool = self._pool, []
            self._state = "closed"
            self._cond.notify_all()
        for worker in pool:
            if worker.process.is_alive():
                worker.shutdown()
            else:
                worker.kill()


def _failure_doc(verdict: str, error: str) -> Dict[str, Any]:
    # unlabelled: _resolve_locked stamps each ticket's id, index and name
    return failure_result(verdict, error).to_doc()
