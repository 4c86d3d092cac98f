"""The batch executor: run a spec list inline or on a warm worker pool.

``jobs >= 1`` runs the batch on an in-process
:class:`~repro.server.core.VerificationServer` -- the same scheduler the
``cspserve`` daemon uses, with *jobs* persistent warm workers.  Every spec
is submitted at once (the queue is sized to the batch, so submission never
blocks) and the tickets are collected in input order.  A worker that
crashes or overruns its deadline is killed and respawned by the server, so
a broken job fails alone and its siblings keep going; identical specs
coalesce onto one execution, and the server's result cache answers
memoised specs at submit time without a worker.  ``jobs <= 0`` (or
``inline=True``) runs everything sequentially in this process.

Determinism: results are keyed by the spec's position in the input list and
reported in that order regardless of completion order, and every execution
builds a fresh pipeline (own environment, alphabet table, in-memory cache),
so nothing about scheduling can leak into a verdict.  Execution itself
lives in :mod:`repro.exec` -- :func:`~repro.exec.runtime.execute_spec` is
the sequential reference both paths are held to.

Verdict taxonomy per job:

========== ==============================================================
``PASS``   the check ran and held
``FAIL``   the check ran and produced a counterexample
``ERROR``  the check raised, or its worker died (crash, nonzero exit)
``TIMEOUT`` the job exceeded its deadline and its worker was killed
``CANCELLED`` the batch was cancelled (or hit its batch deadline) first
========== ==============================================================
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

# the execution core moved to repro.exec; re-exported because this module
# defined it first and every mode's callers import it from here
from ..exec.runtime import execute_cached, execute_spec, open_result_cache
from ..exec.workers import failure_result
from ..obs.profile import Profile, merge_profiles
from ..obs.trace import Tracer, ensure_tracer
from .spec import CANCELLED, CheckSpec, ERROR, JobResult, PASS

#: how often a pooled batch re-checks its cancel event (seconds)
_POLL = 0.1


class BatchReport:
    """All job results of one batch, in input order, plus batch totals."""

    def __init__(
        self,
        results: List[JobResult],
        *,
        wall_ms: float,
        jobs: int,
        profile: Optional[Profile] = None,
        result_cache_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self.results = results
        self.wall_ms = wall_ms
        self.jobs = jobs
        #: per-job profiles merged by summation (aggregate compute; may
        #: exceed wall_ms under parallelism -- the gap is the speedup)
        self.profile = profile
        #: this process's :meth:`~repro.exec.resultcache.ResultCache.stats`
        #: snapshot (None when memoisation was off); pooled workers keep
        #: their own write-through counters, so pooled numbers cover probes
        self.result_cache_stats = result_cache_stats

    @property
    def ok(self) -> bool:
        return all(result.verdict == PASS for result in self.results)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for result in self.results:
            tally[result.verdict] = tally.get(result.verdict, 0) + 1
        return tally

    def summary(self) -> str:
        parts = [
            "{} {}".format(count, verdict)
            for verdict, count in sorted(self.counts().items())
        ]
        return "{} jobs ({}) in {:.1f} ms on {} worker{}".format(
            len(self.results),
            ", ".join(parts) if parts else "empty",
            self.wall_ms,
            self.jobs,
            "" if self.jobs == 1 else "s",
        )

    def __repr__(self) -> str:
        return "BatchReport({})".format(self.summary())


def run_batch(
    specs: Sequence[CheckSpec],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    batch_timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    result_cache_dir: Optional[str] = None,
    obs: Optional[Tracer] = None,
    cancel: Optional[threading.Event] = None,
    inline: bool = False,
) -> BatchReport:
    """Verify every spec; return results in input order.

    *jobs* is the number of warm worker processes.  *timeout* is per job
    (wall seconds); *batch_timeout* bounds the whole run -- jobs not
    finished when it expires come back ``CANCELLED``, and running ones have
    their workers killed.  *cancel* is an external kill switch with the
    same effect.  ``inline=True`` (or ``jobs <= 0``) runs everything
    sequentially in this process -- no workers, same results.
    *result_cache_dir* enables verdict memoisation: memoised specs answer
    without executing and fresh ``PASS``/``FAIL`` outcomes are promoted
    write-through; canonical result bytes are identical either way.  With
    a real tracer in *obs*, every job also carries its profile and the
    report merges them.
    """
    tracer = ensure_tracer(obs)
    started = time.perf_counter()
    batch_deadline = (
        None if batch_timeout is None else started + batch_timeout
    )
    with tracer.span("batch", jobs=jobs, specs=len(specs)):
        if inline or jobs <= 0:
            result_cache = open_result_cache(result_cache_dir)
            try:
                results = _run_inline(
                    specs, cache_dir, cancel, batch_deadline, result_cache, tracer
                )
                cache_stats = None if result_cache is None else result_cache.stats()
            finally:
                if result_cache is not None:
                    result_cache.close()
        else:
            results, cache_stats = _run_pooled(
                specs,
                jobs,
                timeout,
                batch_deadline,
                cache_dir,
                result_cache_dir,
                obs,
                cancel,
            )
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("batch.jobs").inc(len(results))
            for result in results:
                metrics.counter(
                    "batch.{}".format(result.verdict.lower())
                ).inc()
    wall_ms = (time.perf_counter() - started) * 1000.0
    merged = None
    if tracer.enabled:
        merged = merge_profiles(
            [
                Profile.from_dict(result.profile)
                for result in results
                if result.profile is not None
            ]
        )
    return BatchReport(
        results,
        wall_ms=wall_ms,
        jobs=max(jobs, 1),
        profile=merged,
        result_cache_stats=cache_stats,
    )


def _cancelled_result(index: int, spec: CheckSpec) -> JobResult:
    return failure_result(
        CANCELLED,
        "batch cancelled",
        index=index,
        check_id=spec.check_id,
        name=spec.name,
    )


def _stopped(
    cancel: Optional[threading.Event], batch_deadline: Optional[float]
) -> bool:
    if cancel is not None and cancel.is_set():
        return True
    return batch_deadline is not None and time.perf_counter() >= batch_deadline


def _run_inline(
    specs: Sequence[CheckSpec],
    cache_dir: Optional[str],
    cancel: Optional[threading.Event],
    batch_deadline: Optional[float],
    result_cache,
    tracer: Tracer,
) -> List[JobResult]:
    metrics = tracer.metrics if tracer.enabled else None
    results: List[JobResult] = []
    for index, spec in enumerate(specs):
        if _stopped(cancel, batch_deadline):
            results.append(_cancelled_result(index, spec))
            continue
        results.append(
            execute_cached(
                spec,
                index,
                cache_dir=cache_dir,
                profile=tracer.enabled,
                result_cache=result_cache,
                metrics=metrics,
            )
        )
    return results


def _run_pooled(
    specs: Sequence[CheckSpec],
    jobs: int,
    timeout: Optional[float],
    batch_deadline: Optional[float],
    cache_dir: Optional[str],
    result_cache_dir: Optional[str],
    obs: Optional[Tracer],
    cancel: Optional[threading.Event],
):
    """Run the batch on an in-process server; return results and cache stats."""
    # deferred: the server package builds on repro.batch.spec
    from ..server.core import VerificationServer
    from ..server.protocol import Rejection

    server = VerificationServer(
        workers=jobs,
        queue_limit=max(len(specs), 1),
        cache_dir=cache_dir,
        result_cache_dir=result_cache_dir,
        max_request_bytes=None,
        obs=obs,
    )
    with server:
        tickets = []
        for index, spec in enumerate(specs):
            try:
                tickets.append(
                    server.submit(spec.to_doc(), timeout=timeout, index=index)
                )
            except Rejection as rejection:
                # the queue is sized to the batch, so only an undecodable
                # spec is refused; it fails alone, like a check that raised
                tickets.append(
                    failure_result(
                        ERROR,
                        rejection.message,
                        index=index,
                        check_id=spec.check_id,
                        name=spec.name,
                    )
                )
        for ticket in tickets:
            if isinstance(ticket, JobResult):
                continue
            while not ticket.done and not _stopped(cancel, batch_deadline):
                wait = _POLL
                if batch_deadline is not None:
                    wait = min(wait, max(0.0, batch_deadline - time.perf_counter()))
                ticket.wait(wait)
            if not ticket.done:
                # resolves every unfinished ticket CANCELLED and kills the
                # workers that were running them
                server.close(drain=False)
                break
        cache_stats = (
            None if server.result_cache is None else server.result_cache.stats()
        )
    results = []
    for index, (spec, ticket) in enumerate(zip(specs, tickets)):
        result = ticket if isinstance(ticket, JobResult) else ticket.result()
        if result.verdict == CANCELLED:
            result = _cancelled_result(index, spec)
        results.append(result)
    return results, cache_stats
