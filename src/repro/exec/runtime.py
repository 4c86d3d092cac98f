"""Spec execution: the one ``CheckSpec -> JobResult`` core every mode uses.

:func:`execute_spec` is the **sequential reference semantics**.  It is not
batch-specific -- the warm workers of the one execution pool (pooled
batches and the daemon) and the inline path all call exactly this
function, and the conformance corpus holds all of them to its
byte-identical canonical output.

:func:`execute_cached` layers verdict memoisation on top: probe a
:class:`~repro.exec.resultcache.ResultCache` before executing, promote the
outcome write-through after.  A hit reproduces the cold run's canonical
bytes exactly (that is the cache's storage contract), differing only in the
run-varying fields (``duration_ms``, ``worker_pid``, ``profile``) that the
canonical surface already excludes.

The cache never changes a verdict and never turns an error into an answer:
uncacheable outcomes (selftests, ``ERROR``/``TIMEOUT``/``CANCELLED``) pass
straight through, and a defective entry degrades to a miss inside
:meth:`ResultCache.get`.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ..csp.lts import DEFAULT_STATE_LIMIT
from ..engine.cache import CompilationCache
from ..engine.diskcache import DiskCache
from ..engine.pipeline import VerificationPipeline
from ..obs.metrics import Metrics
from ..obs.trace import Tracer
from .keys import spec_material
from .resultcache import ResultCache
from .spec import CheckSpec, ERROR, FAIL, JobResult, PASS


def execute_spec(
    spec: CheckSpec,
    index: int = 0,
    *,
    cache_dir: Optional[str] = None,
    profile: bool = False,
) -> JobResult:
    """Run one spec to completion in this process.

    The sequential reference semantics: every other mode -- the warm
    worker pool of pooled batches and the daemon, the memoised flavour
    below -- must produce byte-identical
    :meth:`~repro.exec.spec.JobResult.canonical` documents to this
    function for every spec.  Each call builds a fresh
    pipeline -- fresh environment, alphabet table, and in-memory cache
    (optionally layered over the shared disk store) -- so specs cannot
    interfere.
    """
    started = time.perf_counter()
    obs = Tracer() if profile else None
    cache = None
    if cache_dir is not None:
        cache = CompilationCache(disk=DiskCache(cache_dir))
    check = None
    try:
        if spec.kind == "selftest":
            result = _run_selftest(spec, index, started)
        elif spec.kind == "requirement":
            from ..ota.requirements import check_requirement

            check = check_requirement(
                spec.req_id, passes=spec.passes, obs=obs, cache=cache
            )
            result = JobResult.of_check_result(index, spec.check_id, check)
        elif spec.kind == "refinement":
            check = _pipeline(spec, cache, obs).refinement(
                spec.spec, spec.impl, spec.model, spec.name
            )
            result = JobResult.of_check_result(index, spec.check_id, check)
        elif spec.kind == "trace":
            from ..rv.check import check_trace_membership

            check = check_trace_membership(
                spec.spec,
                spec.trace,
                env=spec.environment(),
                name=spec.name,
                lines=spec.trace_lines,
                max_states=_limit(spec),
                passes=spec.passes,
                cache=cache,
                obs=obs,
            )
            result = JobResult.of_check_result(index, spec.check_id, check)
        else:
            check = _pipeline(spec, cache, obs).property_check(
                spec.term, spec.property_name, spec.name
            )
            result = JobResult.of_check_result(index, spec.check_id, check)
    except Exception as error:
        result = JobResult(
            index,
            spec.check_id,
            ERROR,
            name=spec.name,
            error="{}: {}".format(type(error).__name__, error),
        )
    result.duration_ms = (time.perf_counter() - started) * 1000.0
    result.worker_pid = os.getpid()
    if profile and check is not None and check.profile is not None:
        result.profile = check.profile.as_dict()
    return result


def _limit(spec: CheckSpec) -> int:
    return DEFAULT_STATE_LIMIT if spec.max_states is None else spec.max_states


def _pipeline(spec: CheckSpec, cache, obs) -> VerificationPipeline:
    """A fresh pipeline over the spec's own bindings, state budget and passes."""
    return VerificationPipeline(
        spec.environment(),
        cache=cache,
        max_states=_limit(spec),
        passes=spec.passes,
        obs=obs,
    )


def _run_selftest(spec: CheckSpec, index: int, started: float) -> JobResult:
    """Fault-injection ops: exercise the executor's failure handling."""
    op = spec.op or ""
    if op == "pass":
        return JobResult(index, spec.check_id, PASS, name=spec.name)
    if op == "fail":
        return JobResult(
            index,
            spec.check_id,
            FAIL,
            name=spec.name,
            counterexample={
                "kind": "trace",
                "trace": ["selftest"],
                "description": "injected failure",
            },
        )
    if op == "raise":
        raise RuntimeError("injected worker exception")
    if op.startswith("sleep:"):
        time.sleep(float(op.split(":", 1)[1]))
        return JobResult(index, spec.check_id, PASS, name=spec.name)
    if op.startswith("exit:"):
        # simulate a hard crash (segfault-alike): no teardown, no result
        os._exit(int(op.split(":", 1)[1]))
    raise ValueError("unknown selftest op {!r}".format(op))


# -- memoised execution --------------------------------------------------------


def execute_cached(
    spec: CheckSpec,
    index: int = 0,
    *,
    cache_dir: Optional[str] = None,
    profile: bool = False,
    result_cache: Optional[ResultCache] = None,
    metrics: Optional[Metrics] = None,
) -> JobResult:
    """:func:`execute_spec` with a :class:`ResultCache` probe around it.

    With ``result_cache=None`` this *is* ``execute_spec`` -- same bytes,
    same counters untouched.  Otherwise: a valid stored verdict answers
    immediately (relabelled to this requester's id/index, ``duration_ms``
    near zero and ``worker_pid`` this process -- both outside the canonical
    surface), and a fresh execution is promoted write-through so the next
    identical request in any mode hits.  The spec is encoded once: the
    probe and the write-through share its canonical text.  (The server's
    workers do not come through here: the server probed at submit, so
    they only write through, see
    :func:`~repro.exec.workers.execute_material`.)
    """
    if result_cache is None:
        return execute_spec(
            spec, index, cache_dir=cache_dir, profile=profile
        )
    started = time.perf_counter()
    doc = spec.to_doc()
    material = spec_material(doc)
    hit = result_cache.get(doc, index, material=material)
    if hit is not None:
        if metrics is not None:
            metrics.counter("result_cache.hits").inc()
        hit.duration_ms = (time.perf_counter() - started) * 1000.0
        hit.worker_pid = os.getpid()
        return hit
    if metrics is not None:
        metrics.counter("result_cache.misses").inc()
        metrics.counter("exec.executions").inc()
    result = execute_spec(spec, index, cache_dir=cache_dir, profile=profile)
    if result_cache.put(doc, result, material=material) and metrics is not None:
        metrics.counter("result_cache.writes").inc()
    return result


# -- construction --------------------------------------------------------------


def open_result_cache(directory: Optional[str]) -> Optional[ResultCache]:
    """A :class:`ResultCache` on *directory*, or None when memoisation is off."""
    return None if directory is None else ResultCache(directory)
