"""Spec execution: the one ``CheckSpec -> JobResult`` core every mode uses.

:func:`execute_spec` is the **sequential reference semantics**.  It used to
live in :mod:`repro.batch.executor`; it moved here because it was never
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
from typing import Any, Dict, Optional

from ..batch.spec import CheckSpec, ERROR, FAIL, JobResult, PASS
from ..obs.metrics import Metrics
from ..obs.trace import Tracer
from .keys import spec_material
from .resultcache import ResultCache


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
    :meth:`~repro.batch.spec.JobResult.canonical` documents to this
    function for every spec.  Each call builds a fresh
    pipeline -- fresh environment, alphabet table, and in-memory cache
    (optionally layered over the shared disk store) -- so specs cannot
    interfere.
    """
    from .. import api
    from ..engine.cache import CompilationCache
    from ..engine.diskcache import DiskCache

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
            check = api.check_refinement(
                spec.spec,
                spec.impl,
                spec.model,
                env=spec.environment(),
                name=spec.name,
                passes=spec.passes,
                cache=cache,
                obs=obs,
                **_budget(spec),
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
                passes=spec.passes,
                cache=cache,
                obs=obs,
                **_budget(spec),
            )
            result = JobResult.of_check_result(index, spec.check_id, check)
        else:
            check = api.check_property(
                spec.term,
                spec.property_name,
                env=spec.environment(),
                name=spec.name,
                passes=spec.passes,
                cache=cache,
                obs=obs,
                **_budget(spec),
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


def _budget(spec: CheckSpec) -> Dict[str, Any]:
    return {} if spec.max_states is None else {"max_states": spec.max_states}


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
    spec_doc: Optional[Dict[str, Any]] = None,
    material: Optional[str] = None,
) -> JobResult:
    """:func:`execute_spec` with a :class:`ResultCache` probe around it.

    With ``result_cache=None`` this *is* ``execute_spec`` -- same bytes,
    same counters untouched.  Otherwise: a valid stored verdict answers
    immediately (relabelled to this requester's id/index, ``duration_ms``
    near zero and ``worker_pid`` this process -- both outside the canonical
    surface), and a fresh execution is promoted write-through so the next
    identical request in any mode hits.  The spec is encoded once: the
    probe and the write-through share its canonical text.  Callers that
    already hold the wire document and its text (the server's workers)
    pass *spec_doc* and *material* to skip even that; both must
    round-trip to *spec*.
    """
    if result_cache is None:
        return execute_spec(
            spec, index, cache_dir=cache_dir, profile=profile
        )
    started = time.perf_counter()
    doc = spec_doc if spec_doc is not None else spec.to_doc()
    if material is None:
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


# -- construction and CLI plumbing ---------------------------------------------


def open_result_cache(directory: Optional[str]) -> Optional[ResultCache]:
    """A :class:`ResultCache` on *directory*, or None when memoisation is off."""
    return None if directory is None else ResultCache(directory)


def resolve_result_cache_dir(args: Any) -> Optional[str]:
    """The result-cache directory an argparse namespace asks for, if any.

    The flag pair installed by
    :func:`repro.cli_common.add_result_cache_args`: ``--result-cache DIR``
    opts in (memoisation is never on by default -- a default-on verdict
    store would surprise exactly the regression reruns that must observe
    today's engine), and ``--no-result-cache`` wins over it, so wrapper
    scripts can force a run cold without editing the wrapped command.
    """
    if getattr(args, "no_result_cache", False):
        return None
    return getattr(args, "result_cache", None)
