"""exec-mix: one seeded spec set through the ``cspbatch`` pool, then the daemon.

The set mixes fleet trace checks, the 30-case conformance corpus, Table III
R01-R05 and the small ladder rungs as ``cspcheck`` assertion documents,
plus a fixed share of repeats under fresh ids (the work the dedup and
ResultCache tiers exist for).  A unit runs the set as ``cspbatch --jobs 2``
(``run_batch`` with a fresh ResultCache), then serves it from an in-process
``cspserve`` (2 warm workers over HTTP, a fresh ResultCache) to a closed
loop of 2 client threads: each client sends its next ``/check`` only after
the previous reply, because on 2 cores an open-loop generator would compete
with the server for the CPU.  Both modes must reproduce the canonical lines
of an inline run of the same specs byte for byte.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from types import SimpleNamespace

from repro.batch import CheckSpec, JobResult, load_manifest, requirement_specs, run_batch
from repro.batch.spec import reachable_bindings
from repro.cspm.evaluator import load
from repro.exec.resultcache import ResultCache
from repro.rv.cli import load_rv_manifest, specs_from_manifest
from repro.server import Rejection, ServerClient, ServerError, VerificationServer
from repro.server.http import HttpFrontend

from perfbench import fleet_rv, ladder
from perfbench.common import ROOT, Unit, cpu_seconds, fresh_dir, percentile

CONFORMANCE = os.path.join(ROOT, "tests", "conformance", "manifest.json")

VEHICLES = {"full": 150, "tiny": 8}
#: share of the set sent a second time under a fresh id
REPEAT_SHARE = 0.25
JOBS = 2
WORKERS = 2
CLIENTS = 2


def assertion_specs(rung):
    """The rung's assertions as self-contained refinement/property specs."""
    model = load(rung.script)
    specs = []
    for decl in model.assertions:
        left = model.eval_process(decl.left, {})
        if decl.kind in ("T", "F", "FD"):
            right = model.eval_process(decl.right, {})
            bindings = reachable_bindings(model.env, left, right)
            specs.append(CheckSpec.refinement(left, right, decl.kind, bindings=bindings))
        else:
            bindings = reachable_bindings(model.env, left)
            specs.append(CheckSpec.property_check(left, decl.kind, bindings=bindings))
    return specs


def setup(seed: int, directory: str, size: str) -> SimpleNamespace:
    rng = random.Random(seed)
    manifest, _faulty = fleet_rv.write_fleet(os.path.join(directory, "fleet"), VEHICLES[size], seed)
    specs = specs_from_manifest(load_rv_manifest(manifest), os.path.dirname(manifest))
    specs += load_manifest(CONFORMANCE)
    specs += requirement_specs()
    for rung in ladder.ladder(seed, "tiny")[:-1]:
        specs += assertion_specs(rung)
    docs = [spec.to_doc() for spec in specs]
    # every kind of check is repeated in the same share, so the seed moves
    # the order of the mix but not how much of each kind of work it holds
    docs += docs[:: round(1 / REPEAT_SHARE)]
    rng.shuffle(docs)
    mix = [
        CheckSpec.from_doc(dict(doc, id="mix-{:04d}".format(index)))
        for index, doc in enumerate(docs)
    ]
    served_results = os.path.join(directory, "served-results")
    server = VerificationServer(workers=WORKERS, result_cache_dir=served_results).start()
    frontend = HttpFrontend(server).start()
    return SimpleNamespace(
        specs=mix,
        expected=None,
        server=server,
        frontend=frontend,
        served_results=served_results,
        pool_results=os.path.join(directory, "pool-results"),
        speedups=[],
        roundtrips_ms=[],
    )


def _serve(state, recorder):
    """Every spec through the daemon, from a closed loop of client threads."""
    count = len(state.specs)
    served = [None] * count
    serialise_s = [0.0] * count
    roundtrip_s = [0.0] * count
    cursor = iter(range(count))
    lock = threading.Lock()

    def client(phase) -> None:
        recorder.attach(phase, 1.0 / CLIENTS)
        http = ServerClient(state.frontend.url)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            began = time.perf_counter()
            with recorder.span("server.client_serialise"):
                doc = state.specs[index].to_doc()
            sent = time.perf_counter()
            try:
                with recorder.span("server.roundtrip"):
                    served[index] = http.check(doc, index=index)
            except (Rejection, ServerError) as error:
                served[index] = error
            roundtrip_s[index] = time.perf_counter() - sent
            serialise_s[index] = sent - began

    with recorder.span("server.serve") as phase:
        threads = [threading.Thread(target=client, args=(phase,)) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return served, serialise_s, roundtrip_s


def _counter_deltas(before, after):
    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    rejected = [name for name in after if name.startswith("server.rejected.")]
    return {
        "server.executions": delta("server.executions"),
        "server.dedup_hits": delta("server.dedup_hits"),
        "server.result_hits": delta("server.result_hits"),
        "server.rejections": sum(delta(name) for name in rejected),
        "server.worker_restarts": delta("server.worker_restarts"),
    }


def unit(state, tally, recorder) -> Unit:
    if state.expected is None:
        # the inline reference run, outside both stopwatches
        reference = run_batch(state.specs, inline=True).results
        state.expected = [result.canonical_line() for result in reference]
    fresh_dir(state.pool_results)
    started, started_cpu = time.perf_counter(), cpu_seconds()
    pooled = run_batch(state.specs, jobs=JOBS, result_cache_dir=state.pool_results).results
    pool_s, pool_cpu_s = time.perf_counter() - started, cpu_seconds() - started_cpu

    ResultCache(state.served_results).clear()
    before = state.server.stats()["metrics"]
    started_cpu = cpu_seconds()
    served, serialise_s, roundtrip_s = _serve(state, recorder)
    serve_cpu_s = cpu_seconds() - started_cpu
    after = state.server.stats()["metrics"]

    for spec, expected, pool_result, served_result in zip(state.specs, state.expected, pooled, served):
        tally.check(
            pool_result.canonical_line() == expected,
            "{}: pooled {} differs from inline".format(spec.check_id, pool_result.verdict),
        )
        tally.check(
            isinstance(served_result, JobResult) and served_result.canonical_line() == expected,
            "{}: served {!r} differs from inline".format(spec.check_id, served_result),
        )
    worker_ms = sum(result.duration_ms for result in pooled)
    state.speedups.append(worker_ms / (pool_s * 1000.0))
    answered = [
        (result.duration_ms, seconds * 1000.0)
        for result, seconds in zip(served, roundtrip_s)
        if isinstance(result, JobResult)
    ]
    roundtrips_ms = [roundtrip for _exec, roundtrip in answered]
    state.roundtrips_ms.extend(roundtrips_ms)
    layers = {
        "batch.worker_exec_ms": worker_ms,
        "batch.exec_share": worker_ms / (JOBS * pool_s * 1000.0),
        "server.client_serialise_ms": statistics.mean(serialise_s) * 1000.0,
        "server.roundtrip_ms": statistics.mean(roundtrips_ms),
        "server.roundtrip_p50_ms": percentile(roundtrips_ms, 0.50),
        "server.roundtrip_p99_ms": percentile(roundtrips_ms, 0.99),
        "server.worker_exec_ms": statistics.mean(execute for execute, _rt in answered),
        "server.wait_ms": statistics.mean(roundtrip - execute for execute, roundtrip in answered),
    }
    layers.update(_counter_deltas(before, after))
    return Unit(pool_cpu_s, serve_cpu_s, layers)


def teardown(state) -> None:
    state.frontend.stop()
    state.server.close()


def named(state, e2e):
    count = len(state.specs)
    cpus = os.cpu_count() or 1
    if cpus < JOBS:
        speedup = "not measurable (cpu_count {} < jobs {})".format(cpus, JOBS)
    else:
        speedup = "{:.2f}x".format(statistics.median(state.speedups))
    return [
        ("pool_checks_per_cpu_s", count / e2e["cold_cpu_s"], "1/s"),
        ("serve_checks_per_cpu_s", count / e2e["warm_cpu_s"], "1/s"),
        ("serve_p50_ms", percentile(state.roundtrips_ms, 0.50), "ms (wall, all units)"),
        ("serve_p99_ms", percentile(state.roundtrips_ms, 0.99), "ms (wall, all units)"),
        ("pool_parallel_speedup", speedup, "sum(worker exec) / wall"),
    ]
