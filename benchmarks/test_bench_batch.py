"""X5 -- batch verification throughput (sequential vs process pool).

The paper's audit loop discharges many independent checks -- every Table
III requirement, every extracted ECU model against every specification.
This bench runs one realistic batch (the five requirement checks plus a
fleet of interleaved-component refinements and message-space property
checks, all through the public spec/manifest path) three ways: inline,
``--jobs 1`` (one worker at a time, pooled overhead included) and
``--jobs 4``, and emits ``BENCH_batch.json`` at the repo root with the wall
times and the parallel speedup.

Correctness is gated unconditionally -- every run of the batch must
produce byte-identical canonical results.  The >=2x speedup gate applies
only where it is physically possible (``os.cpu_count() >= 4``); on
smaller machines the numbers are still emitted for the record.
"""

import os
import time

from repro.batch import CheckSpec, run_batch
from repro.csp import Channel, Environment, Prefix, ref
from repro.security.properties import run_process

#: interleaved components per fleet job -- sized so one job is a few
#: hundred milliseconds of real search, big enough to amortise a fork
FLEET_COMPONENTS = 11
FLEET_JOBS = 8


def fleet_spec(index):
    """One component-interleaving refinement job (cf. the X4 sweep).

    Payloads are strings ("req0") rather than tuples: the manifest codec
    (repro.quickcheck.serialise) keeps event fields JSON-scalar.
    """
    from repro.csp import interleave_all

    payloads = [
        "{}{}".format(kind, i)
        for kind in ("req", "rsp")
        for i in range(FLEET_COMPONENTS)
    ]
    channel = Channel("bus{}".format(index), payloads)
    env = Environment()
    components = []
    for i in range(FLEET_COMPONENTS):
        name = "COMP{}".format(i)
        env.bind(
            name,
            Prefix(
                channel("req{}".format(i)),
                Prefix(channel("rsp{}".format(i)), ref(name)),
            ),
        )
        components.append(ref(name))
    system = interleave_all(*components)
    spec = run_process(channel.alphabet(), env, "RUNALL")
    return CheckSpec.refinement(
        spec,
        system,
        "T",
        check_id="fleet-{:02d}".format(index),
        bindings=dict(env._bindings),
        name="fleet component interleave {}".format(index),
    )


def message_space_spec(size):
    """One message-space property job (cf. the X4 message sweep)."""
    from repro.csp import input_choice

    channel = Channel("bus", list(range(size)))
    env = Environment()
    env.bind(
        "SERVER",
        input_choice(channel, lambda value: Prefix(channel(value), ref("SERVER"))),
    )
    return CheckSpec.property_check(
        ref("SERVER"),
        "deadlock free",
        check_id="msg-{:03d}".format(size),
        bindings=dict(env._bindings),
        name="message space {}".format(size),
    )


def batch_specs():
    specs = [CheckSpec.requirement(req) for req in ("R01", "R02", "R03", "R04", "R05")]
    specs.extend(fleet_spec(i) for i in range(FLEET_JOBS))
    specs.extend(message_space_spec(size) for size in (64, 96))
    return specs


def timed_run(specs, **options):
    started = time.perf_counter()
    report = run_batch(specs, **options)
    return report, (time.perf_counter() - started) * 1000.0


def test_batch_throughput(json_artifact):
    specs = batch_specs()
    inline, inline_ms = timed_run(specs, inline=True)
    serial, serial_ms = timed_run(specs, jobs=1, timeout=300)
    parallel, parallel_ms = timed_run(specs, jobs=4, timeout=300)

    lines = lambda report: [r.canonical_line() for r in report.results]
    assert lines(inline) == lines(serial) == lines(parallel)
    assert inline.ok and serial.ok and parallel.ok

    speedup = serial_ms / parallel_ms if parallel_ms > 0 else 0.0
    cpu_count = os.cpu_count() or 1
    payload = {
        "jobs": len(specs),
        "cpu_count": cpu_count,
        "inline_ms": round(inline_ms, 1),
        "jobs1_ms": round(serial_ms, 1),
        "jobs4_ms": round(parallel_ms, 1),
        "speedup_jobs4_over_jobs1": round(speedup, 2),
        "verdicts": {r.check_id: r.verdict for r in parallel.results},
    }
    json_artifact("BENCH_batch", payload)

    # the speedup gate needs hardware parallelism to be meaningful; CI
    # runners have >= 4 vCPUs and enforce it, laptops with fewer report only
    if cpu_count >= 4:
        assert speedup >= 2.0, (
            "expected >=2x speedup at 4 workers on {} CPUs, measured "
            "{:.2f}x ({:.0f} ms -> {:.0f} ms)".format(
                cpu_count, speedup, serial_ms, parallel_ms
            )
        )


def test_warm_disk_cache_accelerates_reruns(tmp_path, json_artifact):
    specs = batch_specs()
    cache_dir = str(tmp_path / "cache")
    cold, cold_ms = timed_run(specs, inline=True, cache_dir=cache_dir)
    warm, warm_ms = timed_run(specs, inline=True, cache_dir=cache_dir)
    assert [r.canonical_line() for r in cold.results] == [
        r.canonical_line() for r in warm.results
    ]
    json_artifact(
        "BENCH_batch_cache",
        {
            "cold_ms": round(cold_ms, 1),
            "warm_ms": round(warm_ms, 1),
            "ratio": round(cold_ms / warm_ms, 2) if warm_ms > 0 else None,
        },
    )
