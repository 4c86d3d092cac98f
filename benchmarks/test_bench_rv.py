"""X8 -- fleet-scale runtime verification: traces/sec across execution modes.

The deployment-side counterpart of the design-time benches: a seeded
synthetic fleet (``repro.rv.fleetgen``) of OTA-session CAN logs is checked
for trace membership against the session specification, and the same fleet
replays through every execution mode the runtime offers:

* **inline** -- ``csprv`` semantics with ``--jobs 0``: ingest, map and
  check each log in-process, streaming;
* **pool** -- the same specs over a 4-worker ``cspbatch`` pool;
* **server_cold** -- one ``POST /batch`` against a fresh ``cspserve``
  daemon with an empty result cache;
* **server_memoised** -- the same replay against a restarted daemon on
  the populated store: every verdict answers from disk.

All four mode outputs must be byte-identical per log (the rv canonical
surface), and the memoised replay must not be slower than the cold one.

The numbers land in ``BENCH_rv.json`` at the repo root.  With ``REPRO_RV_GATE=1`` (set in CI, where a
committed baseline exists), a >10% drop in any mode's traces/sec against
the previous ``BENCH_rv.json`` fails the run.
"""

import json
import os
import time

from repro.batch import run_batch
from repro.rv.cli import load_rv_manifest, specs_from_manifest
from repro.rv.fleetgen import write_fleet
from repro.server import VerificationServer
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend

from conftest import bench_json_path, write_bench_json

FLEET_SIZE = 60
FLEET_SEED = 2026
FAULT_RATE = 0.25
GATE_ENV = "REPRO_RV_GATE"
GATE_TOLERANCE = 0.10
#: the memoised replay must not be slower than the cold one (noise allowance)
MEMOISED_SLACK = 1.25


def _rate(count, seconds):
    return round(count / seconds, 2) if seconds > 0 else 0.0


def _mode_payload(count, seconds, **extra):
    payload = {
        "traces": count,
        "wall_ms": round(seconds * 1000.0, 3),
        "traces_per_sec": _rate(count, seconds),
    }
    payload.update(extra)
    return payload


def _timed_server_replay(url, docs):
    with ServerClient(url) as client:
        started = time.perf_counter()
        results = client.run_manifest(docs)
        elapsed = time.perf_counter() - started
    return results, elapsed


def test_bench_rv_fleet_replay(artifact, tmp_path):
    fleet_dir = tmp_path / "fleet"
    started = time.perf_counter()
    manifest_path = write_fleet(
        str(fleet_dir), FLEET_SIZE, seed=FLEET_SEED, fault_rate=FAULT_RATE
    )
    fleetgen_s = time.perf_counter() - started

    # ingestion + mapping is part of what csprv pays per run: time it as
    # its own phase so checking throughput stays attributable
    started = time.perf_counter()
    doc = load_rv_manifest(manifest_path)
    specs = specs_from_manifest(doc, str(fleet_dir))
    ingest_s = time.perf_counter() - started
    assert len(specs) == FLEET_SIZE

    started = time.perf_counter()
    inline = run_batch(specs, jobs=0, inline=True).results
    inline_s = time.perf_counter() - started
    inline_lines = [r.canonical_line() for r in inline]
    verdicts = {r.verdict for r in inline}
    assert verdicts == {"PASS", "FAIL"}  # the fleet must exercise both

    started = time.perf_counter()
    pooled = run_batch(specs, jobs=4).results
    pool_s = time.perf_counter() - started
    assert [r.canonical_line() for r in pooled] == inline_lines

    docs = [spec.to_doc() for spec in specs]
    result_dir = str(tmp_path / "results")
    with VerificationServer(workers=4, result_cache_dir=result_dir) as server:
        with HttpFrontend(server) as frontend:
            cold_results, cold_s = _timed_server_replay(frontend.url, docs)
        entries_written = server.stats()["result_cache"]["result_entries"]
    assert [r.canonical_line() for r in cold_results] == inline_lines
    assert entries_written > 0

    with VerificationServer(workers=4, result_cache_dir=result_dir) as server:
        with HttpFrontend(server) as frontend:
            memo_results, memo_s = _timed_server_replay(frontend.url, docs)
        result_hits = server.metrics.counter("server.result_hits").value
    assert [r.canonical_line() for r in memo_results] == inline_lines
    assert result_hits == entries_written
    assert memo_s <= cold_s * MEMOISED_SLACK, (
        "memoised replay slower than cold: {:.3f}s vs {:.3f}s".format(
            memo_s, cold_s
        )
    )

    failing = sum(1 for r in inline if r.verdict == "FAIL")
    payload = {
        "case": "{}-vehicle seeded OTA fleet (seed {}, fault rate {}), "
        "trace membership of the session spec".format(
            FLEET_SIZE, FLEET_SEED, FAULT_RATE
        ),
        "fleet": {
            "traces": FLEET_SIZE,
            "failing": failing,
            "fleetgen_ms": round(fleetgen_s * 1000.0, 3),
            "ingest_ms": round(ingest_s * 1000.0, 3),
        },
        "inline": _mode_payload(FLEET_SIZE, inline_s),
        "pool": _mode_payload(FLEET_SIZE, pool_s, jobs=4),
        "server_cold": _mode_payload(
            FLEET_SIZE, cold_s, result_entries_written=entries_written
        ),
        "server_memoised": _mode_payload(
            FLEET_SIZE, memo_s, result_hits=result_hits
        ),
        "memoised_speedup": round(cold_s / memo_s, 3) if memo_s > 0 else 0.0,
    }

    previous = None
    canonical = bench_json_path("BENCH_rv")
    if canonical.exists():
        previous = json.loads(canonical.read_text(encoding="utf-8"))
    write_bench_json("BENCH_rv", payload)

    lines = [
        "Fleet rv replay: {}".format(payload["case"]),
        "",
        "{:<16} {:<8} {:<12} {}".format(
            "mode", "traces", "wall ms", "traces/sec"
        ),
        "-" * 50,
    ]
    for mode in ("inline", "pool", "server_cold", "server_memoised"):
        lines.append(
            "{:<16} {:<8} {:<12} {}".format(
                mode,
                FLEET_SIZE,
                payload[mode]["wall_ms"],
                payload[mode]["traces_per_sec"],
            )
        )
    lines += [
        "",
        "{} of {} vehicles violate the session spec; all four modes "
        "byte-identical".format(failing, FLEET_SIZE),
        "memoised speedup over cold daemon: {}x".format(
            payload["memoised_speedup"]
        ),
    ]
    artifact("rv_fleet_replay", "\n".join(lines))

    if previous is not None and os.environ.get(GATE_ENV):
        for mode in ("inline", "pool", "server_cold", "server_memoised"):
            old = previous.get(mode, {}).get("traces_per_sec")
            if not old:
                continue
            new = payload[mode]["traces_per_sec"]
            floor = old * (1.0 - GATE_TOLERANCE)
            assert new >= floor, (
                "{} rv throughput regressed >10%: "
                "{} -> {} traces/sec".format(mode, old, new)
            )
