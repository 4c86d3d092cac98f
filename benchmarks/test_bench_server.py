"""X6 -- daemon latency: cold vs warm corpus replay, and the dedup rate.

The server's pitch is amortisation: persistent warm workers over one shared
disk cache mean only the first request for a model pays compilation, and
identical in-flight requests pay it **once, total**.  This bench pins the
three numbers behind that pitch, all measured through the real HTTP
frontend (the transport CI's smoke job uses):

* **cold** -- wall time for one ``POST /batch`` replay of the 30-case
  golden conformance corpus against a fresh daemon with an empty cache;
* **warm** -- the same replay again on the same daemon: every compile now
  comes off the shared disk cache, so the run must not be slower than the
  cold one (small tolerance for scheduling noise);
* **dedup** -- N identical concurrent requests behind a pinned worker
  produce exactly one execution; the hit rate is read back from the
  ``server.dedup_hits`` / ``server.requests`` counters.

The numbers land in ``BENCH_server.json`` at the repo root.  With ``REPRO_SERVER_GATE=1`` (set in CI, where a
committed baseline exists), a >10% drop in either replay's checks/sec
against the previous ``BENCH_server.json`` fails the run.
"""

import json
import os
import time

from repro.batch import CheckSpec, load_manifest
from repro.server import VerificationServer
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend

from conftest import ROOT_DIR, bench_json_path, write_bench_json

CORPUS_MANIFEST = str(ROOT_DIR / "tests" / "conformance" / "manifest.json")
GATE_ENV = "REPRO_SERVER_GATE"
GATE_TOLERANCE = 0.10
#: identical concurrent submissions in the dedup measurement
N_IDENTICAL = 8
#: scheduling-noise allowance on "warm must not be slower than cold"
WARM_SLACK = 1.25


def _rate(count, seconds):
    return round(count / seconds, 2) if seconds > 0 else 0.0


def _timed_replay(client, docs):
    started = time.perf_counter()
    results = client.run_manifest(docs)
    elapsed = time.perf_counter() - started
    verdicts = sorted(result.verdict for result in results)
    assert set(verdicts) <= {"PASS", "FAIL"}, "corpus replay must verify cleanly"
    return results, elapsed


def _dedup_measurement(tmp_path):
    """N identical concurrent requests -> one execution, via the counters."""
    server = VerificationServer(workers=1, cache_dir=str(tmp_path / "dedup")).start()
    try:
        # the blocker pins the only worker so all N submissions coalesce
        blocker = server.submit(
            CheckSpec.selftest("sleep:0.5", check_id="blk").to_doc()
        )
        doc = CheckSpec.requirement("R01").to_doc()
        tickets = [
            server.submit(dict(doc, id="req-{}".format(i)), index=i)
            for i in range(N_IDENTICAL)
        ]
        for ticket in tickets:
            assert ticket.result(timeout=300).verdict == "PASS"
        blocker.result(timeout=300)
        requests = server.metrics.counter("server.requests").value
        hits = server.metrics.counter("server.dedup_hits").value
        executions = server.metrics.counter("server.executions").value
    finally:
        server.close(drain=False)
    assert requests == N_IDENTICAL + 1
    assert hits == N_IDENTICAL - 1
    assert executions == 2  # the blocker, plus ONE shared verification
    return {
        "identical_requests": N_IDENTICAL,
        "executions_beyond_blocker": executions - 1,
        "dedup_hits": hits,
        "hit_rate": round(hits / (requests - 1), 4),
    }


def test_bench_server_latency_and_dedup(artifact, tmp_path):
    docs = [spec.to_doc() for spec in load_manifest(CORPUS_MANIFEST)]
    cache_dir = str(tmp_path / "cache")

    with VerificationServer(workers=2, cache_dir=cache_dir) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                cold_results, cold_s = _timed_replay(client, docs)
                warm_results, warm_s = _timed_replay(client, docs)

    # byte-identical across cache temperatures, as everywhere else
    assert [r.canonical_line() for r in cold_results] == [
        r.canonical_line() for r in warm_results
    ]
    assert warm_s <= cold_s * WARM_SLACK, (
        "warm replay slower than cold: {:.3f}s vs {:.3f}s".format(warm_s, cold_s)
    )

    dedup = _dedup_measurement(tmp_path)

    payload = {
        "case": "30-case conformance corpus via POST /batch, 2 warm workers",
        "cold": {
            "checks": len(docs),
            "wall_ms": round(cold_s * 1000.0, 3),
            "checks_per_sec": _rate(len(docs), cold_s),
        },
        "warm": {
            "checks": len(docs),
            "wall_ms": round(warm_s * 1000.0, 3),
            "checks_per_sec": _rate(len(docs), warm_s),
        },
        "warm_speedup": round(cold_s / warm_s, 3) if warm_s > 0 else 0.0,
        "dedup": dedup,
    }

    previous = None
    canonical = bench_json_path("BENCH_server")
    if canonical.exists():
        previous = json.loads(canonical.read_text(encoding="utf-8"))
    write_bench_json("BENCH_server", payload)

    lines = [
        "Daemon replay latency: {}".format(payload["case"]),
        "",
        "{:<8} {:<10} {:<12} {}".format("phase", "checks", "wall ms", "checks/sec"),
        "-" * 44,
        "{:<8} {:<10} {:<12} {}".format(
            "cold", len(docs), payload["cold"]["wall_ms"], payload["cold"]["checks_per_sec"]
        ),
        "{:<8} {:<10} {:<12} {}".format(
            "warm", len(docs), payload["warm"]["wall_ms"], payload["warm"]["checks_per_sec"]
        ),
        "",
        "dedup: {} identical requests -> {} execution(s), hit rate {}".format(
            dedup["identical_requests"],
            dedup["executions_beyond_blocker"],
            dedup["hit_rate"],
        ),
    ]
    artifact("server_latency", "\n".join(lines))

    # perf regression gate: only where a trustworthy baseline exists (CI)
    if previous is not None and os.environ.get(GATE_ENV):
        for section in ("cold", "warm"):
            old = previous.get(section, {}).get("checks_per_sec")
            if not old:
                continue
            new = payload[section]["checks_per_sec"]
            floor = old * (1.0 - GATE_TOLERANCE)
            assert new >= floor, (
                "{} replay throughput regressed >10%: {} -> {} checks/sec".format(
                    section, old, new
                )
            )
