"""X7 -- verdict memoisation: cold vs memoised corpus replay throughput.

The warm daemon of ``BENCH_server.json`` still *re-verifies* every check
-- warm workers and a warm disk cache skip compilation, not the search.
The result cache skips the search too: a memoised replay answers every
eligible check from stored canonical bytes.  This bench pins that gap,
measured through the real HTTP frontend like the server bench:

* **cold** -- one ``POST /batch`` replay of the 30-case golden corpus
  against a fresh daemon with an empty result cache (misses everywhere,
  write-through on completion);
* **memoised** -- the same replay against a *restarted* daemon on the
  now-populated store: every eligible check is a `server.result_hits`
  answer, no worker executes anything.

The memoised run must beat not only its own cold run but the warm-daemon
figure in ``BENCH_server.json`` -- memoisation has to be worth more than
warm workers alone, or it is not paying for its disk.

The numbers land in ``BENCH_resultcache.json`` at the repo root.  With ``REPRO_RESULTCACHE_GATE=1`` (set in CI,
where a committed baseline exists), a >10% drop in either replay's
checks/sec against the previous ``BENCH_resultcache.json`` fails the run.
"""

import json
import os
import time

from repro.batch import load_manifest
from repro.server import VerificationServer
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend

from conftest import ROOT_DIR, bench_json_path, write_bench_json

CORPUS_MANIFEST = str(ROOT_DIR / "tests" / "conformance" / "manifest.json")
GATE_ENV = "REPRO_RESULTCACHE_GATE"
GATE_TOLERANCE = 0.10
#: the memoised replay must not be slower than the cold one (noise allowance)
MEMOISED_SLACK = 1.25


def _rate(count, seconds):
    return round(count / seconds, 2) if seconds > 0 else 0.0


def _timed_replay(url, docs):
    with ServerClient(url) as client:
        started = time.perf_counter()
        results = client.run_manifest(docs)
        elapsed = time.perf_counter() - started
    assert {r.verdict for r in results} <= {"PASS", "FAIL"}
    return results, elapsed


def test_bench_resultcache_memoised_replay(artifact, tmp_path):
    docs = [spec.to_doc() for spec in load_manifest(CORPUS_MANIFEST)]
    result_dir = str(tmp_path / "results")

    with VerificationServer(workers=2, result_cache_dir=result_dir) as server:
        with HttpFrontend(server) as frontend:
            cold_results, cold_s = _timed_replay(frontend.url, docs)
        cold_stats = server.stats()["result_cache"]
    # workers promote write-through in their own processes, so the entry
    # count (not the parent's write counter) is the populated-store signal
    entries_written = cold_stats["result_entries"]
    assert entries_written > 0

    # a *restarted* daemon: the entries, not the process, carry the warmth
    with VerificationServer(workers=2, result_cache_dir=result_dir) as server:
        with HttpFrontend(server) as frontend:
            memo_results, memo_s = _timed_replay(frontend.url, docs)
        memo_stats = server.stats()["result_cache"]
        result_hits = server.metrics.counter("server.result_hits").value

    assert [r.canonical_line() for r in cold_results] == [
        r.canonical_line() for r in memo_results
    ]
    assert result_hits == entries_written
    assert memo_stats["result_entries"] == entries_written
    assert memo_s <= cold_s * MEMOISED_SLACK, (
        "memoised replay slower than cold: {:.3f}s vs {:.3f}s".format(
            memo_s, cold_s
        )
    )

    payload = {
        "case": "30-case conformance corpus via POST /batch, "
        "2 workers, restarted daemon on a shared --result-cache",
        "cold": {
            "checks": len(docs),
            "wall_ms": round(cold_s * 1000.0, 3),
            "checks_per_sec": _rate(len(docs), cold_s),
            "result_entries_written": entries_written,
        },
        "memoised": {
            "checks": len(docs),
            "wall_ms": round(memo_s * 1000.0, 3),
            "checks_per_sec": _rate(len(docs), memo_s),
            "result_hits": memo_stats["result_hits"],
        },
        "memoised_speedup": round(cold_s / memo_s, 3) if memo_s > 0 else 0.0,
    }

    previous = None
    canonical = bench_json_path("BENCH_resultcache")
    if canonical.exists():
        previous = json.loads(canonical.read_text(encoding="utf-8"))
    write_bench_json("BENCH_resultcache", payload)

    lines = [
        "Verdict memoisation: {}".format(payload["case"]),
        "",
        "{:<10} {:<10} {:<12} {}".format(
            "phase", "checks", "wall ms", "checks/sec"
        ),
        "-" * 46,
        "{:<10} {:<10} {:<12} {}".format(
            "cold",
            len(docs),
            payload["cold"]["wall_ms"],
            payload["cold"]["checks_per_sec"],
        ),
        "{:<10} {:<10} {:<12} {}".format(
            "memoised",
            len(docs),
            payload["memoised"]["wall_ms"],
            payload["memoised"]["checks_per_sec"],
        ),
        "",
        "memoised speedup over cold: {}x ({} hits, 0 executions)".format(
            payload["memoised_speedup"], payload["memoised"]["result_hits"]
        ),
    ]
    artifact("resultcache_replay", "\n".join(lines))

    if previous is not None and os.environ.get(GATE_ENV):
        for section in ("cold", "memoised"):
            old = previous.get(section, {}).get("checks_per_sec")
            if not old:
                continue
            new = payload[section]["checks_per_sec"]
            floor = old * (1.0 - GATE_TOLERANCE)
            assert new >= floor, (
                "{} replay throughput regressed >10%: "
                "{} -> {} checks/sec".format(section, old, new)
            )
        # memoisation must stay worth more than warm workers alone
        server_baseline = bench_json_path("BENCH_server")
        if server_baseline.exists():
            warm_workers = (
                json.loads(server_baseline.read_text(encoding="utf-8"))
                .get("warm", {})
                .get("checks_per_sec")
            )
            if warm_workers:
                assert payload["memoised"]["checks_per_sec"] > warm_workers, (
                    "memoised replay ({} checks/sec) no faster than the "
                    "warm-daemon baseline ({} checks/sec)".format(
                        payload["memoised"]["checks_per_sec"], warm_workers
                    )
                )
