"""X9 -- active learning throughput: queries/sec over the golden corpus.

Learns every program of the golden corpus (``tests/learn/corpus``) with
its manifest-pinned teacher mode and measures the learner's economics:
membership queries and simulator runs per second, rounds to convergence,
and the cache leverage (logical queries answered per actual simulator
run).  The fingerprints are asserted against the manifest, so the bench
cannot silently speed up by learning the wrong automaton.

The numbers land in ``BENCH_learn.json`` at the repo root.  With ``REPRO_LEARN_GATE=1`` (set in CI, where a
committed baseline exists), a >10% drop in corpus-wide membership-query
or simulator-run throughput against the previous ``BENCH_learn.json``
fails the run.
"""

import json
import os
import time

from repro.csp.lts import compile_lts
from repro.learn import (
    CaplSimulatorSUL,
    ReferenceTeacher,
    derive_message_specs,
    learn,
)
from repro.translator import ModelExtractor

from conftest import bench_json_path, write_bench_json

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "tests", "learn", "corpus"
)
GATE_ENV = "REPRO_LEARN_GATE"
GATE_TOLERANCE = 0.10
GATED_RATES = ("membership_queries_per_sec", "sul_runs_per_sec")


def _learn_entry(entry):
    path = os.path.join(CORPUS_DIR, entry["file"])
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    sul = CaplSimulatorSUL(
        source, derive_message_specs(source), node=entry["node"]
    )
    if entry["teacher"] == "reference":
        model = ModelExtractor().extract(source, entry["node"]).load()
        teacher = ReferenceTeacher(
            compile_lts(
                model.process(entry["node"]), model.env, max_states=100_000
            )
        )
    else:
        teacher = None
    started = time.perf_counter()
    result = learn(sul, teacher=teacher, depth=entry["depth"], max_rounds=64)
    return result, time.perf_counter() - started


def test_bench_learn_golden_corpus(artifact):
    with open(
        os.path.join(CORPUS_DIR, "corpus.json"), "r", encoding="utf-8"
    ) as handle:
        manifest = json.load(handle)

    per_entry = []
    total_mq = total_runs = total_rounds = 0
    total_s = 0.0
    for entry in manifest["entries"]:
        result, elapsed = _learn_entry(entry)
        assert result.fingerprint() == entry["fingerprint"], entry["file"]
        stats = result.stats
        total_mq += stats.membership_queries
        total_runs += stats.sul_runs
        total_rounds += stats.rounds
        total_s += elapsed
        per_entry.append(
            {
                "file": entry["file"],
                "teacher": entry["teacher"],
                "states": result.state_count,
                "rounds": stats.rounds,
                "membership_queries": stats.membership_queries,
                "sul_runs": stats.sul_runs,
                "wall_ms": round(elapsed * 1000.0, 3),
            }
        )

    payload = {
        "case": "golden learn corpus ({} programs), manifest teacher "
        "modes".format(len(per_entry)),
        "programs": len(per_entry),
        "rounds": total_rounds,
        "membership_queries": total_mq,
        "sul_runs": total_runs,
        "cache_leverage": round(total_mq / total_runs, 2) if total_runs else 0.0,
        "wall_ms": round(total_s * 1000.0, 3),
        "membership_queries_per_sec": round(total_mq / total_s, 2)
        if total_s > 0
        else 0.0,
        "sul_runs_per_sec": round(total_runs / total_s, 2)
        if total_s > 0
        else 0.0,
        "entries": per_entry,
    }

    previous = None
    canonical = bench_json_path("BENCH_learn")
    if canonical.exists():
        previous = json.loads(canonical.read_text(encoding="utf-8"))
    write_bench_json("BENCH_learn", payload)

    lines = [
        "Active learning: {}".format(payload["case"]),
        "",
        "{:<22} {:<10} {:<7} {:<8} {:<10} {}".format(
            "program", "teacher", "states", "rounds", "queries", "wall ms"
        ),
        "-" * 70,
    ]
    for entry in per_entry:
        lines.append(
            "{:<22} {:<10} {:<7} {:<8} {:<10} {}".format(
                entry["file"],
                entry["teacher"],
                entry["states"],
                entry["rounds"],
                entry["membership_queries"],
                entry["wall_ms"],
            )
        )
    lines += [
        "",
        "corpus totals: {} queries ({}/sec), {} simulator runs ({}/sec), "
        "cache leverage {}x".format(
            total_mq,
            payload["membership_queries_per_sec"],
            total_runs,
            payload["sul_runs_per_sec"],
            payload["cache_leverage"],
        ),
    ]
    artifact("learn_golden_corpus", "\n".join(lines))

    if previous is not None and os.environ.get(GATE_ENV):
        for rate in GATED_RATES:
            old = previous.get(rate)
            if not old:
                continue
            new = payload[rate]
            floor = old * (1.0 - GATE_TOLERANCE)
            assert new >= floor, (
                "learning throughput regressed >10% on {}: "
                "{} -> {}".format(rate, old, new)
            )
