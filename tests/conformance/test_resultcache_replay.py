"""Golden corpus replay through the verdict memoisation layer.

The result cache's whole claim is that it is *invisible* in the canonical
bytes: the 30-case corpus must come back byte-identical with memoisation
disabled, cold (every entry written this run) and warm (every eligible
entry answered from disk) -- through the inline path, the pooled batch
executor, and a live daemon.  A warm replay must also actually memoise:
the non-selftest cases answer as hits without re-verifying.
"""

from repro.batch import run_batch
from repro.exec.resultcache import ResultCache, cacheable
from repro.server import VerificationServer
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend

from .test_conformance import CASE_FILES, canonical_bytes, expected_bytes, load_case


def _corpus():
    return zip(*(load_case(name) for name in CASE_FILES))


def _assert_golden(results, expectations):
    for result, expected in zip(results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def _eligible(specs, expectations):
    return sum(
        1
        for spec, expected in zip(specs, expectations)
        if cacheable(spec.to_doc(), expected["verdict"])
    )


def test_inline_replay_cold_then_warm_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "results")
    disabled = run_batch(specs, inline=True)
    cold = run_batch(specs, inline=True, result_cache_dir=cache_dir)
    warm = run_batch(specs, inline=True, result_cache_dir=cache_dir)
    for report in (disabled, cold, warm):
        _assert_golden(report.results, expectations)
    eligible = _eligible(specs, expectations)
    assert eligible > 0
    assert cold.result_cache_stats["result_writes"] == eligible
    assert warm.result_cache_stats["result_hits"] == eligible
    assert warm.result_cache_stats["result_writes"] == 0


def test_pooled_replay_cold_then_warm_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "results")
    cold = run_batch(specs, jobs=2, timeout=120, result_cache_dir=cache_dir)
    warm = run_batch(specs, jobs=2, timeout=120, result_cache_dir=cache_dir)
    _assert_golden(cold.results, expectations)
    _assert_golden(warm.results, expectations)
    # workers write through; the warm parent answers eligible cases
    # without forking a process for them
    assert warm.result_cache_stats["result_hits"] == _eligible(
        specs, expectations
    )


def test_pooled_warm_store_serves_the_inline_path(tmp_path):
    # cross-mode: entries minted by worker processes answer inline runs
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "results")
    run_batch(specs, jobs=2, timeout=120, result_cache_dir=cache_dir)
    inline = run_batch(specs, inline=True, result_cache_dir=cache_dir)
    _assert_golden(inline.results, expectations)
    assert inline.result_cache_stats["result_hits"] == _eligible(
        specs, expectations
    )


def test_memoised_daemon_replay_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "results")
    docs = [spec.to_doc() for spec in specs]
    with VerificationServer(workers=2, result_cache_dir=cache_dir) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                cold = client.run_manifest(docs)
        entries = len(ResultCache(cache_dir))
        assert entries == _eligible(specs, expectations)
    # a *restarted* daemon on the same store: verdicts survive the process
    with VerificationServer(workers=2, result_cache_dir=cache_dir) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                warm = client.run_manifest(docs)
        snapshot = server.stats()
        assert snapshot["result_cache"]["result_hits"] == entries
        assert snapshot["metrics"].get("server.result_hits") == entries
    assert len(ResultCache(cache_dir)) == entries
    _assert_golden(cold, expectations)
    _assert_golden(warm, expectations)


def test_daemon_store_serves_batch_and_inline(tmp_path):
    # the tentpole's cross-mode promise end to end: a daemon mints the
    # entries, cspbatch-style pooled and inline runs answer from them
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "results")
    docs = [spec.to_doc() for spec in specs]
    with VerificationServer(workers=2, result_cache_dir=cache_dir) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                client.run_manifest(docs)
    pooled = run_batch(specs, jobs=2, timeout=120, result_cache_dir=cache_dir)
    inline = run_batch(specs, inline=True, result_cache_dir=cache_dir)
    _assert_golden(pooled.results, expectations)
    _assert_golden(inline.results, expectations)
    eligible = _eligible(specs, expectations)
    assert pooled.result_cache_stats["result_hits"] == eligible
    assert inline.result_cache_stats["result_hits"] == eligible
