"""Golden corpus replay through a live daemon, over both transports.

The daemon's bar is the same one the kernel and batch paths already clear:
every verdict, counterexample trace and search statistic pinned by the
30-case golden corpus must come back from a running
:class:`~repro.server.core.VerificationServer` exactly as the corpus
recorded it -- over stdio-JSONL, over HTTP ``/check`` at concurrency 4,
over one HTTP ``/batch`` round trip, and again from a warm daemon whose
disk cache already holds every compiled model.
"""

import io
import json
import os
from concurrent.futures import ThreadPoolExecutor

from repro.batch import CheckSpec, JobResult
from repro.server import VerificationServer, serve_stdio
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend
from repro.server.protocol import check_request

from .test_conformance import CASE_FILES, canonical_bytes, expected_bytes, load_case


def _corpus():
    return zip(*(load_case(name) for name in CASE_FILES))


def test_stdio_replay_is_byte_identical():
    specs, expectations = _corpus()
    lines = [
        json.dumps(check_request(spec.to_doc(), request_id=str(i), index=i))
        for i, spec in enumerate(specs)
    ]
    out = io.StringIO()
    server = VerificationServer(workers=2).start()
    try:
        served = serve_stdio(server, lines, out)
    finally:
        server.close(drain=False)
    assert served == len(CASE_FILES)
    responses = [json.loads(text) for text in out.getvalue().splitlines()]
    assert [r["id"] for r in responses] == [str(i) for i in range(len(CASE_FILES))]
    for response, expected in zip(responses, expectations):
        assert response["status"] == "ok"
        result = JobResult.from_doc(response["result"])
        assert canonical_bytes(result) == expected_bytes(expected)


def test_http_check_replay_at_concurrency_4_is_byte_identical():
    specs, expectations = _corpus()
    with VerificationServer(workers=2) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(
                        pool.map(
                            lambda pair: client.check(
                                pair[1].to_doc(), index=pair[0]
                            ),
                            enumerate(specs),
                        )
                    )
        # each of the 4 concurrent callers holds at most one connection
        assert server.stats()["metrics"]["server.http_connections"] <= 4
    for result, expected in zip(results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_http_batch_decodes_each_spec_once(monkeypatch):
    # the daemon submits the specs parse_manifest decoded; nothing on the
    # way to the queue decodes a document again
    specs, expectations = _corpus()
    docs = [spec.to_doc() for spec in specs]
    decoded = []
    from_doc = CheckSpec.from_doc.__func__

    def counting(cls, doc):
        decoded.append(doc.get("id"))
        return from_doc(cls, doc)

    with VerificationServer(workers=2) as server:
        # the workers were forked before the patch: only this process counts
        monkeypatch.setattr(CheckSpec, "from_doc", classmethod(counting))
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                results = client.run_manifest(docs)
    assert decoded == [doc.get("id") for doc in docs]
    for result, expected in zip(results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_http_batch_replay_is_byte_identical():
    specs, expectations = _corpus()
    with VerificationServer(workers=2) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                results = client.run_manifest([spec.to_doc() for spec in specs])
    assert [r.index for r in results] == list(range(len(CASE_FILES)))
    for result, expected in zip(results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_warm_daemon_replay_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "cache")
    docs = [spec.to_doc() for spec in specs]
    with VerificationServer(workers=2, cache_dir=cache_dir) as server:
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url) as client:
                cold = client.run_manifest(docs)
                entries = sorted(os.listdir(cache_dir))
                assert entries, "the cold replay should persist kernel entries"
                warm = client.run_manifest(docs)
                assert sorted(os.listdir(cache_dir)) == entries
    for run in (cold, warm):
        for result, expected in zip(run, expectations):
            assert canonical_bytes(result) == expected_bytes(expected)
