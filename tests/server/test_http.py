"""The localhost HTTP/JSON frontend and its dependency-free client."""

import json
import socket
from http.client import HTTPConnection

import pytest

from repro.batch import CheckSpec, execute_spec, manifest_document
from repro.csp.events import Event
from repro.csp.process import Prefix, Stop
from repro.server.client import ServerClient, ServerError, parse_server_url
from repro.server.http import HttpFrontend
from repro.server.protocol import Rejection, check_request

from .conftest import wait_until

A, B, C = Event("a"), Event("b"), Event("c")


def selftest(op, check_id, **options):
    return CheckSpec.selftest(op, check_id=check_id, **options).to_doc()


def mixed_specs():
    good = Prefix(A, Prefix(B, Stop()))
    bad = Prefix(A, Prefix(C, Stop()))
    return [
        CheckSpec.refinement(good, good, "T", check_id="ok"),
        CheckSpec.refinement(good, bad, "T", check_id="nope"),
    ]


@pytest.fixture
def http_server(make_server):
    frontends = []

    def make(**options):
        server = make_server(**options)
        frontend = HttpFrontend(server).start()
        frontends.append(frontend)
        return server, ServerClient(frontend.url)

    yield make
    for frontend in frontends:
        frontend.stop()


def raw_request(client, method, path, body=None, headers=None):
    connection = HTTPConnection(client.host, client.port, timeout=30)
    try:
        if isinstance(body, bytes) or body is None:
            payload = body
        else:
            payload = json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, http_server):
        _, client = http_server(workers=1)
        doc = client.healthz()
        assert doc == {"status": "ok", "state": "running"}

    def test_check_round_trip(self, http_server):
        _, client = http_server(workers=1)
        result = client.check(selftest("pass", "c1"), request_id="r1")
        assert result.verdict == "PASS"
        assert result.check_id == "c1"

    def test_check_matches_the_sequential_reference(self, http_server):
        _, client = http_server(workers=1)
        spec = mixed_specs()[1]
        result = client.check(spec)
        assert result.canonical() == execute_spec(spec).canonical()

    def test_stats_snapshot(self, http_server):
        _, client = http_server(workers=1)
        client.check(selftest("pass", "one"))
        snapshot = client.stats()
        assert snapshot["state"] == "running"
        assert snapshot["metrics"]["server.requests"] == 1

    def test_unknown_path_is_404(self, http_server):
        _, client = http_server(workers=1)
        status, _, raw = raw_request(client, "GET", "/nope")
        assert status == 404
        assert json.loads(raw)["error"] == "unknown path"

    def test_batch_returns_results_in_manifest_order(self, http_server):
        _, client = http_server(workers=2)
        specs = mixed_specs()
        results = client.run_manifest(specs)
        assert [r.check_id for r in results] == ["ok", "nope"]
        assert [r.verdict for r in results] == ["PASS", "FAIL"]
        for spec, result in zip(specs, results):
            assert result.canonical_line() == execute_spec(spec).canonical_line()


class TestRejections:
    def test_malformed_body_is_400(self, http_server):
        _, client = http_server(workers=1)
        status, _, raw = raw_request(client, "POST", "/check", body=b"{nope")
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"

    def test_nesting_bomb_is_400_and_the_daemon_lives_on(
        self, http_server, nested_term_json
    ):
        _, client = http_server(workers=1)
        bomb = (
            '{"spec": {"kind": "property", "property": "deadlock free", '
            '"term": ' + nested_term_json(3000) + "}}"
        )
        status, _, raw = raw_request(
            client, "POST", "/check", body=bomb.encode("utf-8")
        )
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"
        status, _, raw = raw_request(client, "GET", "/healthz")
        assert status == 200
        assert json.loads(raw)["status"] == "ok"

    def test_bad_spec_is_400_via_the_client(self, http_server):
        _, client = http_server(workers=1)
        with pytest.raises(Rejection) as excinfo:
            client.check({"kind": "bogus"})
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.http_status == 400

    def test_oversize_body_is_413(self, http_server):
        _, client = http_server(workers=1, max_request_bytes=300)
        request = check_request(selftest("pass", "big", name="x" * 100000))
        status, _, raw = raw_request(client, "POST", "/check", body=request)
        assert status == 413
        assert json.loads(raw)["code"] == "oversize"

    def test_queue_full_is_429_with_retry_after(self, http_server):
        server, client = http_server(workers=1, queue_limit=1)
        server.submit(selftest("sleep:30", "blk"))
        wait_until(lambda: server.stats()["busy_workers"] == 1)
        server.submit(selftest("pass", "queued"))
        status, headers, raw = raw_request(
            client, "POST", "/check", body=check_request(selftest("fail", "x"))
        )
        assert status == 429
        assert headers.get("Retry-After") == "1"
        doc = json.loads(raw)
        assert doc["code"] == "queue_full"
        assert doc["retry"] is True

    def test_quota_exceeded_is_429(self, http_server):
        server, client = http_server(workers=1, quota=1)
        server.submit(selftest("sleep:30", "blk"), tenant="t")
        with pytest.raises(Rejection) as excinfo:
            client.check(selftest("pass", "x"), tenant="t")
        assert excinfo.value.code == "quota"
        assert excinfo.value.http_status == 429

    def test_draining_server_is_503(self, http_server):
        server, client = http_server(workers=1)
        server.close(drain=True)
        status, _, raw = raw_request(
            client, "POST", "/check", body=check_request(selftest("pass", "x"))
        )
        assert status == 503
        assert json.loads(raw)["code"] == "draining"

    def test_bad_batch_manifest_is_400(self, http_server):
        _, client = http_server(workers=1)
        status, _, raw = raw_request(
            client, "POST", "/batch", body={"format": 99, "checks": []}
        )
        assert status == 400
        assert "unsupported manifest format" in json.loads(raw)["error"]


class TestClient:
    def test_parse_server_url_accepts_http(self):
        assert parse_server_url("http://127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_server_url("127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_parse_server_url_rejects_other_schemes(self):
        with pytest.raises(ValueError, match="http://"):
            parse_server_url("https://127.0.0.1:8080")

    def test_parse_server_url_requires_a_port(self):
        with pytest.raises(ValueError, match="host and port"):
            parse_server_url("http://127.0.0.1")

    def test_unreachable_daemon_is_a_server_error(self):
        # bind-then-close guarantees a dead loopback port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServerClient("http://127.0.0.1:{}".format(port))
        with pytest.raises(ServerError, match="cannot reach"):
            client.healthz()

    def test_manifest_round_trip_shapes_like_cspbatch(self, http_server):
        # the client ships the exact PR-5 manifest document
        _, client = http_server(workers=1)
        specs = mixed_specs()
        doc = manifest_document(specs)
        assert doc["format"] == 1
        results = client.run_manifest([spec.to_doc() for spec in specs])
        assert [r.verdict for r in results] == ["PASS", "FAIL"]
