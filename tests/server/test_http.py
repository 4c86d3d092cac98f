"""The localhost HTTP/JSON frontend and its dependency-free client."""

import json
import socket
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.batch import CheckSpec, manifest_document
from repro.csp.events import Event
from repro.csp.process import Prefix, Stop
from repro.exec.runtime import execute_spec
from repro.server.client import ServerClient, ServerError, parse_server_url
from repro.server.http import HttpFrontend
from repro.server.protocol import Rejection, check_request

from .conftest import http_reply, wait_until

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
    clients = []

    def make(**options):
        server = make_server(**options)
        frontend = HttpFrontend(server).start()
        frontends.append(frontend)
        clients.append(ServerClient(frontend.url))
        return server, clients[-1]

    yield make
    for client in clients:
        client.close()
    for frontend in frontends:
        frontend.stop()


def connections(server):
    """Connections the daemon's HTTP frontend has accepted so far."""
    return server.stats()["metrics"].get("server.http_connections", 0)


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

    def test_every_rejection_answered_is_counted_once(self, http_server):
        server, client = http_server(workers=1, max_request_bytes=2000)
        bodies = [
            b"{nope",
            check_request({"kind": "bogus"}),
            check_request(selftest("pass", "big-body", name="x" * 70000)),
            check_request(selftest("pass", "big-spec", name="x" * 3000)),
        ]
        statuses = [
            raw_request(client, "POST", "/check", body=body)[0] for body in bodies
        ]
        assert statuses == [400, 400, 413, 413]
        with socket.create_connection((client.host, client.port), 30) as sock:
            sock.sendall(
                b"POST /check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                b"Host: x\r\n\r\n"
            )
            assert read_until_eof(sock).startswith(b"HTTP/1.1 400")
        metrics = server.stats()["metrics"]
        assert metrics["server.rejected.bad_request"] == 3
        assert metrics["server.rejected.oversize"] == 2

    @pytest.mark.parametrize(
        "option", [{"timeout": "1"}, {"tenant": 5}], ids=["timeout", "tenant"]
    )
    def test_bad_batch_options_are_400_and_the_daemon_lives_on(
        self, http_server, option
    ):
        # a string timeout reached the scheduler thread and killed it
        _, client = http_server(workers=1)
        body = dict({"format": 1, "checks": [selftest("pass", "x")]}, **option)
        status, _, raw = raw_request(client, "POST", "/batch", body=body)
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"
        assert client.check(selftest("pass", "after")).verdict == "PASS"

    @pytest.mark.parametrize("path", ["/check", "/batch"])
    def test_term_a_constructor_refuses_is_400(self, http_server, path):
        # ProcessRef("") raises a plain ValueError while the term decodes;
        # it dropped the connection with no response
        _, client = http_server(workers=1)
        refused = {
            "kind": "property",
            "property": "deadlock free",
            "term": {"op": "ref", "name": ""},
        }
        body = (
            check_request(refused)
            if path == "/check"
            else {"format": 1, "checks": [selftest("pass", "x"), refused]}
        )
        status, _, raw = raw_request(client, "POST", path, body=body)
        assert status == 400
        assert json.loads(raw)["code"] == "bad_request"
        assert client.check(selftest("pass", "after")).verdict == "PASS"

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
        with ServerClient("http://127.0.0.1:{}".format(port)) as client:
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


class TestMalformedResponses:
    @pytest.mark.parametrize(
        "reply",
        [
            b"SSH-2.0-OpenSSH_9.6\r\n",
            http_reply(b'{"status": "ok", "result": {}}')[:-8],
            http_reply(b"[]"),
            http_reply(b'"ok"'),
            http_reply(b'{"status": "rejected"}', "429 Too Many Requests"),
            http_reply(b'{"status": "ok", "result": {}}'),
        ],
        ids=[
            "not-http",
            "short-body",
            "array",
            "string",
            "rejection-without-code",
            "unreadable-result",
        ],
    )
    def test_every_malformed_reply_is_a_server_error(self, fake_daemon, reply):
        daemon = fake_daemon([reply])
        with ServerClient(daemon.url) as client:
            with pytest.raises(ServerError):
                client.check(selftest("pass", "probe"))
        assert daemon.accepted == 1  # a fresh connection is never retried


class TestKeepAlive:
    def test_a_client_session_rides_one_connection(self, http_server):
        server, client = http_server(workers=1)
        client.healthz()
        client.stats()
        for index in range(50):
            result = client.check(selftest("pass", "c{}".format(index)))
            assert result.check_id == "c{}".format(index)
        client.run_manifest(mixed_specs())
        assert connections(server) == 1

    def test_a_dropped_client_closes_its_connections(self, http_server):
        _, client = http_server(workers=1)
        dropped = ServerClient("http://{}:{}".format(client.host, client.port))
        dropped.check(selftest("pass", "one"))
        (connection,) = dropped._idle
        del dropped  # no close(): perfbench's client threads drop theirs
        assert connection.sock is None

    def test_threads_sharing_a_client_get_their_own_answers(
        self, http_server, monkeypatch
    ):
        server, client = http_server(workers=2)
        opened = []
        connect = client._connect

        def counting_connect():
            opened.append(1)
            return connect()

        monkeypatch.setattr(client, "_connect", counting_connect)

        def run(thread):
            for index in range(20):
                check_id = "t{}-{}".format(thread, index)
                assert client.check(selftest("pass", check_id)).check_id == check_id

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, thread) for thread in range(8)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        # at most one connection per thread, and the daemon lost no count
        assert 1 <= len(opened) <= 8
        assert connections(server) == len(opened)

    @pytest.mark.parametrize(
        "kind", ["bad_request", "oversize", "queue_full", "quota", "not_found"]
    )
    def test_a_rejection_costs_exactly_one_reconnect(self, http_server, kind):
        server, client = http_server(
            workers=1, queue_limit=1, quota=1, max_request_bytes=300
        )
        client.check(selftest("pass", "warm"), tenant="t")
        assert connections(server) == 1
        blockers = []
        if kind in ("queue_full", "quota"):
            # hold the only worker (and, for queue_full, the only queue slot)
            blockers.append(server.submit(selftest("sleep:1", "blk"), tenant="t"))
        if kind == "queue_full":
            wait_until(lambda: server.stats()["busy_workers"] == 1)
            blockers.append(server.submit(selftest("pass", "queued"), tenant="u"))
        if kind == "not_found":
            status, doc = client._round_trip("POST", "/nope", {})
            assert (status, doc["error"]) == (404, "unknown path")
        else:
            request = {
                "bad_request": ({"kind": "bogus"}, "t"),
                "oversize": (selftest("pass", "big", name="x" * 400), "t"),
                "queue_full": (selftest("fail", "bounced"), "v"),
                "quota": (selftest("fail", "bounced"), "t"),
            }
            spec, tenant = request[kind]
            with pytest.raises(Rejection) as excinfo:
                client.check(spec, tenant=tenant)
            assert excinfo.value.code == kind
        for ticket in blockers:
            assert ticket.wait(30) is not None
        result = client.check(selftest("pass", "after"), tenant="t")
        assert result.verdict == "PASS"
        assert connections(server) == 2

    def test_a_draining_daemon_costs_one_reconnect(self, make_server):
        first = make_server(workers=1)
        with HttpFrontend(first) as frontend, ServerClient(frontend.url) as client:
            client.check(selftest("pass", "warm"))
            first.close(drain=True)
            with pytest.raises(Rejection) as excinfo:
                client.check(selftest("pass", "bounced"))
            assert excinfo.value.code == "draining"
            host, port = frontend.address
            frontend.stop()
            # a daemon restarted on the same port serves the same client
            second = make_server(workers=1)
            with HttpFrontend(second, host, port):
                result = client.check(selftest("pass", "after"))
        assert result.verdict == "PASS"
        assert connections(second) == 1

    def test_a_connection_closed_while_idle_is_retried_once(
        self, http_server, monkeypatch
    ):
        monkeypatch.setattr("repro.server.http.IDLE_TIMEOUT_S", 0.2)
        server, client = http_server(workers=1)
        client.check(selftest("pass", "before"))
        time.sleep(0.5)  # the daemon closes the idle connection at 0.2 s
        result = client.check(selftest("pass", "after"))
        assert result.check_id == "after"
        assert connections(server) == 2

    def test_a_stale_connection_is_retried_once_and_never_again(
        self, fake_daemon
    ):
        # connection 1 answers keep-alive, then closes; connection 2 (the
        # retry) closes unanswered -- and a fresh connection is not retried
        healthy = http_reply(b'{"status": "ok", "state": "running"}')
        daemon = fake_daemon([healthy, b""])
        with ServerClient(daemon.url) as client:
            assert client.healthz()["state"] == "running"
            with pytest.raises(ServerError, match="cannot reach"):
                client.healthz()
        assert daemon.accepted == 2

    def test_a_fresh_connection_is_never_retried(self, fake_daemon):
        daemon = fake_daemon([b""])  # every connection closes unanswered
        with ServerClient(daemon.url) as client:
            with pytest.raises(ServerError, match="cannot reach"):
                client.healthz()
        assert daemon.accepted == 1

    def test_a_timed_out_request_never_answers_the_next(self, make_server):
        server = make_server(workers=2)
        with HttpFrontend(server) as frontend:
            with ServerClient(frontend.url, http_timeout=0.5) as client:
                with pytest.raises(ServerError, match="timed out"):
                    client.check(selftest("sleep:1", "slow"))
                first = client.check(selftest("pass", "next-1"))
                second = client.check(selftest("fail", "next-2"))
        assert (first.check_id, first.verdict) == ("next-1", "PASS")
        assert (second.check_id, second.verdict) == ("next-2", "FAIL")

    def test_round_trips_do_not_stall_on_nagle(self, http_server):
        # a Nagle stall behind the client's delayed ACK costs >= 40 ms
        _, client = http_server(workers=1)
        client.check(selftest("pass", "warm"))
        seconds = []
        for index in range(20):
            started = time.perf_counter()
            client.check(selftest("pass", "c{}".format(index)))
            seconds.append(time.perf_counter() - started)
        assert statistics.median(seconds) < 0.020


def read_until_eof(sock):
    received = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            return received
        if not chunk:
            return received
        received += chunk


#: a request carried as another request's body: answering it is smuggling
SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


class TestFraming:
    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), b"404"),
            (b"GET /healthz HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), b"200"),
            (b"POST /check HTTP/1.1\r\nTransfer-Encoding: chunked", b"400"),
            (
                b"POST /check HTTP/1.1\r\nContent-Length: %d\r\n"
                b"Content-Length: 0" % len(SMUGGLED),
                b"400",
            ),
        ],
        ids=["unknown-path", "get-with-body", "chunked", "two-lengths"],
    )
    def test_unread_request_bytes_close_the_connection(
        self, http_server, head, status
    ):
        _, client = http_server(workers=1)
        probe = (
            head
            + b"\r\nHost: x\r\n\r\n"
            + SMUGGLED
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        with socket.create_connection((client.host, client.port), 30) as sock:
            sock.sendall(probe)
            received = read_until_eof(sock)
        assert received.startswith(b"HTTP/1.1 " + status)
        assert received.count(b"HTTP/1.1 ") == 1  # one response, then EOF
        assert b"Connection: close" in received


class TestHangUp:
    def test_a_client_that_hangs_up_costs_no_traceback(self, make_server, capfd):
        server = make_server(workers=2)
        with HttpFrontend(server, log=sys.stderr) as frontend:
            before = set(threading.enumerate())
            with ServerClient(frontend.url, http_timeout=0.3) as client:
                with pytest.raises(ServerError, match="timed out"):
                    client.check(selftest("sleep:1", "abandoned"))
            # the handler thread writes the late verdict to a closed socket
            handlers = set(threading.enumerate()) - before
            assert handlers
            wait_until(lambda: not any(t.is_alive() for t in handlers))
            with ServerClient(frontend.url) as client:
                assert client.check(selftest("pass", "next")).verdict == "PASS"
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert err.count("connection closed by the client") <= 1
