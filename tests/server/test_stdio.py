"""The stdio-JSONL frontend: ordered responses over concurrent execution."""

import io
import json
import os
import subprocess
import sys

from repro.batch import CheckSpec
from repro.server import serve_stdio
from repro.server.protocol import check_request


def selftest(op, check_id, **options):
    return CheckSpec.selftest(op, check_id=check_id, **options).to_doc()


def line_of(doc):
    return json.dumps(doc)


def run(make_server, lines, **options):
    server = make_server(**options)
    out = io.StringIO()
    served = serve_stdio(server, lines, out)
    docs = [json.loads(text) for text in out.getvalue().splitlines()]
    return served, docs


def test_ping_and_stats_resolve_in_order(make_server):
    served, docs = run(
        make_server,
        [
            line_of({"op": "ping", "id": "p1"}),
            line_of({"op": "stats", "id": "s1"}),
        ],
        workers=1,
    )
    assert served == 2
    assert [doc["id"] for doc in docs] == ["p1", "s1"]
    assert docs[0]["pong"] is True
    assert docs[1]["stats"]["state"] == "running"


def test_check_round_trip(make_server):
    served, docs = run(
        make_server,
        [line_of(check_request(selftest("pass", "c1"), request_id="r1"))],
        workers=1,
    )
    assert served == 1
    assert docs[0]["status"] == "ok"
    assert docs[0]["id"] == "r1"
    assert docs[0]["result"]["verdict"] == "PASS"
    assert docs[0]["result"]["id"] == "c1"


def test_responses_keep_request_order_under_concurrency(make_server):
    # the fast check finishes first, but its response must wait its turn
    served, docs = run(
        make_server,
        [
            line_of(check_request(selftest("sleep:0.5", "slow"))),
            line_of(check_request(selftest("pass", "fast"))),
        ],
        workers=2,
    )
    assert served == 2
    assert [doc["result"]["id"] for doc in docs] == ["slow", "fast"]
    assert [doc["result"]["verdict"] for doc in docs] == ["PASS", "PASS"]


def test_blank_lines_are_skipped(make_server):
    served, docs = run(
        make_server,
        ["", "   ", line_of({"op": "ping"}), "\n"],
        workers=1,
    )
    assert served == 1
    assert len(docs) == 1


def test_malformed_line_rejects_and_serving_continues(make_server):
    served, docs = run(
        make_server,
        ["{not json", line_of({"op": "ping", "id": "after"})],
        workers=1,
    )
    assert served == 2
    assert docs[0]["status"] == "rejected"
    assert docs[0]["code"] == "bad_request"
    assert docs[0]["retry"] is False
    assert docs[1]["id"] == "after"


def test_non_utf8_line_rejects_and_serving_continues(make_server):
    served, docs = run(
        make_server,
        [
            b'{"op": "ping", "id": "\xff"}\n',
            (line_of({"op": "ping", "id": "after"}) + "\n").encode("utf-8"),
        ],
        workers=1,
    )
    assert served == 2
    assert docs[0]["code"] == "bad_request"
    assert docs[0]["error"].startswith("request is not UTF-8 text: ")
    assert docs[1]["id"] == "after"
    assert docs[1]["pong"] is True


def test_non_utf8_line_under_strict_stdin_decoding():
    # with PYTHONIOENCODING=utf-8 a text stdin would raise on this line and
    # kill the daemon; the bytes are decoded per line instead
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env.setdefault("PYTHONPATH", "src")
    request = b'{"op": "ping", "id": "\xff"}\n' + (
        line_of({"op": "ping", "id": "after"}) + "\n"
    ).encode("utf-8")
    daemon = subprocess.run(
        [sys.executable, "-m", "repro.server.cli", "--stdio", "--workers", "1"],
        input=request,
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert daemon.returncode == 0, daemon.stderr
    docs = [json.loads(line) for line in daemon.stdout.splitlines()]
    assert len(docs) == 2
    assert docs[0]["code"] == "bad_request"
    assert docs[1]["pong"] is True
    assert b"Traceback" not in daemon.stderr


def test_nesting_bomb_line_rejects_and_serving_continues(make_server, nested_term_json):
    # ~177 KB, under the size cap: the JSON decoder's recursion limit trips
    bomb = (
        '{"op": "check", "id": "bomb", "spec": {"kind": "property", '
        '"property": "deadlock free", "term": ' + nested_term_json(3000) + "}}"
    )
    served, docs = run(
        make_server, [bomb, line_of({"op": "ping", "id": "after"})], workers=1
    )
    assert served == 2
    assert docs[0]["code"] == "bad_request"
    assert docs[1]["id"] == "after"
    assert docs[1]["pong"] is True


def test_term_a_constructor_refuses_rejects_and_serving_continues(make_server):
    # ProcessRef("") raises a plain ValueError while the term decodes; it
    # must answer in place, not end the loop before the admitted check
    refused = {
        "kind": "property",
        "property": "deadlock free",
        "term": {"op": "ref", "name": ""},
    }
    served, docs = run(
        make_server,
        [
            line_of(check_request(selftest("pass", "before"), request_id="c")),
            line_of(check_request(refused, request_id="bad")),
            line_of({"op": "ping", "id": "after"}),
        ],
        workers=1,
    )
    assert served == 3
    assert [doc["id"] for doc in docs] == ["c", "bad", "after"]
    assert docs[0]["result"]["verdict"] == "PASS"
    assert docs[1]["code"] == "bad_request"
    assert docs[1]["error"].startswith("undecodable spec: ")
    assert docs[2]["pong"] is True


def test_unknown_op_rejects_in_place(make_server):
    served, docs = run(make_server, [line_of({"op": "explode"})], workers=1)
    assert docs[0]["status"] == "rejected"
    assert docs[0]["code"] == "bad_request"
    assert "unknown op" in docs[0]["error"]


def test_oversize_line_rejects_before_parsing(make_server):
    request = check_request(selftest("pass", "big", name="z" * 2000))
    served, docs = run(
        make_server, [line_of(request)], workers=1, max_request_bytes=200
    )
    assert docs[0]["status"] == "rejected"
    assert docs[0]["code"] == "oversize"


def test_every_rejection_answered_is_counted_once(make_server):
    server = make_server(workers=1, max_request_bytes=2000)
    lines = [
        "{not json",
        b'{"op": "ping", "id": "\xff"}\n',
        line_of(check_request({"kind": "bogus"})),
        line_of(check_request(selftest("pass", "big", name="z" * 3000))),
    ]
    out = io.StringIO()
    assert serve_stdio(server, lines, out) == 4
    docs = [json.loads(text) for text in out.getvalue().splitlines()]
    assert [doc["code"] for doc in docs] == ["bad_request"] * 3 + ["oversize"]
    assert server.metrics.counter("server.rejected.bad_request").value == 3
    assert server.metrics.counter("server.rejected.oversize").value == 1


def test_quota_rejection_flows_to_the_response_stream(make_server):
    served, docs = run(
        make_server,
        [
            line_of(check_request(selftest("sleep:0.75", "first"))),
            line_of(check_request(selftest("pass", "second"))),
        ],
        workers=1,
        quota=1,
    )
    assert served == 2
    # the second line arrived while the first was in flight: over quota
    assert docs[0]["status"] == "ok"
    assert docs[1]["status"] == "rejected"
    assert docs[1]["code"] == "quota"
    assert docs[1]["retry"] is True


def test_shutdown_op_stops_reading_and_drains(make_server):
    served, docs = run(
        make_server,
        [
            line_of(check_request(selftest("pass", "before"))),
            line_of({"op": "shutdown", "id": "bye"}),
            line_of({"op": "ping", "id": "never-read"}),
        ],
        workers=1,
    )
    assert served == 2  # the trailing ping was never consumed
    assert docs[0]["result"]["id"] == "before"
    assert docs[1] == {
        "protocol": 1,
        "id": "bye",
        "status": "ok",
        "closing": True,
    }
    assert len(docs) == 2


def test_eof_drains_every_owed_response(make_server):
    served, docs = run(
        make_server,
        [line_of(check_request(selftest("sleep:0.3", "owed")))],
        workers=1,
    )
    assert served == 1
    assert docs[0]["result"]["verdict"] == "PASS"


def test_server_is_closed_after_the_loop(make_server):
    server = make_server(workers=1)
    out = io.StringIO()
    serve_stdio(server, [line_of({"op": "ping"})], out)
    assert server.state == "closed"
