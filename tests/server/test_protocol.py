"""The server wire protocol: envelopes, rejections and the keys of documents."""

import json

import pytest

from repro.batch import CheckSpec
from repro.exec.keys import material_key
from repro.server.protocol import (
    BAD_REQUEST,
    DRAINING,
    HTTP_STATUS_OF,
    OVERSIZE,
    QUEUE_FULL,
    QUOTA,
    SERVER_PROTOCOL_VERSION,
    ProtocolError,
    Rejection,
    check_request,
    ok_response,
    parse_request,
    parse_request_line,
    rejection_response,
    response_line,
    result_response,
)


def spec_doc(check_id="c1", name=None):
    return CheckSpec.selftest("pass", check_id=check_id, name=name).to_doc()


class TestRequests:
    def test_check_request_minimal(self):
        doc = check_request(spec_doc())
        assert doc == {"op": "check", "spec": spec_doc()}

    def test_check_request_full(self):
        doc = check_request(
            spec_doc(), request_id="r1", tenant="ci", timeout=2.5, index=3
        )
        assert doc["id"] == "r1"
        assert doc["tenant"] == "ci"
        assert doc["timeout"] == 2.5
        assert doc["index"] == 3

    def test_parse_accepts_every_op(self):
        assert parse_request({"op": "ping"})["op"] == "ping"
        assert parse_request({"op": "stats"})["op"] == "stats"
        assert parse_request({"op": "shutdown"})["op"] == "shutdown"
        assert parse_request(check_request(spec_doc()))["op"] == "check"

    def test_parse_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            parse_request(["op", "check"])

    def test_parse_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"op": "explode"})

    def test_parse_rejects_check_without_spec(self):
        with pytest.raises(ProtocolError, match="'spec'"):
            parse_request({"op": "check"})

    def test_parse_rejects_bad_tenant(self):
        with pytest.raises(ProtocolError, match="tenant"):
            parse_request({"op": "ping", "tenant": ""})
        with pytest.raises(ProtocolError, match="tenant"):
            parse_request({"op": "ping", "tenant": 7})

    @pytest.mark.parametrize(
        "timeout", [0, -1, "5", True, float("nan"), float("inf")]
    )
    def test_parse_rejects_bad_timeout(self, timeout):
        # NaN passed "> 0" unnoticed and slipped past the daemon's max
        # timeout; an infinite one is refused the same way
        with pytest.raises(ProtocolError, match="timeout"):
            parse_request({"op": "ping", "timeout": timeout})

    def test_parse_line_round_trip(self):
        line = json.dumps(check_request(spec_doc(), request_id="r"))
        assert parse_request_line(line, 1 << 20)["id"] == "r"

    def test_parse_line_rejects_oversize_before_json(self):
        # not even valid JSON: the size cap must fire first
        with pytest.raises(Rejection) as excinfo:
            parse_request_line("x" * 100, 50)
        assert excinfo.value.code == OVERSIZE

    def test_parse_line_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request_line("{nope", 1 << 20)


class TestResponses:
    def test_ok_response_shape(self):
        doc = ok_response("r1", "pong", True)
        assert doc == {
            "protocol": SERVER_PROTOCOL_VERSION,
            "id": "r1",
            "status": "ok",
            "pong": True,
        }

    def test_result_response_carries_the_result(self):
        doc = result_response(None, {"verdict": "PASS"})
        assert doc["status"] == "ok"
        assert doc["result"] == {"verdict": "PASS"}

    def test_rejection_response_shape(self):
        doc = rejection_response("r2", Rejection(QUOTA, "over quota"))
        assert doc == {
            "protocol": SERVER_PROTOCOL_VERSION,
            "id": "r2",
            "status": "rejected",
            "code": QUOTA,
            "retry": True,
            "error": "over quota",
        }

    def test_response_line_is_deterministic(self):
        doc = ok_response("x", "stats", {"b": 1, "a": 2})
        assert response_line(doc) == response_line(json.loads(response_line(doc)))


class TestRejectionMapping:
    def test_http_status_table_is_pinned(self):
        # the documented contract: 429 retryable for load, 4xx final for
        # bad requests, 503 retryable while draining
        assert HTTP_STATUS_OF[QUEUE_FULL] == (429, True)
        assert HTTP_STATUS_OF[QUOTA] == (429, True)
        assert HTTP_STATUS_OF[BAD_REQUEST] == (400, False)
        assert HTTP_STATUS_OF[OVERSIZE] == (413, False)
        assert HTTP_STATUS_OF[DRAINING] == (503, True)

    def test_rejection_properties_follow_the_table(self):
        rejection = Rejection(QUEUE_FULL, "full")
        assert rejection.http_status == 429
        assert rejection.retryable
        assert not Rejection(BAD_REQUEST, "bad").retryable


def key_of(doc):
    """The key the server gives a document: material() of the decoded check."""
    return material_key(CheckSpec.from_doc(doc).material())


class TestStructuralKeys:
    def test_material_drops_only_the_id(self):
        spec = CheckSpec.from_doc(spec_doc(check_id="a", name="n"))
        text = json.loads(spec.material())
        assert "id" not in text
        assert text["name"] == "n"
        assert text["kind"] == "selftest"

    def test_same_check_different_ids_share_a_key(self):
        assert key_of(spec_doc("a")) == key_of(spec_doc("b"))

    def test_name_participates_in_the_key(self):
        # the name surfaces in canonical result documents, so two requests
        # that differ in it must not coalesce
        assert key_of(spec_doc(name="x")) != key_of(spec_doc(name="y"))

    def test_key_is_independent_of_document_key_order(self):
        doc = spec_doc(check_id="a", name="n")
        reordered = dict(reversed(list(doc.items())))
        assert key_of(doc) == key_of(reordered)

    def test_different_checks_have_different_keys(self):
        fail = CheckSpec.selftest("fail", check_id="a").to_doc()
        assert key_of(spec_doc("a")) != key_of(fail)
