"""The server wire protocol: request/response documents and rejections.

One protocol serves both transports.  A **request** is a JSON object with an
``op`` (``check``, ``ping``, ``stats``, ``shutdown``); a ``check`` request
wraps one :class:`~repro.exec.spec.CheckSpec` document -- exactly the
manifest schema, so anything a ``cspbatch`` manifest can say, a server
client can submit.  A **response** echoes the request's client-chosen ``id``
and is either ``status: "ok"`` with a payload or ``status: "rejected"`` with
a machine-readable rejection ``code`` and a ``retry`` hint.

Over stdio the documents travel as JSON Lines (one request per stdin line,
one response per stdout line, in request order).  Over HTTP the same
documents are POST bodies and responses, with rejection codes mapped onto
status codes (:data:`HTTP_STATUS_OF`): full queues and exceeded quotas are
``429`` (retryable -- the CI-gate client shape retries or fails closed),
malformed specs ``400``, oversize ones ``413``, a draining server ``503``.

The dedup key two requests coalesce on is not part of the protocol: the
server decodes each spec document once and keys it by
:meth:`~repro.exec.spec.CheckSpec.material` of the decoded check, shared
with the result cache, so two spellings of one check coalesce.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple, Union

#: bump when the request/response shapes change; responses carry it
SERVER_PROTOCOL_VERSION = 1

#: request operations
OPS = ("check", "ping", "stats", "shutdown")

#: rejection codes (response ``code`` field when ``status`` is rejected)
QUEUE_FULL = "queue_full"
QUOTA = "quota"
BAD_REQUEST = "bad_request"
OVERSIZE = "oversize"
DRAINING = "draining"

#: rejection code -> (HTTP status, retryable)
HTTP_STATUS_OF: Dict[str, Tuple[int, bool]] = {
    QUEUE_FULL: (429, True),
    QUOTA: (429, True),
    BAD_REQUEST: (400, False),
    OVERSIZE: (413, False),
    DRAINING: (503, True),
}

#: default cap on one encoded request document (bytes)
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: the tenant requests fall under when they name none
DEFAULT_TENANT = "anonymous"


class ProtocolError(ValueError):
    """The request document is outside the protocol schema."""


class Rejection(Exception):
    """A request the server refused; carries the deterministic rejection."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def retryable(self) -> bool:
        return HTTP_STATUS_OF[self.code][1]

    @property
    def http_status(self) -> int:
        return HTTP_STATUS_OF[self.code][0]


# -- requests -----------------------------------------------------------------


def check_request(
    spec_doc: Dict[str, Any],
    *,
    request_id: Optional[str] = None,
    tenant: Optional[str] = None,
    timeout: Optional[float] = None,
    index: Optional[int] = None,
) -> Dict[str, Any]:
    """Build one ``check`` request document around a spec document."""
    doc: Dict[str, Any] = {"op": "check", "spec": spec_doc}
    if request_id is not None:
        doc["id"] = request_id
    if tenant is not None:
        doc["tenant"] = tenant
    if timeout is not None:
        doc["timeout"] = timeout
    if index is not None:
        doc["index"] = index
    return doc


def parse_request(doc: Any) -> Dict[str, Any]:
    """Validate the envelope of one request document (not the spec inside)."""
    if not isinstance(doc, dict):
        raise ProtocolError("a request must be a JSON object")
    op = doc.get("op")
    if op not in OPS:
        raise ProtocolError(
            "unknown op {!r}; known: {}".format(op, ", ".join(OPS))
        )
    if op == "check" and not isinstance(doc.get("spec"), dict):
        raise ProtocolError("a check request needs a 'spec' object")
    return check_options(doc)


def check_options(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the ``tenant`` and ``timeout`` of a check or batch request."""
    tenant = doc.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    timeout = doc.get("timeout")
    if timeout is not None and (
        not isinstance(timeout, (int, float))
        or isinstance(timeout, bool)
        or not 0 < timeout < math.inf  # NaN and infinity, too
    ):
        raise ProtocolError("'timeout' must be a positive number")
    return doc


def parse_request_line(
    line: Union[str, bytes], max_bytes: Optional[int]
) -> Dict[str, Any]:
    """Parse one stdio-JSONL request line, enforcing the size cap first.

    A raw *line* (bytes, as read from a binary stdin) is decoded here, so
    an undecodable one is a ``bad_request`` whatever the locale.
    """
    if isinstance(line, bytes):
        size = len(line)
    else:
        size = len(line.encode("utf-8", errors="replace"))
    if max_bytes is not None and size > max_bytes:
        raise Rejection(
            OVERSIZE,
            "request of {} bytes exceeds the {} byte cap".format(size, max_bytes),
        )
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("request is not UTF-8 text: {}".format(error))
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as error:
        # RecursionError: nesting deeper than the JSON decoder recurses
        raise ProtocolError("request is not valid JSON: {}".format(error))
    return parse_request(doc)


# -- responses ----------------------------------------------------------------


def ok_response(
    request_id: Optional[str], payload_key: str, payload: Any
) -> Dict[str, Any]:
    return {
        "protocol": SERVER_PROTOCOL_VERSION,
        "id": request_id,
        "status": "ok",
        payload_key: payload,
    }


def result_response(
    request_id: Optional[str], result_doc: Dict[str, Any]
) -> Dict[str, Any]:
    return ok_response(request_id, "result", result_doc)


def rejection_response(
    request_id: Optional[str], rejection: Rejection
) -> Dict[str, Any]:
    return {
        "protocol": SERVER_PROTOCOL_VERSION,
        "id": request_id,
        "status": "rejected",
        "code": rejection.code,
        "retry": rejection.retryable,
        "error": rejection.message,
    }


def response_line(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)
