"""The localhost HTTP/JSON frontend.

A thin, dependency-free mapping of the server protocol onto HTTP --
:class:`http.server.ThreadingHTTPServer` bound to the loopback interface,
one handler thread per connection, every body a JSON document:

========================= ==================================================
``GET /healthz``          liveness: ``{"status": "ok", "state": ...}``
``GET /stats``            the live scheduler/metrics snapshot
``POST /check``           one check request (``{"spec": {...}, "tenant":
                          ..., "timeout": ...}``); blocks until the verdict
``POST /batch``           a whole ``cspbatch`` manifest (``{"format": 1,
                          "checks": [...]}``); blocks until every verdict,
                          responds ``{"results": [...]}`` in manifest order
========================= ==================================================

Rejections map onto status codes via
:data:`~repro.server.protocol.HTTP_STATUS_OF` -- 429 for a full queue or an
exceeded quota (with ``Retry-After``, the fail-closed CI client's cue), 400
for malformed documents, 413 oversize, 503 while draining.  ``/check`` is
fail-fast under backpressure; ``/batch`` opts into blocking admission, so a
saturated queue slows the submitter instead of bouncing its manifest.

Connections are HTTP/1.1 and kept alive, so a client's whole session can
ride one connection and one handler thread.  Three rules make that safe:
a response to a request whose body the handler did not read (a rejection,
an unknown path, a ``GET`` with a body) says ``Connection: close``, so
unread bytes are never parsed as the next request; a request framed by
``Transfer-Encoding`` or by more than one ``Content-Length`` is a 400 that
closes; and a connection idle for :data:`IDLE_TIMEOUT_S` is closed.  A
client that hangs up costs one log line, not a traceback.  Accepted
connections are counted as ``server.http_connections``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO, Optional, Tuple

from ..exec.spec import ManifestError, parse_manifest
from .core import VerificationServer
from .protocol import (
    DEFAULT_TENANT,
    OVERSIZE,
    ProtocolError,
    Rejection,
    SERVER_PROTOCOL_VERSION,
    check_options,
    ok_response,
    parse_request,
    rejection_response,
    result_response,
)

#: slack for the request envelope around one max-size spec document
_ENVELOPE_SLACK = 64 * 1024

#: a manifest may carry many specs; each one is still capped individually
_BATCH_BODY_FACTOR = 64

#: seconds a kept-alive connection may wait for its next request before the
#: daemon closes it, so an idle client cannot hold a handler thread forever
IDLE_TIMEOUT_S = 60.0

_CLOSE = {"Connection": "close"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "cspserve/{}".format(SERVER_PROTOCOL_VERSION)
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two sends (headers, body), and on
    #: a kept-alive connection Nagle's algorithm would hold the second back
    #: until the client's delayed ACK, tens of milliseconds later
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def core(self) -> VerificationServer:
        return self.server.core  # type: ignore[attr-defined]

    def setup(self) -> None:
        # the socket timeout bounds every read, the wait for the next
        # request on a kept-alive connection included
        self.timeout = IDLE_TIMEOUT_S
        super().setup()
        self.core.count("server.http_connections")

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError as error:
            # the client hung up (its own timeout, or an idle connection it
            # reset): routine, so one log line and no traceback
            self.log_error("connection closed by the client: %r", error)
            self.close_connection = True

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        lengths = self.headers.get_all("Content-Length") or []
        if "Transfer-Encoding" in self.headers or len(lengths) > 1:
            # an ambiguous body length is how requests get smuggled
            self._send_rejection(
                None,
                self.core.refuse(
                    ProtocolError(
                        "a request body must be framed by exactly one "
                        "Content-Length (no Transfer-Encoding)"
                    )
                ),
            )
            return False
        return True

    def log_message(self, format: str, *args: Any) -> None:
        log = getattr(self.server, "log_stream", None)
        if log is not None:
            log.write("http: {}\n".format(format % args))

    def _send_json(
        self,
        status: int,
        doc: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_rejection(self, request_id: Optional[str], rejection: Rejection) -> None:
        # close after every rejection: an oversize request's body was never
        # read, and must not be misparsed as the next request on the socket
        headers = dict(_CLOSE)
        if rejection.retryable:
            headers["Retry-After"] = "1"
        self._send_json(
            rejection.http_status,
            rejection_response(request_id, rejection),
            headers,
        )

    def _read_body(self, cap: Optional[int]) -> Dict[str, Any]:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ProtocolError("Content-Length is required")
        try:
            size = int(length)
        except ValueError:
            raise ProtocolError("unreadable Content-Length")
        if size < 0:
            raise ProtocolError("unreadable Content-Length")
        if cap is not None and size > cap:
            raise self.core.refuse(
                Rejection(
                    OVERSIZE,
                    "request body of {} bytes exceeds the {} byte cap".format(
                        size, cap
                    ),
                )
            )
        raw = self.rfile.read(size)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as error:
            # RecursionError: nesting deeper than the JSON decoder recurses
            raise ProtocolError("request body is not valid JSON: {}".format(error))
        if not isinstance(doc, dict):
            raise ProtocolError("request body must be a JSON object")
        return doc

    # -- endpoints -----------------------------------------------------------

    def do_GET(self) -> None:
        # a GET never reads a body: one it carries must not become a request
        close = None if self.headers.get("Content-Length", "0") == "0" else _CLOSE
        if self.path == "/healthz":
            self._send_json(
                200, {"status": "ok", "state": self.core.state}, close
            )
        elif self.path == "/stats":
            self._send_json(
                200, ok_response(None, "stats", self.core.stats()), close
            )
        else:
            self._send_json(
                404, {"status": "error", "error": "unknown path"}, close
            )

    def do_POST(self) -> None:
        request_id: Optional[str] = None
        limit = self.core.max_request_bytes  # None: the core caps nothing
        try:
            if self.path == "/check":
                body = self._read_body(
                    None if limit is None else limit + _ENVELOPE_SLACK
                )
                body.setdefault("op", "check")
                request = parse_request(body)
                request_id = request.get("id")
                self._handle_check(request)
            elif self.path == "/batch":
                body = self._read_body(
                    None if limit is None else limit * _BATCH_BODY_FACTOR
                )
                request_id = body.get("id")
                self._handle_batch(request_id, body)
            else:
                # the body is left unread, so the connection cannot go on
                self._send_json(
                    404, {"status": "error", "error": "unknown path"}, _CLOSE
                )
        except Rejection as rejection:
            self._send_rejection(request_id, rejection)
        except (ProtocolError, ManifestError) as error:
            # refused before admission (submit counts its own rejections)
            self._send_rejection(request_id, self.core.refuse(error))

    def _handle_check(self, request: Dict[str, Any]) -> None:
        ticket = self.core.submit(
            request["spec"],
            tenant=request.get("tenant", DEFAULT_TENANT),
            timeout=request.get("timeout"),
            request_id=request.get("id"),
            index=request.get("index", 0),
        )
        response = ticket.wait()
        assert response is not None
        status = 200 if response.get("status") == "ok" else 500
        self._send_json(status, response)

    def _handle_batch(self, request_id: Optional[str], body: Dict[str, Any]) -> None:
        check_options(body)
        # full schema validation up front; each spec is decoded here, once,
        # and submitted as it is
        specs = parse_manifest(
            {key: value for key, value in body.items() if key in ("format", "checks")}
        )
        tenant = body.get("tenant", DEFAULT_TENANT)
        timeout = body.get("timeout")
        tickets = [
            self.core.submit(
                spec,
                tenant=tenant,
                timeout=timeout,
                request_id=request_id,
                index=index,
                block=True,  # backpressure slows the batch, never bounces it
            )
            for index, spec in enumerate(specs)
        ]
        results = []
        for ticket in tickets:
            response = ticket.wait()
            assert response is not None
            if response.get("status") != "ok":  # pragma: no cover - defensive
                raise Rejection(response["code"], response["error"])
            results.append(response["result"])
        self._send_json(200, ok_response(request_id, "results", results))


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class HttpFrontend:
    """The HTTP listener around one :class:`VerificationServer`.

    Binds eagerly (so ``port=0`` resolves to a real ephemeral port before
    :meth:`start` is called) and serves from a daemon thread.
    """

    def __init__(
        self,
        core: VerificationServer,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Optional[IO[str]] = None,
    ) -> None:
        self.core = core
        self._httpd = _Httpd((host, port), _Handler)
        self._httpd.core = core  # type: ignore[attr-defined]
        self._httpd.log_stream = log  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://{}:{}".format(host, port)

    def start(self) -> "HttpFrontend":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="cspserve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections.

        Connections already open are still served until their client
        closes them or they idle out, so a request in flight during a
        drain still gets its answer.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI mode)."""
        self._httpd.serve_forever()

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
