"""A dependency-free HTTP client for a running ``cspserve`` daemon.

The client shape is the CI gate from the related work: submit a manifest,
block on the verdicts, fail closed.  :meth:`ServerClient.run_manifest`
does exactly that (one ``POST /batch`` round trip, results in manifest
order), and :meth:`ServerClient.check` submits a single
:class:`~repro.exec.spec.CheckSpec`.  Rejections surface as
:class:`~repro.server.protocol.Rejection` (with the machine-readable code
and retry hint); transport problems -- daemon not running, connection
refused, unparseable response -- surface as :class:`ServerError`, which a
fail-closed caller treats like a failing verdict.

A client keeps its HTTP/1.1 connections open between requests: a request
takes an idle connection (or opens one), and the connection goes back on
the idle stack only after a complete response that did not say
``Connection: close``.  A closed loop of checks therefore costs one TCP
connection, and one daemon handler thread, per concurrent caller.  Any
failure discards the connection, so a timed-out request's late verdict can
never be read as the next request's answer.  A *reused* connection that
the daemon already closed (its idle timeout, a restart) fails while the
request is sent or its status line awaited; that request alone is sent
once more, on a fresh connection -- sound because a check is idempotent.
Use the client as a context manager, or call :meth:`ServerClient.close`,
to release the idle connections.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..exec.spec import BATCH_FORMAT_VERSION, CheckSpec, JobResult
from .protocol import Rejection, check_request


#: how a kept-alive connection the daemon already closed fails on reuse
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``)
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class ServerError(Exception):
    """The daemon could not be reached or spoke something unparseable."""


def parse_server_url(url: str) -> Tuple[str, int]:
    """``http://HOST:PORT`` (or bare ``HOST:PORT``) -> (host, port)."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    if parts.scheme != "http":
        raise ValueError(
            "server URL must be http:// (the daemon is localhost-only), "
            "got {!r}".format(url)
        )
    if not parts.hostname or not parts.port:
        raise ValueError("server URL needs an explicit host and port: {!r}".format(url))
    return parts.hostname, parts.port


class ServerClient:
    """Talks the server protocol to one daemon over localhost HTTP.

    Safe to share between threads: each concurrent request holds its own
    connection, and idle ones wait on a stack for the next request.
    """

    def __init__(self, url: str, *, http_timeout: Optional[float] = None) -> None:
        self._lock = threading.Lock()
        #: kept-alive connections no request is using, most recent last
        self._idle: List[HTTPConnection] = []
        self.host, self.port = parse_server_url(url)
        #: socket-level timeout per round trip (None: wait for the verdict)
        self.http_timeout = http_timeout

    def close(self) -> None:
        """Close every idle connection (a later request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:
        # a dropped client releases its sockets rather than leaking them
        self.close()

    # -- transport -----------------------------------------------------------

    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.http_timeout)

    def _round_trip(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        keep = False
        try:
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
            except _STALE:
                if not reused:
                    raise
                # the daemon closed this idle connection before reading the
                # request; a check is idempotent, so send it once more
                connection.close()
                connection = self._connect()
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
            raw = response.read()
            keep = not response.will_close
        except OSError as error:
            raise ServerError(
                "cannot reach cspserve at {}:{}: {}".format(
                    self.host, self.port, error
                )
            ) from None
        except HTTPException as error:
            raise ServerError(
                "malformed server response: {!r}".format(error)
            ) from None
        finally:
            # never reuse a failed connection: a late answer to this request
            # must not be read as the answer to the next one
            if keep:
                with self._lock:
                    self._idle.append(connection)
            else:
                connection.close()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as error:
            raise ServerError("unparseable server response: {}".format(error)) from None
        if not isinstance(doc, dict):
            raise ServerError(
                "unparseable server response: not a JSON object: {}".format(
                    raw[:200]
                )
            )
        return response.status, doc

    @staticmethod
    def _payload(status: int, doc: Dict[str, Any], key: str) -> Any:
        if doc.get("status") == "rejected":
            code = doc.get("code")
            if not isinstance(code, str):
                raise ServerError(
                    "rejection without a code (HTTP {}): {}".format(
                        status, json.dumps(doc, sort_keys=True)[:200]
                    )
                )
            raise Rejection(code, doc.get("error", ""))
        if status != 200 or key not in doc:
            raise ServerError(
                "unexpected server response (HTTP {}): {}".format(
                    status, json.dumps(doc, sort_keys=True)[:200]
                )
            )
        return doc[key]

    @staticmethod
    def _job_result(doc: Any) -> JobResult:
        try:
            return JobResult.from_doc(doc)
        except (KeyError, TypeError) as error:
            raise ServerError(
                "unreadable result document: {!r}".format(error)
            ) from None

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        status, doc = self._round_trip("GET", "/healthz")
        if status != 200:
            raise ServerError("unhealthy daemon (HTTP {})".format(status))
        return doc

    def stats(self) -> Dict[str, Any]:
        status, doc = self._round_trip("GET", "/stats")
        return self._payload(status, doc, "stats")

    def check(
        self,
        spec: Union[CheckSpec, Dict[str, Any]],
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
        request_id: Optional[str] = None,
        index: int = 0,
    ) -> JobResult:
        """Submit one check and block on its verdict."""
        spec_doc = spec.to_doc() if isinstance(spec, CheckSpec) else spec
        request = check_request(
            spec_doc,
            request_id=request_id,
            tenant=tenant,
            timeout=timeout,
            index=index,
        )
        status, doc = self._round_trip("POST", "/check", request)
        return self._job_result(self._payload(status, doc, "result"))

    def run_manifest(
        self,
        specs: Sequence[Union[CheckSpec, Dict[str, Any]]],
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[JobResult]:
        """Submit a whole manifest; results come back in manifest order."""
        body: Dict[str, Any] = {
            "format": BATCH_FORMAT_VERSION,
            "checks": [
                spec.to_doc() if isinstance(spec, CheckSpec) else spec
                for spec in specs
            ],
        }
        if tenant is not None:
            body["tenant"] = tenant
        if timeout is not None:
            body["timeout"] = timeout
        status, doc = self._round_trip("POST", "/batch", body)
        results = self._payload(status, doc, "results")
        if not isinstance(results, list):
            raise ServerError(
                "unexpected server response: 'results' is not a list"
            )
        return [self._job_result(entry) for entry in results]
