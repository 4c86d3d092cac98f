"""The stdio-JSONL frontend: requests on stdin, responses on stdout.

One JSON request document per input line; one JSON response per output
line, **in request order** -- execution underneath is concurrent (every
``check`` enters the server queue the moment its line is read, so N
requests fan out over the warm worker pool and coalesce under dedup), but
emitting responses in submission order keeps the stream deterministic and
trivially correlatable even for clients that never set request ids.

``ping`` and ``stats`` resolve immediately (still in order); ``shutdown``
stops reading and drains.  EOF on stdin is a graceful shutdown too: every
response already owed is still written before the loop returns.  Nothing
but response JSONL ever goes to stdout -- diagnostics belong to the CLI
wrapper's stderr.
"""

from __future__ import annotations

from typing import IO, Iterable, Optional, Union

from .core import Ticket, VerificationServer
from .protocol import (
    DEFAULT_TENANT,
    ProtocolError,
    Rejection,
    ok_response,
    parse_request_line,
    rejection_response,
    response_line,
)

#: a queue slot is either a finished response document or a pending ticket
_Slot = Union[dict, Ticket]


def serve_stdio(
    server: VerificationServer,
    stdin: Iterable[Union[str, bytes]],
    stdout: IO[str],
    *,
    drain_timeout: Optional[float] = None,
) -> int:
    """Run the request/response loop until EOF or ``shutdown``.

    *stdin* yields request lines as text or as raw bytes; raw lines are
    decoded one by one, so a line that is not UTF-8 is answered
    ``bad_request`` and the loop goes on.  Returns the number of requests
    served.  The *server* must already be started; it is drained (bounded
    by *drain_timeout*) before the loop returns, so by then every admitted
    check has produced its response line.
    """
    slots = []
    served = 0

    def flush_ready(block: bool) -> None:
        # emit the ordered prefix of finished slots; with block=True wait
        # out the head instead of stopping at it
        while slots:
            head = slots[0]
            if isinstance(head, Ticket):
                if not block and not head.done:
                    break
                response = head.wait()
                if response is None:  # pragma: no cover - tickets resolve
                    break
            else:
                response = head
            stdout.write(response_line(response) + "\n")
            stdout.flush()
            slots.pop(0)

    for line in stdin:
        if not line.strip():
            continue
        served += 1
        request_id = None
        try:
            try:
                request = parse_request_line(line, server.max_request_bytes)
            except (Rejection, ProtocolError) as error:
                # refused before admission (submit counts its own)
                raise server.refuse(error)
            request_id = request.get("id")
            op = request["op"]
            if op == "ping":
                slots.append(ok_response(request_id, "pong", True))
            elif op == "stats":
                slots.append(ok_response(request_id, "stats", server.stats()))
            elif op == "shutdown":
                slots.append(ok_response(request_id, "closing", True))
                flush_ready(block=True)
                break
            else:
                ticket = server.submit(
                    request["spec"],
                    tenant=request.get("tenant", DEFAULT_TENANT),
                    timeout=request.get("timeout"),
                    request_id=request_id,
                    index=request.get("index", served - 1),
                )
                slots.append(ticket)
        except Rejection as rejection:
            slots.append(rejection_response(request_id, rejection))
        flush_ready(block=False)

    server.close(drain=True, timeout=drain_timeout)
    flush_ready(block=True)
    return served
