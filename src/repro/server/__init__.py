"""repro.server -- verification as a long-lived service.

The daemon the feedback loop of the paper's Fig. 1 runs against: instead of
paying interpreter start-up and cold compilation per CLI invocation, a
``cspserve`` process keeps a pool of warm workers (one shared
:class:`~repro.engine.diskcache.DiskCache`) behind a bounded job queue, and
accepts :class:`~repro.exec.spec.CheckSpec` documents over stdio-JSONL or
localhost HTTP/JSON.  Identical in-flight checks from any number of clients
coalesce onto one execution (dedup by structural key); full queues and
exceeded per-tenant quotas answer with deterministic retryable rejections;
verdicts are canonically byte-identical to an inline ``cspbatch`` run.

The package builds on :mod:`repro.exec` (wire format, structural keys,
execution, workers, result cache) and on nothing above it;
:mod:`repro.batch` runs its pooled batches on :class:`VerificationServer`.

Layering::

    protocol.py   request/response documents and rejection codes
    core.py       queue + warm worker pool + dedup/quota/backpressure/drain
    stdio.py      JSON Lines frontend (responses in request order)
    http.py       localhost HTTP frontend (429/400/413/503 mapping)
    client.py     ServerClient -- the fail-closed CI-gate client shape
    cli.py        the ``cspserve`` console script
"""

from .client import ServerClient, ServerError
from .core import Ticket, VerificationServer
from .protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_TENANT,
    Rejection,
    SERVER_PROTOCOL_VERSION,
)
from .stdio import serve_stdio

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_TENANT",
    "Rejection",
    "SERVER_PROTOCOL_VERSION",
    "ServerClient",
    "ServerError",
    "Ticket",
    "VerificationServer",
    "serve_stdio",
]
