"""``cspserve`` -- the verification-as-a-service daemon.

Usage::

    cspserve [--stdio | --http HOST:PORT] [--workers N] [--queue-limit N]
             [--quota N] [--default-timeout S] [--max-timeout S]
             [--max-request-bytes N] [--cache-dir DIR]
             [--result-cache DIR | --no-result-cache] [--drain-timeout S]
             [--quiet] [--stats] [--profile] [--trace-out FILE]

Two transports over one core (:mod:`repro.server.core`):

* ``--stdio`` (the default) speaks JSON Lines on stdin/stdout -- request
  documents in, response documents out, in request order.  **stdout carries
  nothing but responses**; every diagnostic (the listening banner, the
  shutdown summary, ``--stats`` lines, profile tables) goes to stderr, the
  same contract the other console scripts pin.
* ``--http HOST:PORT`` binds the localhost HTTP/JSON frontend and serves
  until ``SIGINT``/``SIGTERM``, then drains gracefully: in-flight checks
  finish (bounded by ``--drain-timeout``), stragglers are force-cancelled.

Exit status: 0 after a clean serve-and-drain, 2 for unusable invocations.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    add_observability_args,
    add_result_cache_args,
    add_stats_arg,
    emit_stats,
    finish_observability,
    parse_endpoint,
    result_cache_dir_from_args,
    tracer_from_args,
)
from .core import VerificationServer
from .protocol import DEFAULT_MAX_REQUEST_BYTES
from .stdio import serve_stdio


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspserve",
        description="Serve CSP verification requests from a pool of warm "
        "worker processes, with request dedup, backpressure and per-tenant "
        "quotas.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL requests on stdin/stdout (the default mode)",
    )
    mode.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="serve HTTP/JSON on a loopback endpoint (PORT 0 picks one)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="persistent warm worker processes (default: 2)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max queued checks before fail-fast requests get 429/RETRY "
        "(default: 64)",
    )
    parser.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="N",
        help="max in-flight requests per tenant (default: unlimited)",
    )
    parser.add_argument(
        "--default-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout when the request names none",
    )
    parser.add_argument(
        "--max-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-wide cap on any request's timeout",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=DEFAULT_MAX_REQUEST_BYTES,
        metavar="N",
        help="largest accepted spec document (default: {})".format(
            DEFAULT_MAX_REQUEST_BYTES
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk compilation cache shared by workers",
    )
    add_result_cache_args(parser, "server verdicts")
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="grace period for in-flight checks at shutdown (default: 30)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the banner and summary diagnostics on stderr",
    )
    add_stats_arg(parser, "print server statistics to stderr at shutdown")
    add_observability_args(parser)
    return parser


def _validated(parser: argparse.ArgumentParser, args: argparse.Namespace):
    if args.workers < 1:
        parser.exit(EXIT_USAGE, "cspserve: --workers must be >= 1\n")
    if args.queue_limit < 1:
        parser.exit(EXIT_USAGE, "cspserve: --queue-limit must be >= 1\n")
    if args.quota is not None and args.quota < 1:
        parser.exit(EXIT_USAGE, "cspserve: --quota must be >= 1\n")
    if args.max_request_bytes < 1:
        parser.exit(EXIT_USAGE, "cspserve: --max-request-bytes must be >= 1\n")
    endpoint = None
    if args.http is not None:
        try:
            endpoint = parse_endpoint(args.http)
        except ValueError as error:
            parser.exit(EXIT_USAGE, "cspserve: {}\n".format(error))
    return endpoint


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    endpoint = _validated(parser, args)
    tracer = tracer_from_args(args)

    server = VerificationServer(
        workers=args.workers,
        queue_limit=args.queue_limit,
        quota=args.quota,
        cache_dir=args.cache_dir,
        result_cache_dir=result_cache_dir_from_args(args),
        default_timeout=args.default_timeout,
        max_timeout=args.max_timeout,
        max_request_bytes=args.max_request_bytes,
        obs=tracer if tracer.enabled else None,
    )
    with tracer.span("server", mode="http" if endpoint else "stdio"):
        server.start()
        try:
            if endpoint is None:
                # raw bytes: each line is decoded by the protocol layer, so
                # a non-UTF-8 line is a bad_request in every locale
                served = serve_stdio(
                    server,
                    getattr(sys.stdin, "buffer", sys.stdin),
                    sys.stdout,
                    drain_timeout=args.drain_timeout,
                )
                if not args.quiet:
                    sys.stderr.write(
                        "cspserve: served {} request{}\n".format(
                            served, "" if served == 1 else "s"
                        )
                    )
            else:
                _serve_http(server, endpoint, args)
        except KeyboardInterrupt:
            sys.stderr.write("cspserve: interrupted\n")
        finally:
            server.close(drain=True, timeout=args.drain_timeout)
    if args.stats:
        snapshot = server.stats()
        emit_stats(sorted(snapshot["metrics"].items()))
        if snapshot["result_cache"] is not None:
            emit_stats(sorted(snapshot["result_cache"].items()))
    finish_observability(args, tracer, server.merged_profile())
    return EXIT_OK


def _serve_http(server: VerificationServer, endpoint, args) -> None:
    # deferred: the stdio path should not pay for the HTTP machinery
    from .http import HttpFrontend

    host, port = endpoint
    frontend = HttpFrontend(
        server, host, port, log=None if args.quiet else sys.stderr
    )
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)
    try:
        frontend.start()
        if not args.quiet:
            sys.stderr.write(
                "cspserve: listening on {}\n".format(frontend.url)
            )
            sys.stderr.flush()
        stop.wait()
        if not args.quiet:
            sys.stderr.write("cspserve: draining\n")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        frontend.stop()


if __name__ == "__main__":
    sys.exit(main())
