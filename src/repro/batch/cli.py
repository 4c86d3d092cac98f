"""``cspbatch`` -- batch-verify a manifest of checks over worker processes.

Usage::

    cspbatch MANIFEST.json [--jobs N] [--timeout S] [--batch-timeout S]
             [--cache-dir DIR] [--result-cache DIR | --no-result-cache]
             [--server URL] [--tenant NAME]
             [--quiet] [--profile] [--trace-out FILE]

The manifest is a JSON document (``{"format": 1, "checks": [...]}``, schema
in :mod:`repro.batch.spec` and ``docs/batch.md``); ``-`` reads it from
stdin.  Results stream to stdout as JSON Lines, one canonical result per
check **in manifest order** -- the same bytes regardless of ``--jobs``,
scheduling, or cache temperature.  Diagnostics (the batch summary, per-job
failure lines, profiles) go to stderr.

``--server URL`` points the same manifest at a running ``cspserve`` daemon
instead of a local worker pool: one ``POST /batch`` round trip, canonical
JSONL out, byte-identical to the local modes.  Concurrency, caching and
per-job deadlines are then the daemon's configuration, so ``--jobs``,
``--cache-dir`` and ``--batch-timeout`` are ignored (``--timeout`` still
travels with each check).  A daemon that cannot be reached exits 2; a
rejected submission (queue full, quota) exits 1 -- the fail-closed gate
shape: no verdict means no pass.

Exit status: 0 when every job passed, 1 when any job's verdict was not
``PASS``, 2 for an unusable invocation or manifest.  ``SIGINT`` aborts
cleanly: running workers are terminated before the process exits with
status 1.  ``--batch-timeout`` is the graceful flavour -- jobs cut off by
the deadline still get a ``CANCELLED`` result line each.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    add_observability_args,
    add_result_cache_args,
    add_stats_arg,
    emit_stats,
    finish_observability,
    result_cache_dir_from_args,
    tracer_from_args,
)
from .executor import run_batch
from .spec import CheckSpec, ManifestError, PASS, load_manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspbatch",
        description="Batch-verify a manifest of CSP checks over worker "
        "processes, with per-job crash isolation and timeouts.",
    )
    parser.add_argument(
        "manifest",
        help="path of the batch manifest (JSON), or '-' for stdin",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="max concurrent worker processes (default: 1); "
        "0 runs the batch inline in this process",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: none)",
    )
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="whole-batch deadline; jobs not finished by then are cancelled",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk compilation cache shared by workers",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="submit the manifest to a running cspserve daemon instead of "
        "local workers (--jobs/--cache-dir/--batch-timeout then do nothing)",
    )
    parser.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="tenant to submit as in --server mode (quota accounting)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-job and summary diagnostics on stderr",
    )
    add_result_cache_args(parser, "batch verdicts")
    add_stats_arg(parser, "print executor statistics to stderr")
    add_observability_args(parser)
    return parser


def _load_specs(path: str, parser: argparse.ArgumentParser) -> List[CheckSpec]:
    try:
        if path == "-":
            return load_manifest(sys.stdin)
        return load_manifest(path)
    except OSError as error:
        parser.exit(
            EXIT_USAGE, "cspbatch: cannot read manifest: {}\n".format(error)
        )
    except ManifestError as error:
        parser.exit(EXIT_USAGE, "cspbatch: bad manifest: {}\n".format(error))


def _run_against_server(args, specs: List[CheckSpec]) -> int:
    """The ``--server`` client mode: one POST /batch, canonical JSONL out."""
    from ..server.client import ServerClient, ServerError
    from ..server.protocol import Rejection

    try:
        client = ServerClient(args.server)
    except ValueError as error:
        sys.stderr.write("cspbatch: {}\n".format(error))
        return EXIT_USAGE
    try:
        with client:
            results = client.run_manifest(
                specs, tenant=args.tenant, timeout=args.timeout
            )
    except ServerError as error:
        sys.stderr.write("cspbatch: {}\n".format(error))
        return EXIT_USAGE
    except Rejection as rejection:
        # fail closed: an unserved manifest is a failing gate, not a pass
        sys.stderr.write(
            "cspbatch: server rejected the manifest ({}): {}\n".format(
                rejection.code, rejection.message
            )
        )
        return EXIT_VIOLATION
    counts = {}
    for result in results:
        counts[result.verdict] = counts.get(result.verdict, 0) + 1
        sys.stdout.write(result.canonical_line() + "\n")
        if not args.quiet and result.verdict != PASS:
            sys.stderr.write(result.summary() + "\n")
    if not args.quiet:
        parts = ", ".join(
            "{} {}".format(count, verdict)
            for verdict, count in sorted(counts.items())
        )
        sys.stderr.write(
            "{} jobs ({}) via {}\n".format(
                len(results), parts if parts else "empty", args.server
            )
        )
    if args.stats:
        emit_stats(sorted(counts.items()))
    ok = all(result.verdict == PASS for result in results)
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.exit(EXIT_USAGE, "cspbatch: --jobs must be >= 0\n")
    specs = _load_specs(args.manifest, parser)
    if args.server is not None:
        return _run_against_server(args, specs)
    tracer = tracer_from_args(args)

    cancel = threading.Event()
    try:
        report = run_batch(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            batch_timeout=args.batch_timeout,
            cache_dir=args.cache_dir,
            result_cache_dir=result_cache_dir_from_args(args),
            obs=tracer if tracer.enabled else None,
            cancel=cancel,
            inline=args.jobs == 0,
        )
    except KeyboardInterrupt:
        sys.stderr.write("cspbatch: interrupted\n")
        return EXIT_VIOLATION

    for result in report.results:
        sys.stdout.write(result.canonical_line() + "\n")
        if not args.quiet and result.verdict != PASS:
            sys.stderr.write(result.summary() + "\n")
    if not args.quiet:
        sys.stderr.write(report.summary() + "\n")
    if args.stats:
        emit_stats(sorted(report.counts().items()))
        if report.result_cache_stats is not None:
            emit_stats(sorted(report.result_cache_stats.items()))
    finish_observability(args, tracer, report.profile)
    return EXIT_OK if report.ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
