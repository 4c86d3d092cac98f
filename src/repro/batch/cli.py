"""``cspbatch`` -- batch-verify a manifest of checks over worker processes.

Usage::

    cspbatch MANIFEST.json [--jobs N] [--timeout S] [--batch-timeout S]
             [--cache-dir DIR] [--result-cache DIR | --no-result-cache]
             [--server URL] [--tenant NAME]
             [--quiet] [--profile] [--trace-out FILE]

The manifest is a JSON document (``{"format": 1, "checks": [...]}``, schema
in :mod:`repro.exec.spec` and ``docs/batch.md``); ``-`` reads it from
stdin.  Results stream to stdout as JSON Lines, one canonical result per
check **in manifest order** -- the same bytes regardless of ``--jobs``,
scheduling, or cache temperature.  Diagnostics (the batch summary, per-job
failure lines, profiles) go to stderr.  ``csprv`` writes its verdicts
through the same path, :func:`run_and_emit`.

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
from typing import Callable, List, Optional, Sequence

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
from ..exec.spec import CheckSpec, JobResult, ManifestError, PASS
from ..server.client import ServerClient, ServerError
from ..server.protocol import Rejection
from .executor import BatchReport, run_batch, verdict_counts, verdict_tally
from .spec import load_manifest


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


def run_and_emit(
    args: argparse.Namespace,
    specs: Sequence[CheckSpec],
    *,
    tool: str,
    rejected: str,
    summary: Callable[[List[JobResult], Optional[BatchReport]], str],
    cache_dir: Optional[str] = None,
    batch_timeout: Optional[float] = None,
) -> int:
    """Run *specs* and write their verdicts; return the exit status.

    The one run path under ``cspbatch`` and ``csprv``.  With ``--server``
    the specs go to a running daemon in one ``POST /batch``; otherwise
    :func:`run_batch` runs them inline (``--jobs 0``) or on ``--jobs``
    warm workers.  Canonical JSONL goes to stdout in input order.  On
    stderr: one line per job that did not pass and the
    ``summary(results, report)`` line (*report* is None when served),
    unless ``--quiet``; the verdict counts and, for a local run, the
    result-cache counters under ``--stats``; then what ``--profile`` and
    ``--trace-out`` ask for.  The daemon's spans stay in the daemon, so
    with ``--server`` either flag is a usage error, reported before any
    request is sent.  *tool* prefixes the error
    lines, and *rejected* names what a daemon rejection refused
    (``"the manifest"``).  An unusable or unreachable daemon exits 2, a
    rejection 1: no verdict means no pass.
    """
    if args.server is not None:
        flags = (("--profile", args.profile), ("--trace-out", args.trace_out))
        for flag, given in flags:
            if given:
                sys.stderr.write(
                    "{}: {} cannot be used with --server\n".format(tool, flag)
                )
                return EXIT_USAGE
    tracer = tracer_from_args(args)
    report: Optional[BatchReport] = None
    try:
        if args.server is not None:
            try:
                client = ServerClient(args.server)
            except ValueError as error:
                sys.stderr.write("{}: {}\n".format(tool, error))
                return EXIT_USAGE
            with client:
                results = client.run_manifest(
                    specs, tenant=args.tenant, timeout=args.timeout
                )
        else:
            report = run_batch(
                specs,
                jobs=args.jobs,
                timeout=args.timeout,
                batch_timeout=batch_timeout,
                cache_dir=cache_dir,
                result_cache_dir=result_cache_dir_from_args(args),
                obs=tracer if tracer.enabled else None,
                inline=args.jobs == 0,
            )
            results = report.results
    except ServerError as error:
        sys.stderr.write("{}: {}\n".format(tool, error))
        return EXIT_USAGE
    except Rejection as rejection:
        # fail closed: an unserved submission is a failing gate, not a pass
        sys.stderr.write(
            "{}: server rejected {} ({}): {}\n".format(
                tool, rejected, rejection.code, rejection.message
            )
        )
        return EXIT_VIOLATION
    except KeyboardInterrupt:
        sys.stderr.write("{}: interrupted\n".format(tool))
        return EXIT_VIOLATION
    for result in results:
        sys.stdout.write(result.canonical_line() + "\n")
        if not args.quiet and result.verdict != PASS:
            sys.stderr.write(result.summary() + "\n")
    if not args.quiet:
        sys.stderr.write(summary(results, report) + "\n")
    if args.stats:
        emit_stats(sorted(verdict_counts(results).items()))
        if report is not None and report.result_cache_stats is not None:
            emit_stats(sorted(report.result_cache_stats.items()))
    if report is not None:
        finish_observability(args, tracer, report.profile)
    ok = all(result.verdict == PASS for result in results)
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.exit(EXIT_USAGE, "cspbatch: --jobs must be >= 0\n")
    specs = _load_specs(args.manifest, parser)

    def summary(results, report):
        if report is not None:
            return report.summary()
        return "{} jobs ({}) via {}".format(
            len(results), verdict_tally(results), args.server
        )

    return run_and_emit(
        args,
        specs,
        tool="cspbatch",
        rejected="the manifest",
        summary=summary,
        cache_dir=args.cache_dir,
        batch_timeout=args.batch_timeout,
    )


if __name__ == "__main__":
    sys.exit(main())
