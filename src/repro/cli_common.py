"""Shared conventions for the four console scripts.

``cspcheck``, ``cspfuzz``, ``capl2cspm`` and ``dbc2cspm`` agree on:

* exit codes -- :data:`EXIT_OK` for success, :data:`EXIT_VIOLATION` when the
  tool ran but found a failing assertion / oracle violation / failed sanity
  check, :data:`EXIT_USAGE` for bad invocations and unreadable or
  malformed inputs (one stderr line: ``<tool>: cannot read input: ...``
  or ``<tool>: <path>: <located message>``);
* observability flags -- ``--profile`` (per-stage wall-time table on stderr)
  and ``--trace-out=FILE.jsonl`` (full span/metric trace, schema in
  :mod:`repro.obs.schema`); the tracer is enabled iff one of them is given,
  so the default run pays the null tracer's no-op cost only;
* diagnostics on stderr -- statistics, profiles and warnings never mix into
  stdout, which stays machine-parseable (verdict lines, generated CSPm).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Iterable, Optional, Tuple

from .obs.profile import Profile, overall_profile
from .obs.trace import NULL_TRACER, Tracer, export_jsonl

#: the tool ran and everything checked out
EXIT_OK = 0
#: the tool ran and found a violation (failed assertion, oracle breach ...)
EXIT_VIOLATION = 1
#: the invocation itself was unusable (bad flag value, unreadable or
#: malformed input)
EXIT_USAGE = 2


def add_observability_args(parser: argparse.ArgumentParser) -> None:
    """Install the common ``--profile`` / ``--trace-out`` flags."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-time profile to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the full span/metric trace as JSON Lines to FILE",
    )


def add_result_cache_args(
    parser: argparse.ArgumentParser, what: str = "verdicts"
) -> None:
    """Install the common ``--result-cache`` / ``--no-result-cache`` pair.

    Memoisation is opt-in: without ``--result-cache DIR`` nothing is read
    or written.  ``--no-result-cache`` beats ``--result-cache`` when both
    appear, so wrapper scripts can force one run cold without editing the
    wrapped command.  Resolve with :func:`result_cache_dir_from_args`.
    """
    parser.add_argument(
        "--result-cache",
        default=None,
        metavar="DIR",
        help="content-addressed cache of completed {} -- identical checks "
        "in any mode answer without re-verifying (PASS/FAIL only; "
        "invalidated by engine/format version bumps)".format(what),
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="ignore --result-cache and run every check fresh",
    )


def result_cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    """The result-cache directory the flag pair above resolved to, if any.

    ``--result-cache DIR`` opts in (memoisation is never on by default -- a
    default-on verdict store would surprise exactly the regression reruns
    that must observe today's engine), and ``--no-result-cache`` wins over
    it.
    """
    if getattr(args, "no_result_cache", False):
        return None
    return getattr(args, "result_cache", None)


def add_seed_arg(parser: argparse.ArgumentParser, default: int = 0) -> None:
    """Install the common ``--seed`` flag (tools ignore it if undialled)."""
    parser.add_argument(
        "--seed",
        type=int,
        default=default,
        help="deterministic seed (default: {})".format(default),
    )


def add_stats_arg(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--stats", action="store_true", help=help_text)


def parse_endpoint(value: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """``HOST:PORT``, ``:PORT`` or bare ``PORT`` -> a bind address.

    Shared by ``cspserve --http`` and anything else that binds a loopback
    listener; port 0 is allowed (the OS picks an ephemeral port).
    """
    host, _, port_text = value.rpartition(":")
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError("endpoint {!r} needs a numeric port".format(value))
    if not 0 <= port <= 65535:
        raise ValueError("endpoint port {} is out of range".format(port))
    return host, port


def tracer_from_args(args: argparse.Namespace) -> Tracer:
    """The run's tracer: live iff ``--profile`` or ``--trace-out`` was given."""
    if getattr(args, "profile", False) or getattr(args, "trace_out", None):
        return Tracer()
    return NULL_TRACER


def finish_observability(
    args: argparse.Namespace,
    tracer: Tracer,
    profile: Optional[Profile] = None,
    stream: Optional[IO[str]] = None,
) -> None:
    """Emit whatever the observability flags asked for, after the run.

    The profile table goes to *stream* (stderr by default, like every other
    diagnostic); the trace file goes wherever ``--trace-out`` said.
    """
    if not tracer.enabled:
        return
    out = stream if stream is not None else sys.stderr
    if getattr(args, "profile", False):
        if profile is None:
            profile = overall_profile(tracer)
        out.write(profile.table() + "\n")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        records = export_jsonl(tracer, trace_out)
        out.write(
            "trace: {} records written to {}\n".format(records, trace_out)
        )


def emit_stats(
    pairs: Iterable[Tuple[str, object]], stream: Optional[IO[str]] = None
) -> None:
    """Write ``stat key: value`` diagnostic lines (stderr by default)."""
    out = stream if stream is not None else sys.stderr
    for key, value in pairs:
        out.write("stat {}: {}\n".format(key, value))
