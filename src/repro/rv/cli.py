"""``csprv`` -- check fleets of CAN logs against CSP specifications.

Usage::

    csprv MANIFEST.json [--jobs N] [--server URL] [--tenant NAME]
          [--timeout S] [--result-cache DIR | --no-result-cache]
          [--emit-manifest FILE] [--quiet] [--stats]
          [--profile] [--trace-out FILE]
    csprv --fleetgen DIR --vehicles N [--seed S] [--fault-rate F]

The **rv manifest** names a fleet of logs and how to check them::

    {
      "format": 1,
      "dbc": "network.dbc",            // or "builtin:ota"
      "mapping": {"channels": {"VMG": "send"}, "unknown": "abstract"},
      "spec": "ota-session",           // or an inline process document
      "env": {"Name": {...}},          // bindings for an inline spec
      "logs": ["vehicle-00001.jsonl", "drive.log"],
      "max_states": 100000             // optional engine budget
    }

Relative paths resolve against the manifest's directory.  Each log is
ingested (:mod:`repro.rv.ingest`), mapped to CSP events through the .dbc
layer (:mod:`repro.rv.mapping`) and becomes one ``kind: "trace"`` check --
so rv jobs run on exactly the engine every other mode uses: inline
(default), a local worker pool (``--jobs N``), or a running ``cspserve``
daemon (``--server URL``), with verdict memoisation via ``--result-cache``.
Results stream to stdout as canonical JSON Lines, one per log **in manifest
order** -- the same bytes in every mode; a violation's counterexample
carries the event position and the source log line.

``--emit-manifest FILE`` writes the built checks as a ``cspbatch`` batch
manifest instead of running them -- the bridge CI uses to replay the same
fleet through ``cspbatch --server`` and ``cmp`` the outputs.

Exit status follows the house convention: 0 all logs conform, 1 any
violation (or rejected submission), 2 unusable invocation, manifest or log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..batch.cli import run_and_emit
from ..batch.executor import verdict_tally
from ..batch.spec import dump_manifest
from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    add_observability_args,
    add_result_cache_args,
    add_seed_arg,
    add_stats_arg,
)
from ..exec.spec import (
    CheckSpec,
    ManifestError,
    decode_process,
)
from .fleetgen import RV_MANIFEST_FORMAT, write_fleet
from .ingest import read_log
from .mapping import EventMapping
from .specs import OTA_DBC_PATH, builtin_spec

#: ``"dbc"`` values that name a bundled database instead of a file
BUILTIN_DATABASES = {"builtin:ota": OTA_DBC_PATH}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csprv",
        description="Runtime-verify CAN logs: map logged frames to CSP "
        "events through a .dbc database and check each trace against a "
        "specification.",
    )
    parser.add_argument(
        "manifest",
        nargs="?",
        default=None,
        help="path of the rv manifest (JSON), or '-' for stdin",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="max concurrent worker processes (default: 0 = inline)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-log wall-clock timeout (default: none)",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="submit the checks to a running cspserve daemon instead of "
        "checking locally (--jobs then does nothing)",
    )
    parser.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="tenant to submit as in --server mode (quota accounting)",
    )
    parser.add_argument(
        "--emit-manifest",
        default=None,
        metavar="FILE",
        help="write the built checks as a cspbatch batch manifest ('-' for "
        "stdout) and exit without running them",
    )
    parser.add_argument(
        "--fleetgen",
        default=None,
        metavar="DIR",
        help="generate a seeded synthetic fleet into DIR (with its rv "
        "manifest) instead of checking logs",
    )
    parser.add_argument(
        "--vehicles",
        type=int,
        default=100,
        metavar="N",
        help="fleet size for --fleetgen (default: 100)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.2,
        metavar="F",
        help="fraction of --fleetgen vehicles carrying an injected fault "
        "(default: 0.2)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-log and summary diagnostics on stderr",
    )
    add_seed_arg(parser)
    add_result_cache_args(parser, "rv verdicts")
    add_stats_arg(parser, "print verdict statistics to stderr")
    add_observability_args(parser)
    return parser


# -- manifest -> CheckSpecs ----------------------------------------------------


def load_rv_manifest(source) -> Dict[str, Any]:
    """Read and structurally validate an rv manifest document."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        else:
            doc = json.load(source)
    except (ValueError, RecursionError) as error:
        # RecursionError: nesting deeper than the JSON decoder recurses
        raise ManifestError(
            "rv manifest is not valid JSON: {}".format(error)
        ) from None
    if not isinstance(doc, dict):
        raise ManifestError("rv manifest must be a JSON object")
    if doc.get("format") != RV_MANIFEST_FORMAT:
        raise ManifestError(
            "unsupported rv manifest format {!r} (expected {})".format(
                doc.get("format"), RV_MANIFEST_FORMAT
            )
        )
    logs = doc.get("logs")
    if not isinstance(logs, list) or not all(
        isinstance(item, str) for item in logs
    ):
        raise ManifestError("rv manifest 'logs' must be a list of paths")
    if "spec" not in doc:
        raise ManifestError("rv manifest needs a 'spec'")
    if "dbc" not in doc:
        raise ManifestError("rv manifest needs a 'dbc'")
    return doc


def _resolve_spec(doc: Dict[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    """The manifest's specification as ``(term, bindings)``."""
    spec = doc["spec"]
    if isinstance(spec, str):
        return builtin_spec(spec)
    env_docs = doc.get("env", {})
    if not isinstance(env_docs, dict):
        raise ManifestError("rv manifest 'env' must be an object")
    try:
        term = decode_process(spec)
        bindings = {
            name: decode_process(body) for name, body in env_docs.items()
        }
    except (ValueError, KeyError, TypeError, RecursionError) as error:
        # the same failures CheckSpec.from_doc turns into a ManifestError
        raise ManifestError(
            "undecodable rv manifest spec: {}".format(error)
        ) from None
    return term, bindings


def _resolve_database(doc: Dict[str, Any], base_dir: str):
    from ..candb.parser import parse_dbc_file

    dbc = doc["dbc"]
    if not isinstance(dbc, str):
        raise ManifestError("rv manifest 'dbc' must be a path or builtin name")
    if dbc in BUILTIN_DATABASES:
        path = BUILTIN_DATABASES[dbc]
    elif dbc.startswith("builtin:"):
        raise ManifestError(
            "unknown builtin database {!r}; known: {}".format(
                dbc, ", ".join(sorted(BUILTIN_DATABASES))
            )
        )
    else:
        path = os.path.join(base_dir, dbc)
    return parse_dbc_file(path)


def specs_from_manifest(
    doc: Dict[str, Any], base_dir: str = "."
) -> List[CheckSpec]:
    """Build one ``kind: "trace"`` :class:`CheckSpec` per manifest log.

    Each log is ingested and mapped here, so the returned specs are
    self-contained wire documents: the trace events (with their source line
    numbers) travel inline, which is what makes the batch, server and
    memoised modes reproduce inline verdicts byte for byte.
    """
    database = _resolve_database(doc, base_dir)
    mapping = EventMapping.from_doc(database, doc.get("mapping", {}))
    term, bindings = _resolve_spec(doc)
    options: Dict[str, Any] = {}
    if doc.get("max_states") is not None:
        options["max_states"] = doc["max_states"]
    if doc.get("passes") is not None:
        options["passes"] = doc["passes"]
    specs = []
    for log_path in doc["logs"]:
        resolved = os.path.join(base_dir, log_path)
        events: List[Any] = []
        lines: List[Optional[int]] = []
        for event, line in mapping.stream(read_log(resolved)):
            events.append(event)
            lines.append(line)
        specs.append(
            CheckSpec.trace_check(
                term,
                events,
                check_id=log_path,
                trace_lines=lines,
                bindings=bindings,
                name="trace membership of {}".format(log_path),
                **options,
            )
        )
    return specs


# -- run modes -----------------------------------------------------------------


def _run_fleetgen(args, parser: argparse.ArgumentParser) -> int:
    if args.vehicles < 0:
        parser.exit(EXIT_USAGE, "csprv: --vehicles must be >= 0\n")
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.exit(EXIT_USAGE, "csprv: --fault-rate must be within [0, 1]\n")
    manifest_path = write_fleet(
        args.fleetgen,
        args.vehicles,
        seed=args.seed,
        fault_rate=args.fault_rate,
    )
    sys.stdout.write(manifest_path + "\n")
    if not args.quiet:
        sys.stderr.write(
            "csprv: generated {} vehicles (seed {}, fault rate {}) "
            "in {}\n".format(
                args.vehicles, args.seed, args.fault_rate, args.fleetgen
            )
        )
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fleetgen is not None:
        if args.manifest is not None:
            parser.exit(
                EXIT_USAGE, "csprv: --fleetgen does not take a manifest\n"
            )
        return _run_fleetgen(args, parser)
    if args.manifest is None:
        parser.exit(EXIT_USAGE, "csprv: a manifest path is required\n")
    if args.jobs < 0:
        parser.exit(EXIT_USAGE, "csprv: --jobs must be >= 0\n")
    try:
        doc = load_rv_manifest(
            sys.stdin if args.manifest == "-" else args.manifest
        )
        base_dir = (
            "." if args.manifest == "-" else os.path.dirname(args.manifest) or "."
        )
        specs = specs_from_manifest(doc, base_dir)
    except OSError as error:
        parser.exit(EXIT_USAGE, "csprv: cannot read input: {}\n".format(error))
    except ManifestError as error:
        parser.exit(EXIT_USAGE, "csprv: bad manifest: {}\n".format(error))
    except ValueError as error:
        # LogParseError and UnknownFrameError are ValueErrors: a log the
        # fleet cannot even ingest is an unusable input, not a verdict
        parser.exit(EXIT_USAGE, "csprv: {}\n".format(error))
    if args.emit_manifest is not None:
        dump_manifest(
            specs,
            sys.stdout if args.emit_manifest == "-" else args.emit_manifest,
        )
        if not args.quiet:
            sys.stderr.write(
                "csprv: wrote {} trace checks as a batch manifest\n".format(
                    len(specs)
                )
            )
        return EXIT_OK
    return run_and_emit(
        args,
        specs,
        tool="csprv",
        rejected="the fleet",
        summary=lambda results, report: "{} logs checked ({})".format(
            len(results), verdict_tally(results)
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
