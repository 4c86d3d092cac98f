"""``csplearn`` -- learn a black-box model of a CAPL program.

The learning counterpart of ``capl2cspm``: where the translator *reads*
the source, ``csplearn`` only ever *runs* it, querying the simulated bus
through membership queries until the observation table converges.  With
``--teacher reference`` (the default) the extracted model answers
equivalence queries and any disagreement between it and the running
program is reported as a divergence witness (exit status 1); with
``--teacher bounded`` the tool is fully black box and conformance-tests
the hypothesis against the simulator to ``--depth``.

Output formats: a human ``summary``, the canonical ``json`` document
(states, BFS-canonical transitions, fingerprint, query statistics), or
``cspm`` process equations ready for ``cspcheck``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..capl import CaplSyntaxError
from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    add_observability_args,
    add_seed_arg,
    add_stats_arg,
    emit_stats,
    finish_observability,
    tracer_from_args,
)
from .learner import LearnResult, learn
from .sul import CaplSimulatorSUL, LearnError, derive_message_specs
from .teacher import DivergenceError, ReferenceTeacher


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csplearn",
        description="learn a CSP model of a CAPL program by querying the "
        "simulated CAN bus (active automata learning)",
    )
    parser.add_argument(
        "source",
        help="CAPL source file, or - for stdin",
    )
    parser.add_argument(
        "--node",
        default="ECU",
        help="name of the simulated node (default: ECU)",
    )
    parser.add_argument(
        "--dbc",
        default=None,
        metavar="FILE",
        help="take message specs from this .dbc instead of deriving "
        "deterministic ids from the source",
    )
    parser.add_argument(
        "--teacher",
        choices=("reference", "bounded"),
        default="reference",
        help="equivalence oracle: 'reference' extracts a model from the "
        "source and reports any divergence from it; 'bounded' stays "
        "black box and conformance-tests to --depth (default: reference)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=8,
        help="conformance-testing depth for --teacher bounded (default: 8)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=64,
        help="refinement-round bound before giving up (default: 64)",
    )
    parser.add_argument(
        "--format",
        choices=("summary", "json", "cspm"),
        default="summary",
        help="stdout format (default: summary)",
    )
    add_seed_arg(parser)
    add_stats_arg(
        parser, "print query/convergence statistics to stderr"
    )
    add_observability_args(parser)
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _reference_teacher(source: str, node: str) -> ReferenceTeacher:
    from ..csp.lts import compile_lts
    from ..translator import ModelExtractor

    result = ModelExtractor().extract(source, node)
    model = result.load()
    reference = compile_lts(
        model.process(node), model.env, max_states=100_000
    )
    return ReferenceTeacher(reference, name="extracted:" + node)


def _emit_summary(result: LearnResult, out) -> None:
    out.write("states: {}\n".format(result.state_count))
    out.write("transitions: {}\n".format(result.transition_count))
    out.write(
        "alphabet: {}\n".format(
            " ".join(str(event) for event in result.alphabet)
        )
    )
    out.write("fingerprint: {}\n".format(result.fingerprint()))
    stats = result.stats
    out.write(
        "converged: {} rounds, {} membership queries, {} simulator runs, "
        "{} equivalence queries\n".format(
            stats.rounds,
            stats.membership_queries,
            stats.sul_runs,
            stats.equivalence_queries,
        )
    )


def _emit_cspm(result: LearnResult, out) -> None:
    from ..cspm import emit_process
    from ..csp.events import Channel

    names = sorted({event.fields[0] for event in result.alphabet})
    channel_names = sorted({event.channel for event in result.alphabet})
    channels = {name: Channel(name, names) for name in channel_names}
    out.write("datatype msgs = {}\n".format(" | ".join(names)))
    out.write("channel {} : msgs\n".format(", ".join(channel_names)))
    _entry, bindings = result.to_process("LEARNED")
    for name in sorted(bindings, key=lambda text: int(text.rsplit("_", 1)[1])):
        out.write(
            "{} = {}\n".format(name, emit_process(bindings[name], channels))
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.depth < 1:
        parser.exit(EXIT_USAGE, "csplearn: --depth must be >= 1\n")
    if args.max_rounds < 1:
        parser.exit(EXIT_USAGE, "csplearn: --max-rounds must be >= 1\n")
    try:
        source = _read_source(args.source)
    except (OSError, UnicodeDecodeError) as error:
        parser.exit(
            EXIT_USAGE, "csplearn: cannot read input: {}\n".format(error)
        )
    tracer = tracer_from_args(args)
    try:
        if args.dbc is not None:
            from ..candb import parse_dbc_file

            message_specs = parse_dbc_file(args.dbc).message_specs()
        else:
            message_specs = derive_message_specs(source)
        sul = CaplSimulatorSUL(source, message_specs, node=args.node)
        teacher = (
            _reference_teacher(source, args.node)
            if args.teacher == "reference"
            else None  # learn() builds the bounded teacher itself
        )
    except CaplSyntaxError as error:
        parser.exit(EXIT_USAGE, "csplearn: {}: {}\n".format(args.source, error))
    except (LearnError, OSError, ValueError) as error:
        parser.exit(EXIT_USAGE, "csplearn: {}\n".format(error))
    try:
        result = learn(
            sul,
            teacher=teacher,
            max_rounds=args.max_rounds,
            depth=args.depth,
            seed=args.seed,
            obs=tracer,
        )
    except DivergenceError as divergence:
        sys.stderr.write("csplearn: {}\n".format(divergence))
        finish_observability(args, tracer)
        return EXIT_VIOLATION
    except LearnError as error:
        sys.stderr.write("csplearn: {}\n".format(error))
        finish_observability(args, tracer)
        return EXIT_VIOLATION
    if args.format == "json":
        json.dump(result.to_doc(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.format == "cspm":
        _emit_cspm(result, sys.stdout)
    else:
        _emit_summary(result, sys.stdout)
    if args.stats:
        emit_stats(sorted(result.stats.to_doc().items()))
    finish_observability(args, tracer)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
