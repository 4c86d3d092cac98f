"""``capl2cspm`` -- command-line CAPL-to-CSPm model extraction.

Usage::

    capl2cspm ecu.can [-o ecu.csp] [--node ECU] [--in-channel send]
              [--out-channel rec] [--no-timers] [--check]

This is the batch form of the paper's Fig. 1 'model transformation'
component: it reads an exported CAPL source file and writes the CSPm
implementation model.  ``--check`` additionally loads the generated script
and runs its deadlock-freedom check as a sanity pass.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    add_observability_args,
    finish_observability,
    tracer_from_args,
)
from .extractor import ExtractorConfig, ModelExtractor
from .rules import ChannelConvention


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capl2cspm",
        description="Extract a CSPm implementation model from CAPL source",
    )
    parser.add_argument("capl", help="path to the CAPL source file (.can)")
    parser.add_argument("-o", "--output", default=None, help="output .csp file")
    parser.add_argument("--node", default=None, help="node name (default: file stem)")
    parser.add_argument("--in-channel", default="send", help="receive channel name")
    parser.add_argument("--out-channel", default="rec", help="transmit channel name")
    parser.add_argument(
        "--no-timers", action="store_true", help="drop timer events from the model"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="load the generated model and run a deadlock-freedom sanity check",
    )
    add_observability_args(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    config = ExtractorConfig(
        convention=ChannelConvention(args.in_channel, args.out_channel),
        include_timers=not args.no_timers,
    )
    extractor = ModelExtractor(config)
    tracer = tracer_from_args(args)
    status = EXIT_OK
    with tracer.span("run", tool="capl2cspm", capl=args.capl):
        with tracer.span("parse", capl=args.capl):
            try:
                result = extractor.extract_file(args.capl, args.node)
            except OSError as error:
                parser.exit(
                    EXIT_USAGE, "capl2cspm: cannot read input: {}\n".format(error)
                )
        if args.output:
            result.write(args.output)
        else:
            sys.stdout.write(result.script_text)
        if args.check:
            from ..api import check_deadlock

            model = result.load()
            outcome = check_deadlock(
                model.process(result.process_name),
                env=model.env,
                obs=tracer,
            )
            sys.stderr.write(outcome.summary() + "\n")
            if not outcome.passed:
                status = EXIT_VIOLATION
    finish_observability(args, tracer)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
