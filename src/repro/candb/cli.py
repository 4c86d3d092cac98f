"""``dbc2cspm`` -- command-line CAN-database-to-CSPm extraction.

Usage::

    dbc2cspm network.dbc [-o declarations.csp] [--inventory]

Part of the second model generator the paper's future-work section calls
for: it turns a CANdb file into CSPm datatype/nametype/channel declarations.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    add_observability_args,
    finish_observability,
    tracer_from_args,
)
from .cspm_export import export_database, message_inventory
from .parser import DbcParseError, parse_dbc_file


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbc2cspm",
        description="Extract CSPm type and channel declarations from a CAN database",
    )
    parser.add_argument("dbc", help="path to the .dbc file")
    parser.add_argument(
        "-o", "--output", help="output .csp file (default: stdout)", default=None
    )
    parser.add_argument(
        "--inventory",
        action="store_true",
        help="print the message inventory table instead of CSPm",
    )
    parser.add_argument(
        "--max-range-bits",
        type=int,
        default=8,
        help="widest signal (in bits) to expand into a nametype range",
    )
    add_observability_args(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    tracer = tracer_from_args(args)
    with tracer.span("run", tool="dbc2cspm", dbc=args.dbc):
        with tracer.span("parse", dbc=args.dbc):
            try:
                database = parse_dbc_file(args.dbc)
            except (OSError, UnicodeDecodeError) as error:
                parser.exit(
                    EXIT_USAGE, "dbc2cspm: cannot read input: {}\n".format(error)
                )
            except DbcParseError as error:
                parser.exit(
                    EXIT_USAGE, "dbc2cspm: {}: {}\n".format(args.dbc, error)
                )
        with tracer.span("export"):
            if args.inventory:
                text = message_inventory(database) + "\n"
            else:
                text = export_database(
                    database, max_range_bits=args.max_range_bits
                )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    finish_observability(args, tracer)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
