"""One command for the toolchain benchmark.

    python3 perfbench/run.py --workload design-check --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed`` (timed as set-up), runs
units of the workload until ``--seconds`` have passed, checks every output,
and prints a report whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the
per-layer metrics, from units run with every layer's public functions
wrapped in spans.  ``--tiny`` shrinks every input so a run takes seconds.
The toolchain is imported from ``src/`` of the checkout this file is in.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("design-check", "fleet-rv", "exec-mix", "learn-ecu")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no toolchain sources under {}\n".format(SRC))
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
