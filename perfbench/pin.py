"""Regenerate ``pins.json``: the results of every ladder rung a seed can pick.

    python3 perfbench/pin.py

Run it only when the ladder changes, or when a change to the engine's
verdicts, explored counts or counterexamples is intended; design-check
counts every difference from the pins as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.cspm.evaluator import load
    from repro.engine.pipeline import VerificationPipeline

    from perfbench import design_check, ladder

    pins = {}
    for size in ("tiny", "full"):
        for rung in ladder.variants(size):
            if rung.key not in pins:
                model = load(rung.script)
                pipeline = VerificationPipeline(model.env, max_states=design_check.MAX_STATES)
                pins[rung.key] = design_check.outcomes(model, pipeline)
                sys.stderr.write("pinned {}\n".format(rung.key))
    with open(design_check.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
