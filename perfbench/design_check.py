"""design-check: the designer's loop over a seeded ladder of CSPm scripts.

Each rung of :mod:`perfbench.ladder` is written to a ``.csp`` file and
checked with ``cspcheck`` semantics: ``load_file``, one
``VerificationPipeline`` per script, every ``assert`` in order.  A unit
checks the whole ladder cold (fresh pipelines), then warm: the same models
on the pipelines the cold pass filled, so compiled and normalised automata
are reused and only planning and the searches run again.  Every verdict,
explored count and counterexample is compared with ``pins.json``.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import List

from repro.cspm.evaluator import load_file
from repro.engine.pipeline import VerificationPipeline

from perfbench import ladder
from perfbench.common import Unit, cpu_seconds

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: cspcheck's default ``--max-states``
MAX_STATES = 200_000


def outcomes(model, pipeline) -> List[list]:
    """Check every assertion of *model*; the pinned surface of each result."""
    return [outcome(model.check_assertion(decl, MAX_STATES, pipeline)) for decl in model.assertions]


def outcome(result) -> list:
    violation = result.counterexample
    return [
        "PASS" if result.passed else "FAIL",
        result.states_explored,
        result.transitions_explored,
        None if violation is None else [str(event) for event in violation.trace],
        None if violation is None else violation.describe(),
    ]


def setup(seed: int, directory: str, size: str) -> SimpleNamespace:
    os.makedirs(directory)
    rungs = ladder.ladder(seed, size)
    scripts = []
    for rung in rungs:
        path = os.path.join(directory, rung.name + ".csp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rung.script)
        scripts.append(path)
    with open(PINS, "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    return SimpleNamespace(
        rungs=rungs,
        scripts=scripts,
        expected=[pins[rung.key] for rung in rungs],
    )


def unit(state, tally, recorder) -> Unit:
    loaded = []
    results = []
    started = cpu_seconds()
    for path in state.scripts:
        model = load_file(path)
        pipeline = VerificationPipeline(model.env, max_states=MAX_STATES)
        results.append(outcomes(model, pipeline))
        loaded.append((model, pipeline))
    cold_s = cpu_seconds() - started
    started = cpu_seconds()
    for model, pipeline in loaded:
        results.append(outcomes(model, pipeline))
    warm_s = cpu_seconds() - started
    expected = state.expected + state.expected
    for rung, got, want in zip(state.rungs + state.rungs, results, expected):
        for index, (one, pinned) in enumerate(zip(got, want)):
            tally.check(one == pinned, "{} assertion {}: {} != pinned {}".format(rung.key, index, one, pinned))
    return Unit(cold_s, warm_s, {})


def teardown(state) -> None:
    """Nothing to release: the scripts live in the run's work directory."""


def named(state, e2e):
    """This workload's figures under their per-tool names."""
    return [("check_cpu_s", e2e["cold_cpu_s"], "s")]
