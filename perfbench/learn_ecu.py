"""learn-ecu: L* over the golden learn corpus, each with its pinned teacher.

The only workload with the CAPL interpreter and the canbus simulator on
the timed path.  A unit learns every corpus program cold -- a fresh
``CaplSimulatorSUL`` and, for ``teacher: reference``, a reference automaton
extracted and compiled from the source -- then warm, reusing those SULs and
teachers so only the L* loop runs again.  ``security_access`` keeps the
bounded teacher its manifest pins: the reference teacher raises
``DivergenceError`` on it.  Every fingerprint must equal ``corpus.json``.

The seed orders the programs.  It does not reorder the membership queries:
that never changes the learned automaton, but it changes how many
simulator runs the prefix-closed cache saves, and so the work a run does.
"""

from __future__ import annotations

import json
import os
import random
from types import SimpleNamespace

from repro.csp.lts import compile_lts
from repro.learn import CaplSimulatorSUL, LearnError, ReferenceTeacher, derive_message_specs, learn
from repro.translator import ModelExtractor

from perfbench.common import ROOT, Unit, cpu_seconds

CORPUS = os.path.join(ROOT, "tests", "learn", "corpus")

#: the programs of the tiny size (the smoke test)
TINY = ("ping.can", "duo.can")


def setup(seed: int, directory: str, size: str) -> SimpleNamespace:
    with open(os.path.join(CORPUS, "corpus.json"), "r", encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    programs = []
    for entry in entries:
        if size == "tiny" and entry["file"] not in TINY:
            continue
        with open(os.path.join(CORPUS, entry["file"]), "r", encoding="utf-8") as handle:
            source = handle.read()
        programs.append(
            SimpleNamespace(entry=entry, source=source, specs=derive_message_specs(source))
        )
    random.Random(seed).shuffle(programs)
    return SimpleNamespace(programs=programs)


def _reference_teacher(program) -> ReferenceTeacher:
    node = program.entry["node"]
    model = ModelExtractor().extract(program.source, node).load()
    return ReferenceTeacher(compile_lts(model.process(node), model.env, max_states=100_000))


def _learn(program):
    try:
        return learn(
            program.sul,
            teacher=program.teacher,
            depth=program.entry["depth"],
            max_rounds=64,
        )
    except LearnError as error:
        return error


def unit(state, tally, recorder) -> Unit:
    results = []
    started = cpu_seconds()
    for program in state.programs:
        program.sul = CaplSimulatorSUL(program.source, program.specs, node=program.entry["node"])
        program.teacher = (
            _reference_teacher(program) if program.entry["teacher"] == "reference" else None
        )
        results.append(_learn(program))
    cold_s = cpu_seconds() - started
    started = cpu_seconds()
    for program in state.programs:
        results.append(_learn(program))
    warm_s = cpu_seconds() - started
    learned = []
    for program, result in zip(state.programs + state.programs, results):
        entry = program.entry
        ok = not isinstance(result, LearnError) and (
            result.state_count,
            result.transition_count,
            result.fingerprint(),
        ) == (entry["states"], entry["transitions"], entry["fingerprint"])
        tally.check(ok, "{}: learned {!r}, corpus pins {}".format(entry["file"], result, entry["fingerprint"]))
        if ok:
            learned.append(result.stats)
    queries = sum(stats.membership_queries for stats in learned)
    runs = sum(stats.sul_runs for stats in learned)
    layers = {
        "learn.membership_queries": queries,
        "learn.rounds": sum(stats.rounds for stats in learned),
        "learn.cache_leverage": queries / runs if runs else 0.0,
    }
    return Unit(cold_s, warm_s, layers)


def teardown(state) -> None:
    """Nothing to release: SULs and teachers are plain objects."""


def named(state, e2e):
    return [("learn_cpu_s", e2e["cold_cpu_s"], "s")]
