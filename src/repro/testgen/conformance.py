"""Conformance testing: run model-derived tests against CAPL implementations.

Each test is a specification trace over the case-study channel convention
(``send.X`` = stimulus to inject, ``rec.X`` = response the ECU should emit).
The harness drives a fresh ECU instance on the simulated bus with the test's
stimuli, records what actually happens, and passes the test iff the observed
exchange is itself a trace of the specification.

A faithful implementation passes every generated test; an implementation
with a behavioural defect fails the test whose stimuli steer it into the
defective state -- turning the checker's specification into an executable
regression suite, the 'systematic security testing' of the paper's abstract.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from ..canbus import CanBus, CanFrame, Scheduler
from ..capl import CaplNode, parse
from ..capl.ast_nodes import Program
from ..capl.interpreter import MessageSpec
from ..csp.events import Event
from ..csp.lts import LTS
from ..csp.process import Environment, Process
from ..csp.traces import format_trace
from ..engine.pipeline import VerificationPipeline, shared_cache

Trace = Tuple[Event, ...]


class TestVerdict(NamedTuple):
    """Outcome of one conformance test."""

    test: Trace
    observed: Trace
    passed: bool

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "{}  test={}  observed={}".format(
            verdict, format_trace(self.test), format_trace(self.observed)
        )


class ConformanceReport(NamedTuple):
    """A whole suite's outcome."""

    verdicts: Tuple[TestVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts)

    @property
    def failures(self) -> Tuple[TestVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    def summary(self) -> str:
        passed = sum(1 for v in self.verdicts if v.passed)
        lines = [
            "conformance: {}/{} tests passed".format(passed, len(self.verdicts))
        ]
        for verdict in self.failures:
            lines.append("  " + verdict.describe())
        return "\n".join(lines)


def _stimuli_of(test: Trace, in_channel: str) -> List[str]:
    return [str(e.fields[0]) for e in test if e.channel == in_channel and e.fields]


def run_test(
    ecu_source: Union[str, Program],
    test: Trace,
    message_specs: Mapping[str, MessageSpec],
    spec_lts: LTS,
    in_channel: str = "send",
    out_channel: str = "rec",
) -> TestVerdict:
    """Execute one test against a fresh ECU instance.

    The ECU starts first: its ``on start`` handlers run, and what they
    transmit opens the observed trace.  Stimuli are then injected one at a
    time (each followed by a scheduler flush, so responses interleave
    deterministically); the observed exchange is rebuilt as a trace and
    checked for membership in the specification.  *ecu_source* is CAPL
    text or an already parsed :class:`Program`.
    """
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    node = CaplNode("ECU", bus, ecu_source, dict(message_specs))
    node.on_start()
    scheduler.run()
    observed: List[Event] = [
        Event(out_channel, (entry.frame.name,)) for entry in bus.log.entries
    ]
    for request in _stimuli_of(test, in_channel):
        spec = message_specs[request]
        before = len(bus.log)
        node.deliver(CanFrame(spec.can_id, [0] * spec.dlc, name=request))
        scheduler.run()
        observed.append(Event(in_channel, (request,)))
        for entry in bus.log.entries[before:]:
            observed.append(Event(out_channel, (entry.frame.name,)))
    passed = spec_lts.walk(observed) is not None
    return TestVerdict(test, tuple(observed), passed)


def run_suite(
    ecu_source: str,
    tests: Sequence[Trace],
    specification: Process,
    message_specs: Mapping[str, MessageSpec],
    env: Optional[Environment] = None,
    in_channel: str = "send",
    out_channel: str = "rec",
    max_states: int = 200_000,
) -> ConformanceReport:
    """Run a whole generated suite against a CAPL implementation."""
    # the process-wide cache makes repeated suite runs against the same
    # specification (e.g. a mutation sweep) compile the spec exactly once
    pipeline = VerificationPipeline(
        env or Environment(), cache=shared_cache(), max_states=max_states
    )
    # composed specifications go through the compilation plan: trace
    # membership (walk) is invariant under the trace-preserving passes, and
    # the harness then walks the compressed product instead of the full one
    prepared = pipeline.plan.prepare(specification, "T")
    spec_lts = pipeline.compile(prepared.term)
    # every test runs a fresh ECU instance over the one parsed program
    program = parse(ecu_source)
    verdicts = [
        run_test(program, test, message_specs, spec_lts, in_channel, out_channel)
        for test in tests
    ]
    return ConformanceReport(tuple(verdicts))
