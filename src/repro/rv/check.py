"""Streaming trace-membership checking against a compiled specification.

A logged trace is a member of a specification's trace set iff the
deterministic automaton produced by FDR-style normalisation accepts it, so
checking is a single walk: start at the initial node, follow one transition
per logged event, and stop at the first event the current node cannot
perform.  That walk is *streaming* -- :class:`TraceChecker` consumes events
one at a time (from a list, a generator, or a log file being decoded on the
fly), keeps only a bounded context window for the counterexample, and never
builds a process term or product automaton for the trace.

Cost per event is one dict lookup; a million-frame log checks in O(n) time
and O(1) memory once the spec is normalised.

A fleet checks many logs against one fixed specification, so the built
automaton is shared: :func:`check_trace_membership` keeps a bounded,
per-process memo (:data:`SPEC_MEMO`) of normalised specs keyed by the
spec's structural identity -- its fingerprint and the bindings it reaches
(:func:`~repro.engine.cache.structural_key`), the resolved pass names and
the state budget.  A process plans, compiles and normalises each distinct
spec once (a pool or daemon worker once per worker), then only walks.
Builds that raise are never stored, and the walk only reads the shared
automaton, so a hit answers exactly what a fresh build would.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..csp.events import Event
from ..csp.lts import DEFAULT_STATE_LIMIT
from ..csp.process import Environment, Process
from ..csp.traces import format_trace
from ..engine.cache import structural_key
from ..engine.pipeline import VerificationPipeline
from ..fdr.counterexample import Counterexample
from ..fdr.normalise import NormalisedSpec
from ..fdr.refine import CheckResult
from ..obs.profile import profile_of
from ..obs.trace import Tracer, ensure_tracer
from ..passes.base import PassStats, resolve_passes

#: accepted-prefix context kept for a violation's counterexample trace;
#: bounded so streaming checks stay O(1) memory on arbitrarily long logs
CONTEXT_WINDOW = 8

#: distinct trace specs a process keeps built; a fleet checks every log
#: against one spec, and the bound keeps a long-lived daemon worker from
#: growing without limit
SPEC_MEMO_ENTRIES = 16


class TraceViolation(Counterexample):
    """The log performed an event the specification does not allow.

    ``trace`` is the tail of the accepted prefix (at most
    :data:`CONTEXT_WINDOW` events -- the bounded context a streaming check
    retains), ``position`` the 0-based index of the offending event in the
    log's event sequence, and ``line`` its source-log line number when the
    ingest layer recorded one.
    """

    kind = "trace"

    def __init__(
        self,
        trace: Tuple[Event, ...],
        forbidden: Event,
        position: int,
        line: Optional[int] = None,
    ) -> None:
        super().__init__(trace)
        self.forbidden = forbidden
        self.position = position
        self.line = line

    def describe(self) -> str:
        where = "at event {}".format(self.position)
        if self.line is not None:
            where += " (log line {})".format(self.line)
        return (
            "trace violation: {} the log performs {} which the "
            "specification does not allow after {}".format(
                where, self.forbidden, format_trace(self.trace)
            )
        )

    def doc_fields(self) -> Dict[str, Any]:
        """Extra run-invariant counterexample fields for the JobResult doc."""
        fields: Dict[str, Any] = {
            "position": self.position,
            "event": str(self.forbidden),
        }
        if self.line is not None:
            fields["frame"] = {"line": self.line}
        return fields


class TraceChecker:
    """Incremental membership walk over a normalised specification.

    Feed events with :meth:`advance`; the checker tracks the current node,
    the number of events accepted, and the bounded context window.  Once an
    event is rejected the checker latches its violation and ignores further
    input (a trace with a non-member prefix is not a member).
    """

    def __init__(self, spec: NormalisedSpec) -> None:
        self.spec = spec
        self.node = spec.initial
        self.position = 0
        self.violation: Optional[TraceViolation] = None
        self._window: list = []

    @property
    def failed(self) -> bool:
        return self.violation is not None

    def advance(self, event: Event, line: Optional[int] = None) -> bool:
        """Consume one event; False (and a latched violation) on rejection."""
        if self.violation is not None:
            return False
        eid = self.spec.table.id_of(event)
        target = (
            None if eid is None else self.spec.afters_ids[self.node].get(eid)
        )
        if target is None:
            self.violation = TraceViolation(
                tuple(self._window), event, self.position, line
            )
            return False
        self.node = target
        self.position += 1
        self._window.append(event)
        if len(self._window) > CONTEXT_WINDOW:
            self._window.pop(0)
        return True


class BuiltSpec(NamedTuple):
    """What a trace check builds before it walks: kept per structural key.

    Only what the walk and the result need: the pass statistics of the
    compressed components and the normalised automaton.  The prepared term
    (and the component automata it pins) is dropped once normalised.
    """

    pass_stats: Tuple[PassStats, ...]
    normalised: NormalisedSpec


class SpecMemo:
    """A bounded least-recently-used map from spec keys to built specs.

    Safe to share between threads: the lock guards the dict operations
    only, never a build, so two threads missing on one key may both build
    it (the later store wins; the two are equal).  A forked child gets a
    fresh lock, since a fork can land while another thread holds it, and
    keeps the parent's entries, which stay valid in the child.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, BuiltSpec]" = OrderedDict()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._reset_lock)

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[BuiltSpec]:
        with self._lock:
            built = self._entries.get(key)
            if built is not None:
                self._entries.move_to_end(key)
            return built

    def put(self, key: Hashable, built: BuiltSpec) -> None:
        with self._lock:
            self._entries[key] = built
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide memo behind :func:`check_trace_membership`
SPEC_MEMO = SpecMemo(SPEC_MEMO_ENTRIES)


def check_trace_membership(
    spec: Process,
    events: Iterable[Event],
    *,
    env: Optional[Environment] = None,
    name: Optional[str] = None,
    lines: Optional[Sequence[Optional[int]]] = None,
    max_states: int = DEFAULT_STATE_LIMIT,
    passes: str = "default",
    cache=None,
    obs: Optional[Tracer] = None,
) -> CheckResult:
    """Is *events* a trace of *spec*?  The engine core behind ``kind: "trace"``.

    Builds the normalised spec automaton through the same
    :class:`~repro.engine.pipeline.VerificationPipeline` machinery as a
    ``[T=`` check -- pass configuration included, so compressing passes
    that preserve traces apply -- or takes it from :data:`SPEC_MEMO`, then
    streams *events* through a :class:`TraceChecker`.  *cache* serves the
    build and is consulted only when the memo misses.  *events* may be any
    iterable; a generator is consumed lazily and the check stops at the
    first violation.

    *lines* optionally maps event positions to source-log line numbers for
    the counterexample's frame provenance.  The result's
    ``transitions_explored`` is the number of events accepted and
    ``states_explored`` the number of spec nodes visited (accepted + 1).
    With *obs* enabled, ``cache.trace_spec_hits`` and
    ``cache.trace_spec_misses`` count the memo's answers.
    """
    env = env if env is not None else Environment()
    key = (
        structural_key(spec, env),
        tuple(item.name for item in resolve_passes(passes)),
        max_states,
    )
    tracer = ensure_tracer(obs)
    built = SPEC_MEMO.get(key)
    if tracer.enabled:
        outcome = "misses" if built is None else "hits"
        tracer.metrics.counter("cache.trace_spec_" + outcome).inc()
    label = name or "trace membership of {!r}".format(spec)
    with tracer.span("check", name=label, model="trace") as root:
        if built is None:
            built = _build(spec, env, max_states, passes, cache, tracer)
            SPEC_MEMO.put(key, built)
        with tracer.span("refine", model="trace"):
            checker = TraceChecker(built.normalised)
            for position, event in enumerate(events):
                line = None
                if lines is not None and position < len(lines):
                    line = lines[position]
                if not checker.advance(event, line):
                    break
    result = CheckResult(
        label,
        checker.violation is None,
        checker.violation,
        states_explored=checker.position + 1,
        transitions_explored=checker.position,
        pass_stats=built.pass_stats,
    )
    if tracer.enabled:
        result.profile = profile_of(tracer, root)
    return result


def _build(
    spec: Process,
    env: Environment,
    max_states: int,
    passes: str,
    cache,
    tracer: Tracer,
) -> BuiltSpec:
    """Plan, compile and normalise *spec* as a ``[T=`` check's spec side."""
    pipeline = VerificationPipeline(
        env, cache=cache, max_states=max_states, passes=passes, obs=tracer
    )
    with tracer.span("plan"):
        prepared = pipeline.plan.prepare(spec, "T")
    return BuiltSpec(prepared.pass_stats, pipeline.normalised(prepared.term))
