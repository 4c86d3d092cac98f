"""The refinement engine -- product-automaton checks with counterexamples.

This is the working core of the FDR substitute.  A refinement assertion
``Spec [T= Impl`` is decided by simulating the implementation against the
normalised specification: breadth-first search over pairs
``(implementation state, specification node)``; any implementation event the
specification node cannot match is a violation, and the BFS parent pointers
reconstruct the shortest counterexample trace -- the "insecure trace" of the
paper's workflow.  The search holds each pair as one int,
``impl_state * node_count + node``, so its visited set, parent map and
queue hash and store plain ints; a popped pair is decoded once with
``divmod``.

The implementation side is anything exposing the small automaton protocol
(``initial``, ``successors_span``, ``table``): a fully
compiled :class:`~repro.csp.kernel.CompactLTS` (the eager path) or the
on-the-fly :class:`~repro.engine.product.ProductLTS`, whose states unfold
on demand so the search can exit on the first violation without
materialising the whole state space.  Both store their edges in shared
flat ``array('q')`` pairs, and the product search walks them by index --
no per-transition tuple allocation.

Supported checks:

* trace refinement ``[T=``  (the model the paper restricts itself to),
* stable-failures refinement ``[F=`` (extension),
* failures-divergences refinement ``[FD=``,
* deadlock freedom, divergence freedom, determinism.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..csp.events import AlphabetTable, Event, TAU_ID, TICK_ID
from ..csp.lts import LTS, StateId
from ..obs.trace import NULL_TRACER, Tracer
from .counterexample import (
    Counterexample,
    DeadlockCounterexample,
    DivergenceCounterexample,
    FailureCounterexample,
    NondeterminismCounterexample,
    TraceCounterexample,
)
from .normalise import NodeId, NormalisedSpec, normalise, tau_cycle_states

Trace = Tuple[Event, ...]
#: a decoded search pair, as ``violation_pair`` reports it
Pair = Tuple[StateId, NodeId]

_MISSING = object()


class CheckResult:
    """Outcome of a single check: verdict, counterexample and search statistics."""

    def __init__(
        self,
        name: str,
        passed: bool,
        counterexample: Optional[Counterexample] = None,
        states_explored: int = 0,
        transitions_explored: int = 0,
        pass_stats: Tuple = (),
        profile=None,
    ) -> None:
        self.name = name
        self.passed = passed
        self.counterexample = counterexample
        self.states_explored = states_explored
        self.transitions_explored = transitions_explored
        #: per-component compression statistics
        #: (:class:`repro.passes.base.PassStats`) when the check ran through
        #: a compilation plan; empty for uncompressed checks
        self.pass_stats = pass_stats
        #: per-stage wall-time breakdown (:class:`repro.obs.Profile`) when the
        #: check ran under an enabled tracer; None otherwise
        self.profile = profile

    def __bool__(self) -> bool:
        return self.passed

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        line = "{}: {} ({} states, {} transitions explored)".format(
            self.name, verdict, self.states_explored, self.transitions_explored
        )
        if self.counterexample is not None:
            line += "\n  " + self.counterexample.describe()
        return line

    def pass_summary(self) -> str:
        """One line per applied compression pass (empty if none ran)."""
        return "\n".join(stat.summary() for stat in self.pass_stats)

    def __repr__(self) -> str:
        return "CheckResult({!r}, passed={})".format(self.name, self.passed)


#: Anything the product search can drive on the implementation side: a
#: compiled kernel or an on-the-fly :class:`~repro.engine.product.ProductLTS`.
Implementation = Union[LTS, "object"]


def _attach_impl_state(
    violation: Optional[Counterexample],
    impl: Implementation,
    state: Optional[StateId],
) -> Optional[Counterexample]:
    """Record the violating implementation term on the counterexample.

    Both implementation flavours can name the process term behind a state
    (``term_of`` on the on-the-fly product, ``terms`` on a compiled LTS); the
    pipeline maps any compressed-component leaves inside that term back to
    original states (see :func:`repro.engine.plan.component_provenance`).
    """
    if violation is None or state is None:
        return violation
    term_of = getattr(impl, "term_of", None)
    if term_of is not None:
        violation.impl_term = term_of(state)
        return violation
    terms = getattr(impl, "terms", None)
    if terms is not None and state < len(terms):
        violation.impl_term = terms[state]
    return violation


def _emit_search_metrics(obs: Tracer, search: "_ProductSearch") -> None:
    """Record one finished product search into the tracer's metrics."""
    if not obs.enabled:
        return
    metrics = obs.metrics
    metrics.counter("refine.states_explored").inc(len(search.parents))
    metrics.counter("refine.transitions_explored").inc(
        search.transitions_explored
    )
    metrics.gauge("refine.peak_frontier").set_max(search.peak_frontier)
    metric = getattr(search.impl, "expansion_metric", None)
    if metric is not None:
        metrics.counter(metric).inc(search.impl.state_count)


def _finished(
    search: "_ProductSearch",
    violation: Optional[Counterexample],
    name: str,
    obs: Tracer,
) -> CheckResult:
    """The result of a finished search, with the violating term attached."""
    state = search.violation_pair[0] if search.violation_pair else None
    violation = _attach_impl_state(violation, search.impl, state)
    _emit_search_metrics(obs, search)
    return CheckResult(
        name,
        violation is None,
        violation,
        states_explored=len(search.parents),
        transitions_explored=search.transitions_explored,
    )


class _ProductSearch:
    """BFS over (implementation state, spec node) pairs with trace rebuild.

    A pair is encoded as the int ``impl_state * node_count + node``.  Works
    on interned ids throughout; when the implementation and the
    specification share one :class:`AlphabetTable` (the pipeline's normal
    case) no per-transition translation happens at all, otherwise ids are
    translated lazily through a memo.
    """

    def __init__(
        self,
        impl: Implementation,
        spec: NormalisedSpec,
        obs: Tracer = NULL_TRACER,
    ) -> None:
        self.impl = impl
        self.spec = spec
        self.shared_table = impl.table is spec.table
        self._translate: Dict[int, Optional[int]] = {
            TAU_ID: TAU_ID,
            TICK_ID: TICK_ID,
        }
        #: encoded pair -> (encoded parent pair, event id into it)
        self.parents: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self.transitions_explored = 0
        #: the product pair at which run() found its violation, if any --
        #: provenance threading reads the implementation state out of it
        self.violation_pair: Optional[Pair] = None
        #: largest BFS queue length seen; tracked only under an enabled
        #: tracer so the disabled search loop pays one local bool test
        self._track = obs.enabled
        self.peak_frontier = 0

    def _spec_id(self, eid: int) -> Optional[int]:
        """Translate an impl-table event id to the spec table (None = unknown)."""
        cached = self._translate.get(eid, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        sid = self.spec.table.id_of(self.impl.table.event_of(eid))
        self._translate[eid] = sid
        return sid

    def offered_events(self, impl_state: StateId) -> FrozenSet[Event]:
        """The events an implementation state offers, decoded."""
        event_of = self.impl.table.event_of
        events, _targets, start, end = self.impl.successors_span(impl_state)
        return frozenset(event_of(events[i]) for i in range(start, end))

    def stable_offer(self, impl_state: StateId) -> Optional[int]:
        """The state's offer as a bitset in the spec table's id space.

        None when the state is unstable (it has a tau move): only stable
        states refuse, so only they are checked against acceptances.
        """
        events, _targets, start, end = self.impl.successors_span(impl_state)
        shared = self.shared_table
        bits = 0
        for i in range(start, end):
            eid = events[i]
            if eid == TAU_ID:
                return None
            sid = eid if shared else self._spec_id(eid)
            if sid is not None:
                bits |= 1 << sid
        return bits

    def trace_to(self, pair: int) -> Trace:
        """The visible trace that reaches the encoded *pair*."""
        event_of = self.impl.table.event_of
        events: List[Event] = []
        cursor: Optional[int] = pair
        while cursor is not None:
            parent, eid = self.parents[cursor]
            if eid is not None and eid != TAU_ID:
                events.append(event_of(eid))
            cursor = parent
        events.reverse()
        return tuple(events)

    def run(self, on_pair=None, prune=None) -> Optional[Counterexample]:
        """Explore the product; return the first violation found (or None).

        *on_pair* is an optional callback ``(impl_state, node, pair) ->
        Counterexample|None`` used by the failures/determinism checks to
        impose extra per-pair conditions; *pair* is the encoded pair, for
        :meth:`trace_to`.  *prune* is an optional predicate on the spec
        node: pairs it accepts are checked but not expanded (used by the FD
        check, where a divergent specification node permits every
        continuation).
        """
        afters_ids = self.spec.afters_ids
        nodes = len(afters_ids)
        shared = self.shared_table
        spec_id = self._spec_id
        successors_span = self.impl.successors_span
        parents = self.parents
        start = self.impl.initial * nodes + self.spec.initial
        parents[start] = (None, None)
        work: deque = deque([start])
        track = self._track
        peak = 1
        transitions = 0
        try:
            while work:
                pair = work.popleft()
                impl_state, node = divmod(pair, nodes)
                if on_pair is not None:
                    violation = on_pair(impl_state, node, pair)
                    if violation is not None:
                        self.violation_pair = (impl_state, node)
                        return violation
                if prune is not None and prune(node):
                    continue
                # walk the state's edge range in the impl's flat arrays --
                # the innermost loop of every refinement check
                events, targets, lo, hi = successors_span(impl_state)
                transitions += hi - lo
                row = afters_ids[node]
                for i in range(lo, hi):
                    eid = events[i]
                    if eid == TAU_ID:
                        next_pair = targets[i] * nodes + node
                    else:
                        next_node = row.get(eid if shared else spec_id(eid))
                        if next_node is None:
                            # count the edges scanned up to the violation,
                            # matching the per-edge counting this loop used
                            # before it went span-based
                            transitions -= hi - (i + 1)
                            self.violation_pair = (impl_state, node)
                            return TraceCounterexample(
                                self.trace_to(pair), self.impl.table.event_of(eid)
                            )
                        next_pair = targets[i] * nodes + next_node
                    if next_pair not in parents:
                        parents[next_pair] = (pair, eid)
                        work.append(next_pair)
                        if track and len(work) > peak:
                            peak = len(work)
            return None
        finally:
            self.transitions_explored += transitions
            if track:
                self.peak_frontier = peak


def check_trace_refinement_from(
    normalised: NormalisedSpec,
    impl: Implementation,
    name: str = "Spec [T= Impl",
    obs: Tracer = NULL_TRACER,
) -> CheckResult:
    """Decide ``Spec ⊑T Impl`` against an already-normalised specification."""
    search = _ProductSearch(impl, normalised, obs)
    return _finished(search, search.run(), name, obs)


def check_failures_refinement_from(
    normalised: NormalisedSpec,
    impl: Implementation,
    name: str = "Spec [F= Impl",
    obs: Tracer = NULL_TRACER,
) -> CheckResult:
    """Decide ``Spec ⊑F Impl`` against an already-normalised specification."""
    search = _ProductSearch(impl, normalised, obs)
    violation = search.run(on_pair=partial(_stable_failure, search, normalised))
    return _finished(search, violation, name, obs)


def check_trace_refinement(spec: LTS, impl: LTS, name: str = "Spec [T= Impl") -> CheckResult:
    """Decide ``Spec ⊑T Impl`` (traces(Impl) ⊆ traces(Spec))."""
    return check_trace_refinement_from(normalise(spec), impl, name)


def check_failures_refinement(spec: LTS, impl: LTS, name: str = "Spec [F= Impl") -> CheckResult:
    """Decide ``Spec ⊑F Impl`` in the stable-failures model.

    Traces must refine, and every stable implementation state must offer a
    superset of some minimal acceptance of the matching specification node.
    """
    return check_failures_refinement_from(normalise(spec), impl, name)


def check_fd_refinement(
    normalised: NormalisedSpec,
    impl: LTS,
    name: str = "Spec [FD= Impl",
    obs: Tracer = NULL_TRACER,
) -> CheckResult:
    """Decide ``Spec ⊑FD Impl`` in the failures-divergences model.

    *normalised* is the specification, already normalised (the pipeline
    hands over its cached copy).  Beyond the stable-failures conditions,
    the implementation may only diverge where the specification itself
    diverges; where the spec node is divergent it behaves chaotically and
    permits everything (so the search prunes there, exactly as FDR does).
    Divergence detection needs the full implementation tau graph, so this
    check always runs eagerly.
    """
    impl_divergent = tau_cycle_states(impl)
    spec_divergent = normalised.divergent
    search = _ProductSearch(impl, normalised, obs)

    def fd_check(
        impl_state: StateId, node: NodeId, pair: int
    ) -> Optional[Counterexample]:
        if spec_divergent[node]:
            return None  # spec diverges here: chaotic, anything goes
        if impl_state in impl_divergent:
            return DivergenceCounterexample(search.trace_to(pair))
        return _stable_failure(search, normalised, impl_state, node, pair)

    violation = search.run(on_pair=fd_check, prune=spec_divergent.__getitem__)
    return _finished(search, violation, name, obs)


def _stable_failure(
    search: _ProductSearch,
    normalised: NormalisedSpec,
    impl_state: StateId,
    node: NodeId,
    pair: int,
) -> Optional[Counterexample]:
    """The stable-failures violation at a pair, or None.

    A stable implementation state must offer a superset of some minimal
    acceptance of the matching specification node; an unstable one
    refuses nothing.
    """
    offer = search.stable_offer(impl_state)
    if offer is None or normalised.allows_stable_refusal_bits(node, offer):
        return None
    offered = search.offered_events(impl_state)
    acceptances = normalised.acceptances[node]
    required = frozenset().union(*acceptances) if acceptances else frozenset()
    return FailureCounterexample(search.trace_to(pair), offered, required - offered)


def _bfs_with_parents(lts: LTS):
    """BFS over a single LTS yielding parent pointers for trace reconstruction."""
    parents: Dict[StateId, Tuple[Optional[StateId], Optional[int]]] = {
        lts.initial: (None, None)
    }
    order: List[StateId] = []
    work: deque = deque([lts.initial])
    while work:
        state = work.popleft()
        order.append(state)
        events, targets, lo, hi = lts.successors_span(state)
        for i in range(lo, hi):
            target = targets[i]
            if target not in parents:
                parents[target] = (state, events[i])
                work.append(target)
    return parents, order


def _trace_from_parents(parents, state: StateId, table: AlphabetTable) -> Trace:
    events: List[Event] = []
    cursor: Optional[StateId] = state
    while cursor is not None:
        parent, eid = parents[cursor]
        if eid is not None and eid != TAU_ID:
            events.append(table.event_of(eid))
        cursor = parent
    events.reverse()
    return tuple(events)


def _emit_walk_metrics(obs: Tracer, states: int, transitions: int) -> None:
    """Record a whole-LTS property walk into the tracer's metrics."""
    if not obs.enabled:
        return
    obs.metrics.counter("refine.states_explored").inc(states)
    obs.metrics.counter("refine.transitions_explored").inc(transitions)


def check_deadlock_free(
    lts: LTS, name: str = "deadlock free", obs: Tracer = NULL_TRACER
) -> CheckResult:
    """No reachable state refuses everything (termination does not count)."""
    parents, order = _bfs_with_parents(lts)
    transitions = 0
    for state in order:
        _events, _targets, lo, hi = lts.successors_span(state)
        transitions += hi - lo
        if hi > lo:
            continue
        trace = _trace_from_parents(parents, state, lts.table)
        # a state reached by tick is the successfully-terminated state, which
        # is not a deadlock
        if trace and trace[-1].is_tick():
            continue
        _emit_walk_metrics(obs, len(order), transitions)
        return CheckResult(
            name,
            False,
            _attach_impl_state(DeadlockCounterexample(trace), lts, state),
            states_explored=len(order),
            transitions_explored=transitions,
        )
    _emit_walk_metrics(obs, len(order), transitions)
    return CheckResult(name, True, None, len(order), transitions)


def check_divergence_free(
    lts: LTS, name: str = "divergence free", obs: Tracer = NULL_TRACER
) -> CheckResult:
    """No reachable cycle of tau transitions (no livelock)."""
    divergent = tau_cycle_states(lts)
    parents, order = _bfs_with_parents(lts)
    transitions = 0
    for state in order:
        _events, _targets, lo, hi = lts.successors_span(state)
        transitions += hi - lo
    _emit_walk_metrics(obs, len(order), transitions)
    for state in order:
        if state in divergent:
            return CheckResult(
                name,
                False,
                _attach_impl_state(
                    DivergenceCounterexample(
                        _trace_from_parents(parents, state, lts.table)
                    ),
                    lts,
                    state,
                ),
                states_explored=len(order),
                transitions_explored=transitions,
            )
    return CheckResult(name, True, None, len(order), transitions)


def check_deterministic(
    lts: LTS, name: str = "deterministic", obs: Tracer = NULL_TRACER
) -> CheckResult:
    """FDR's determinism check in the stable-failures sense.

    A process is nondeterministic iff after some trace an event is both
    possible (somewhere) and stably refusable (somewhere else).  We pair each
    implementation state against the normalised automaton of the *same*
    process; the normalised node knows every event possible after the trace.
    """
    normalised = normalise(lts, obs=obs)
    search = _ProductSearch(lts, normalised, obs)

    def stable_check(
        impl_state: StateId, node: NodeId, pair: int
    ) -> Optional[Counterexample]:
        if not lts.is_stable(impl_state):
            return None
        offered = frozenset(event for event, _ in lts.successors(impl_state))
        for event in sorted(normalised.events(node), key=str):
            if event not in offered:
                return NondeterminismCounterexample(search.trace_to(pair), event)
        return None

    return _finished(search, search.run(on_pair=stable_check), name, obs)
