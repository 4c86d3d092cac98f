"""Explicit-state labelled transition systems compiled from process terms.

This is the bridge between the process algebra and the refinement checker:
a process term plus an environment of equations compiles, by exhaustive
exploration of the operational semantics, into a finite LTS with integer
states.  The compiler deduplicates structurally equal process terms, so
recursive definitions close back on themselves and the LTS is finite whenever
the process is finite-state.

The in-memory representation is the flat-array kernel of
:mod:`repro.csp.kernel`: :data:`LTS` *is* :class:`~repro.csp.kernel.
CompactLTS`, a CSR successor table over ``array('q')``.  The compiler below
builds the arrays directly -- BFS expands states in id order, so each
state's edge range lands contiguously and the offsets array falls out of the
walk for free.

Transition labels are stored as dense integer ids drawn from an
:class:`~repro.csp.events.AlphabetTable` (tau is id 0, tick id 1), so the
normaliser and refinement checker work on ints; the public ``successors`` /
``initials`` / ``walk`` API still speaks :class:`Event`, decoding through the
table at the boundary.  Pass a shared table to :func:`compile_lts` to give
several automata one id space -- the verification pipeline does exactly that.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from .events import AlphabetTable, TAU_ID, TICK_ID, Event
from .kernel import CompactLTS, StateId
from .process import Environment, Process
from .semantics import transitions as sos_transitions

#: The one in-memory automaton form.  The name ``LTS`` is kept for the
#: whole stack (and for history); the representation is the flat kernel.
LTS = CompactLTS


class StateSpaceLimitExceeded(RuntimeError):
    """Raised when exploration exceeds the configured state budget."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            "state space exceeds the limit of {} states; the model may be "
            "infinite-state or the limit too small".format(limit)
        )
        self.limit = limit


class TermNestingExceeded(StateSpaceLimitExceeded):
    """Raised when a reachable process term nests too deeply to expand.

    Recursion through hiding (``P = (a -> P) \\ {a}``) wraps every unfolding
    in one more operator, so the terms grow without bound and the SOS runs
    out of interpreter stack long before the state budget.  The text is
    fixed; the ``RecursionError`` behind it depends on where the stack ran
    out, which differs between callers.
    """

    def __init__(self) -> None:
        RuntimeError.__init__(
            self,
            "a reachable process term nests too deeply to expand; recursion "
            "through hiding, renaming or parallel composition grows the term "
            "without bound",
        )
        self.limit = None


DEFAULT_STATE_LIMIT = 200_000


def compile_lts(
    process: Process,
    env: Optional[Environment] = None,
    max_states: int = DEFAULT_STATE_LIMIT,
    table: Optional[AlphabetTable] = None,
) -> LTS:
    """Compile a process term into a finite LTS by exhaustive exploration.

    Structurally equal terms are merged into one state, which ties recursive
    definitions back into cycles.  Raises :class:`StateSpaceLimitExceeded` if
    more than *max_states* distinct terms are reached, and
    :class:`TermNestingExceeded` if a term nests too deeply to expand.  A
    shared *table* puts the result in an existing id space (one table per
    pipeline).

    States are numbered in BFS discovery order and each state is expanded
    exactly once, in id order -- so the kernel's CSR arrays are appended to
    directly, one contiguous edge range per state.
    """
    env = env or Environment()
    table = table if table is not None else AlphabetTable()
    intern = table.intern
    index: Dict[Process, StateId] = {}
    terms: List[Process] = []

    offsets = array("q", [0])
    events = array("q")
    targets = array("q")

    def state_of(term: Process) -> StateId:
        existing = index.get(term)
        if existing is not None:
            return existing
        if len(index) >= max_states:
            raise StateSpaceLimitExceeded(max_states)
        state = len(terms)
        index[term] = state
        terms.append(term)
        return state

    state_of(process)
    work: deque = deque([process])
    while work:
        term = work.popleft()
        try:
            moves = sos_transitions(term, env)
        except RecursionError:
            raise TermNestingExceeded() from None
        for event, successor in moves:
            known = successor in index
            target = state_of(successor)
            events.append(intern(event))
            targets.append(target)
            if not known:
                work.append(successor)
        offsets.append(len(events))

    return CompactLTS(table, 0, offsets, events, targets, terms)


def reachable_visible_traces(
    lts: LTS, max_length: int
) -> Set[Tuple[Event, ...]]:
    """All visible traces (tick included) of length <= max_length.

    Used by tests to compare the operational semantics against the paper's
    denotational trace definitions.  Exponential in *max_length* -- only for
    small models.
    """
    results: Set[Tuple[Event, ...]] = {()}
    start = lts.tau_closure(frozenset([lts.initial]))
    frontier: List[Tuple[Tuple[Event, ...], frozenset]] = [((), start)]
    event_of = lts.table.event_of
    for _ in range(max_length):
        next_frontier: List[Tuple[Tuple[Event, ...], frozenset]] = []
        for trace, states in frontier:
            by_event: Dict[int, Set[StateId]] = {}
            for state in states:
                for eid, target in lts.successors_ids(state):
                    if eid == TAU_ID:
                        continue
                    by_event.setdefault(eid, set()).add(target)
            for eid, targets in by_event.items():
                extended = trace + (event_of(eid),)
                if extended not in results:
                    results.add(extended)
                    if eid != TICK_ID:
                        closure = lts.tau_closure(frozenset(targets))
                        next_frontier.append((extended, closure))
        frontier = next_frontier
        if not frontier:
            break
    return results
