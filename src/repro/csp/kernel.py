"""The flat-array LTS kernel: CSR successor tables over ``array('q')``.

Every automaton the verification stack holds in memory is a
:class:`CompactLTS`: states are dense ints and the successor relation is
stored in compressed-sparse-row form --

* ``offsets`` -- ``state_count + 1`` int64s; state ``s``'s edges occupy the
  half-open range ``[offsets[s], offsets[s+1])``,
* ``events`` -- one interned event id per edge (``array('q')``),
* ``targets`` -- one target state per edge (``array('q')``),

with per-state edge order preserved exactly as inserted.  Insertion order is
load-bearing: BFS exploration order, counterexample tie-breaking and the
golden conformance pins all depend on it, so the kernel never sorts edges.

An automaton is immutable once built.  Its constructor adopts finished CSR
arrays, with the initial state and the per-state terms passed in; producers
that hold their edges as per-state ``(event id, target)`` lists build with
:meth:`CompactLTS.from_edges`.  Nothing changes an automaton afterwards, so
every query reads the arrays as they stand and a value computed from them
stays valid for the automaton's lifetime.

The engine's hot paths never materialise ``(event, target)`` tuples: they
call :meth:`CompactLTS.successors_span` and walk the shared arrays by index
(see ``fdr.refine``, ``fdr.normalise`` and the passes).  ``alphabet()`` is
computed once and kept, and so are the divergent states
(:func:`tau_cycle_states`), which ``[FD=``, ``:[divergence free]`` and
normalisation all read from the same automaton.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .events import AlphabetTable, Event, TAU_ID, TICK_ID
from .process import Process

StateId = int

#: (events, targets, start, end): the edge range of one state in the shared
#: flat arrays -- the kernel's zero-allocation successor view
Span = Tuple[array, array, int, int]


class CompactLTS:
    """A finite labelled transition system in flat-array (CSR) form."""

    __slots__ = (
        "initial",
        "table",
        "terms",
        "_offsets",
        "_events",
        "_targets",
        "_alphabet",
        "_divergent",
    )

    def __init__(
        self,
        table: Optional[AlphabetTable],
        initial: StateId,
        offsets: array,
        events: array,
        targets: array,
        terms: Optional[Sequence[Optional[Process]]] = None,
    ) -> None:
        """Adopt packed CSR arrays; treat them as read-only from here on.

        *terms* maps each state back to the process term it came from
        (``None`` entries when no term is recorded, the default).
        """
        state_count = len(offsets) - 1
        if state_count < 0:
            raise ValueError("offsets array must have at least one entry")
        if len(events) != len(targets) or offsets[-1] != len(events):
            raise ValueError("CSR arrays are inconsistent")
        self.initial: StateId = initial
        self.table: AlphabetTable = table if table is not None else AlphabetTable()
        self.terms: Sequence[Optional[Process]] = (
            terms if terms is not None else [None] * state_count
        )
        self._offsets: array = offsets
        self._events: array = events
        self._targets: array = targets
        self._alphabet: Optional[FrozenSet[Event]] = None
        #: the states on a tau cycle, once :func:`tau_cycle_states` asked
        self._divergent: Optional[FrozenSet[StateId]] = None

    @classmethod
    def from_edges(
        cls,
        table: Optional[AlphabetTable],
        initial: StateId,
        edges: Iterable[Iterable[Tuple[int, StateId]]],
        terms: Optional[Sequence[Optional[Process]]] = None,
    ) -> "CompactLTS":
        """Pack per-state ``(event id, target)`` lists, in order, into CSR form."""
        offsets = array("q", [0])
        events = array("q")
        targets = array("q")
        for state_edges in edges:
            for eid, target in state_edges:
                events.append(eid)
                targets.append(target)
            offsets.append(len(events))
        return cls(table, initial, offsets, events, targets, terms)

    # -- the kernel's raw views ----------------------------------------------

    def successors_span(self, state: StateId) -> Span:
        """State ``state``'s edge range in the shared flat arrays.

        The hot-path accessor: returns ``(events, targets, start, end)`` --
        no tuples are materialised, callers index the arrays directly.
        """
        offsets = self._offsets
        return self._events, self._targets, offsets[state], offsets[state + 1]

    def csr_arrays(self) -> Tuple[array, array, array]:
        """The packed ``(offsets, events, targets)`` arrays.

        The disk cache serialises these directly; treat them as read-only.
        """
        return self._offsets, self._events, self._targets

    # -- queries -------------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self._offsets) - 1

    @property
    def transition_count(self) -> int:
        return len(self._events)

    def successors(self, state: StateId) -> List[Tuple[Event, StateId]]:
        events, targets, start, end = self.successors_span(state)
        event_of = self.table.event_of
        return [
            (event_of(events[i]), targets[i]) for i in range(start, end)
        ]

    def successors_ids(self, state: StateId) -> List[Tuple[int, StateId]]:
        """The interned transitions as tuples (compatibility view).

        Engine loops should prefer :meth:`successors_span`, which does not
        allocate per edge.
        """
        events, targets, start, end = self.successors_span(state)
        return [(events[i], targets[i]) for i in range(start, end)]

    def initials(self, state: StateId) -> FrozenSet[Event]:
        events, _targets, start, end = self.successors_span(state)
        event_of = self.table.event_of
        return frozenset(event_of(events[i]) for i in range(start, end))

    def is_stable(self, state: StateId) -> bool:
        """A state is stable if it has no outgoing tau."""
        events, _targets, start, end = self.successors_span(state)
        for i in range(start, end):
            if events[i] == TAU_ID:
                return False
        return True

    def is_deadlocked(self, state: StateId) -> bool:
        """No transitions at all and not a post-termination state."""
        _events, _targets, start, end = self.successors_span(state)
        return start == end

    def tau_closure(self, states: FrozenSet[StateId]) -> FrozenSet[StateId]:
        """All states reachable from *states* by zero or more tau steps."""
        offsets, events, targets = self._offsets, self._events, self._targets
        seen: Set[StateId] = set(states)
        work = deque(states)
        while work:
            state = work.popleft()
            for i in range(offsets[state], offsets[state + 1]):
                if events[i] == TAU_ID:
                    target = targets[i]
                    if target not in seen:
                        seen.add(target)
                        work.append(target)
        return frozenset(seen)

    def alphabet(self) -> FrozenSet[Event]:
        """Every visible event appearing on some transition (cached)."""
        cached = self._alphabet
        if cached is not None:
            return cached
        ids: Set[int] = set(self._events)
        ids.discard(TAU_ID)
        ids.discard(TICK_ID)
        event_of = self.table.event_of
        result = frozenset(event_of(eid) for eid in ids)
        self._alphabet = result
        return result

    def events_after(self, states: FrozenSet[StateId]) -> FrozenSet[Event]:
        """Visible/tick events available from any of the given states."""
        ids: Set[int] = set()
        for state in states:
            events, _targets, start, end = self.successors_span(state)
            for i in range(start, end):
                if events[i] != TAU_ID:
                    ids.add(events[i])
        event_of = self.table.event_of
        return frozenset(event_of(eid) for eid in ids)

    def walk(self, trace: List[Event]) -> Optional[FrozenSet[StateId]]:
        """The set of states reachable by *trace* (with taus), or None if impossible."""
        current = self.tau_closure(frozenset([self.initial]))
        for event in trace:
            eid = self.table.id_of(event)
            if eid is None:
                return None
            step: Set[StateId] = set()
            for state in current:
                events, targets, start, end = self.successors_span(state)
                for i in range(start, end):
                    if events[i] == eid:
                        step.add(targets[i])
            if not step:
                return None
            current = self.tau_closure(frozenset(step))
        return current

    def iter_states(self) -> Iterator[StateId]:
        return iter(range(self.state_count))

    def to_dot(self, name: str = "lts") -> str:
        """Render the LTS in Graphviz dot format (FDR-style visualisation)."""
        lines = ["digraph {} {{".format(name), "  rankdir=LR;"]
        lines.append('  init [shape=point, label=""];')
        lines.append("  init -> s{};".format(self.initial))
        for state in self.iter_states():
            shape = "doublecircle" if self.is_deadlocked(state) else "circle"
            lines.append('  s{} [shape={}, label="{}"];'.format(state, shape, state))
        for state in self.iter_states():
            for event, target in self.successors(state):
                label = str(event)
                lines.append('  s{} -> s{} [label="{}"];'.format(state, target, label))
        lines.append("}")
        return "\n".join(lines)


def tau_scc_of(lts: CompactLTS) -> List[int]:
    """Tarjan over tau transitions only: state -> tau-SCC id (iterative)."""
    count = lts.state_count
    unvisited = -1
    index_of = [unvisited] * count
    lowlink = [0] * count
    on_stack = [False] * count
    scc_of = [unvisited] * count
    stack: List[StateId] = []
    counter = 0
    scc_count = 0

    successors_span = lts.successors_span
    for root in range(count):
        if index_of[root] != unvisited:
            continue
        # (state, edge cursor) frames, unrolled to avoid recursion; the
        # cursor is an absolute index into the kernel's flat arrays
        # (-1 = first visit)
        work: List[Tuple[StateId, int]] = [(root, -1)]
        while work:
            state, position = work.pop()
            events, targets, lo, hi = successors_span(state)
            if position < 0:
                index_of[state] = lowlink[state] = counter
                counter += 1
                stack.append(state)
                on_stack[state] = True
                position = lo
            advanced = False
            while position < hi:
                eid = events[position]
                target = targets[position]
                position += 1
                if eid != TAU_ID:
                    continue
                if index_of[target] == unvisited:
                    work.append((state, position))
                    work.append((target, -1))
                    advanced = True
                    break
                if on_stack[target]:
                    lowlink[state] = min(lowlink[state], index_of[target])
            if advanced:
                continue
            if lowlink[state] == index_of[state]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = scc_count
                    if member == state:
                        break
                scc_count += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[state])
    return scc_of


def tau_cycle_states(lts: CompactLTS) -> FrozenSet[StateId]:
    """States lying on a cycle of tau transitions (divergent states).

    A state diverges if its tau-SCC has two or more members, or if it has
    a tau self-loop.  Computed once per automaton and kept on it until the
    next mutation.
    """
    cached = lts._divergent
    if cached is not None:
        return cached
    scc_of = tau_scc_of(lts)
    sizes = Counter(scc_of)
    divergent: Set[StateId] = set()
    for state, scc in enumerate(scc_of):
        if sizes[scc] > 1:
            divergent.add(state)
            continue
        events, targets, lo, hi = lts.successors_span(state)
        if any(events[i] == TAU_ID and targets[i] == state for i in range(lo, hi)):
            divergent.add(state)
    result = lts._divergent = frozenset(divergent)
    return result
