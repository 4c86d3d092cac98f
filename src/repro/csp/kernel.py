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

Construction happens through the same mutating API the old per-state
tuple-list representation offered (``add_state`` / ``add_transition`` /
``add_transition_id``); appends land in a per-state build buffer and the
first query packs it into the three flat arrays.  Mutating after a query
thaws the arrays back into the buffer, so the rare build-read-build pattern
(e.g. tests extending a queried automaton) still works; steady-state
consumers pay one ``is None`` check per query.

The engine's hot paths never materialise ``(event, target)`` tuples: they
call :meth:`CompactLTS.successors_span` and walk the shared arrays by index
(see ``fdr.refine``, ``fdr.normalise`` and the passes).  ``transition_count``
and ``alphabet()`` are cached -- both sit on stats/obs paths that used to
rescan every edge per call -- and so are the divergent states
(:func:`tau_cycle_states`), which ``[FD=``, ``:[divergence free]`` and
normalisation all read from the same automaton.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

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
        "_pending",
        "_alphabet",
        "_divergent",
    )

    def __init__(self, table: Optional[AlphabetTable] = None) -> None:
        self.initial: StateId = 0
        self.table: AlphabetTable = table if table is not None else AlphabetTable()
        #: optional mapping back to the process term each state came from
        self.terms: List[Optional[Process]] = []
        self._offsets: array = array("q", [0])
        self._events: array = array("q")
        self._targets: array = array("q")
        #: per-state edge buffers while building; None once packed
        self._pending: Optional[List[List[Tuple[int, StateId]]]] = []
        self._alphabet: Optional[FrozenSet[Event]] = None
        #: the states on a tau cycle, once :func:`tau_cycle_states` asked
        self._divergent: Optional[FrozenSet[StateId]] = None

    # -- construction --------------------------------------------------------

    def add_state(self, term: Optional[Process] = None) -> StateId:
        if self._pending is None:
            self._thaw()
        self._pending.append([])
        self.terms.append(term)
        return len(self.terms) - 1

    def add_transition(self, source: StateId, event: Event, target: StateId) -> None:
        self.add_transition_id(source, self.table.intern(event), target)

    def add_transition_id(self, source: StateId, eid: int, target: StateId) -> None:
        if self._pending is None:
            self._thaw()
        self._pending[source].append((eid, target))
        self._alphabet = None
        self._divergent = None

    def _thaw(self) -> None:
        """Unpack the CSR arrays back into per-state build buffers."""
        offsets, events, targets = self._offsets, self._events, self._targets
        self._pending = [
            [
                (events[i], targets[i])
                for i in range(offsets[state], offsets[state + 1])
            ]
            for state in range(len(offsets) - 1)
        ]
        self._alphabet = None
        self._divergent = None

    def _freeze(self) -> None:
        """Pack the build buffers into the three flat arrays."""
        pending = self._pending
        offsets = array("q", [0])
        events = array("q")
        targets = array("q")
        total = 0
        for edges in pending:
            total += len(edges)
            offsets.append(total)
            if edges:
                events.extend(eid for eid, _ in edges)
                targets.extend(target for _, target in edges)
        self._offsets, self._events, self._targets = offsets, events, targets
        self._pending = None

    # -- the kernel's raw views ----------------------------------------------

    def successors_span(self, state: StateId) -> Span:
        """State ``state``'s edge range in the shared flat arrays.

        The hot-path accessor: returns ``(events, targets, start, end)`` --
        no tuples are materialised, callers index the arrays directly.
        """
        if self._pending is not None:
            self._freeze()
        offsets = self._offsets
        return self._events, self._targets, offsets[state], offsets[state + 1]

    def csr_arrays(self) -> Tuple[array, array, array]:
        """The packed ``(offsets, events, targets)`` arrays (freezes first).

        The disk cache serialises these directly; treat them as read-only.
        """
        if self._pending is not None:
            self._freeze()
        return self._offsets, self._events, self._targets

    @classmethod
    def from_csr(
        cls,
        table: Optional[AlphabetTable],
        initial: StateId,
        offsets: array,
        events: array,
        targets: array,
    ) -> "CompactLTS":
        """Adopt already-packed CSR arrays (the warm disk-cache load path)."""
        state_count = len(offsets) - 1
        if state_count < 0:
            raise ValueError("offsets array must have at least one entry")
        if len(events) != len(targets) or (
            state_count >= 0 and offsets[-1] != len(events)
        ):
            raise ValueError("CSR arrays are inconsistent")
        lts = cls(table)
        lts.initial = initial
        lts.terms = [None] * state_count
        lts._offsets = offsets
        lts._events = events
        lts._targets = targets
        lts._pending = None
        return lts

    # -- queries -------------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.terms)

    @property
    def transition_count(self) -> int:
        """Total edge count -- O(1) once packed (cached by representation)."""
        pending = self._pending
        if pending is not None:
            return sum(len(edges) for edges in pending)
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

    def visible_successors(self, state: StateId) -> List[Tuple[Event, StateId]]:
        """Transitions on events other than tau (tick included: it is observable)."""
        events, targets, start, end = self.successors_span(state)
        event_of = self.table.event_of
        return [
            (event_of(events[i]), targets[i])
            for i in range(start, end)
            if events[i] != TAU_ID
        ]

    def tau_successors(self, state: StateId) -> List[StateId]:
        events, targets, start, end = self.successors_span(state)
        return [targets[i] for i in range(start, end) if events[i] == TAU_ID]

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
        if self._pending is not None:
            self._freeze()
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
        if self._pending is not None:
            self._freeze()
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
        return iter(range(len(self.terms)))

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
