"""Specification normalisation (the first stage of an FDR-style check).

Refinement checking compares every behaviour of the implementation against
the specification.  To make that comparison a simple simulation, the
specification LTS is first *normalised*: tau transitions are closed away and
the result is made deterministic by the subset construction, exactly as FDR
pre-processes the left-hand side of a refinement assertion.

For the stable-failures model each normalised node additionally records the
*minimal acceptance sets* -- the minimal sets of events offered by the stable
states inside the node.  An implementation failure ``(s, X)`` is allowed iff
some minimal acceptance is contained in the events the implementation still
offers.

Internally the automaton is keyed on the interned event ids of the source
LTS's :class:`~repro.csp.events.AlphabetTable` and acceptances are int
bitsets; the Event-typed views (``afters``, ``acceptances``, ``after`` ...)
decode through the table, so existing callers see the same API as before.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..csp.events import AlphabetTable, Event, TAU_ID
from ..csp.kernel import tau_cycle_states
from ..csp.lts import LTS, StateId
from ..csp.process import Process

NodeId = int


class NormalisedSpec:
    """A deterministic, tau-free automaton with acceptance annotations."""

    def __init__(self, table: Optional[AlphabetTable] = None) -> None:
        self.initial: NodeId = 0
        self.table: AlphabetTable = table if table is not None else AlphabetTable()
        #: per-node transition function on interned visible-event ids
        self.afters_ids: List[Dict[int, NodeId]] = []
        #: per-node minimal acceptance bitsets (bit i = event with id i);
        #: empty tuple means the node has no stable states (the spec diverges
        #: there and refuses nothing stably)
        self.acceptance_bits: List[Tuple[int, ...]] = []
        #: the subset of original spec states each node represents
        self.members: List[FrozenSet[StateId]] = []
        #: True when the node contains a state on a tau cycle
        self.divergent: List[bool] = []

    @property
    def node_count(self) -> int:
        return len(self.afters_ids)

    # -- Event-typed views (the public API; decodes through the table) -------

    @property
    def afters(self) -> List[Dict[Event, NodeId]]:
        event_of = self.table.event_of
        return [
            {event_of(eid): node for eid, node in row.items()}
            for row in self.afters_ids
        ]

    @property
    def acceptances(self) -> List[Tuple[FrozenSet[Event], ...]]:
        decode = self.table.decode_bits
        return [
            tuple(decode(bits) for bits in row) for row in self.acceptance_bits
        ]

    def after(self, node: NodeId, event: Event) -> Optional[NodeId]:
        eid = self.table.id_of(event)
        if eid is None:
            return None
        return self.afters_ids[node].get(eid)

    def events(self, node: NodeId) -> FrozenSet[Event]:
        event_of = self.table.event_of
        return frozenset(event_of(eid) for eid in self.afters_ids[node])

    def allows_stable_refusal(self, node: NodeId, offered: FrozenSet[Event]) -> bool:
        """May the spec, at this node, stably offer no more than *offered*?

        True iff some minimal acceptance of the node is contained in
        *offered* -- i.e. the spec itself has a stable state that offers a
        subset of what the implementation offers, so the implementation's
        refusal is also a spec refusal.
        """
        return self.allows_stable_refusal_bits(
            node, self.table.encode_known(offered)
        )

    def allows_stable_refusal_bits(self, node: NodeId, offered_bits: int) -> bool:
        """Bitset form of :meth:`allows_stable_refusal` (the engine hot path)."""
        for bits in self.acceptance_bits[node]:
            if bits & ~offered_bits == 0:
                return True
        return False

    def as_lts(self, terms: Optional[Sequence[Optional[Process]]] = None) -> LTS:
        """View the normalised automaton as a (deterministic, tau-free) LTS.

        Shares this spec's alphabet table; *terms*, if given, names the
        process term behind each node.  Used by the ``normal`` pass and by
        the quickcheck oracle that checks normalisation is idempotent at the
        trace level: re-normalising ``as_lts()`` must not change the trace
        behaviour.
        """
        return LTS.from_edges(
            self.table,
            self.initial,
            [list(row.items()) for row in self.afters_ids],
            terms,
        )


def minimal_sets(sets: Set[FrozenSet[Event]]) -> Tuple[FrozenSet[Event], ...]:
    """Keep only the subset-minimal elements, in a deterministic order."""
    kept: List[FrozenSet[Event]] = []
    for candidate in sorted(sets, key=lambda s: (len(s), sorted(str(e) for e in s))):
        if not any(existing <= candidate for existing in kept):
            kept.append(candidate)
    return tuple(kept)


def minimal_bitsets(sets: Set[int], table: AlphabetTable) -> Tuple[int, ...]:
    """Bitset analogue of :func:`minimal_sets`, same deterministic order."""

    def sort_key(bits: int) -> Tuple[int, List[str]]:
        keys = []
        remaining = bits
        while remaining:
            low = remaining & -remaining
            keys.append(table.sort_key(low.bit_length() - 1))
            remaining ^= low
        return (len(keys), sorted(keys))

    kept: List[int] = []
    for candidate in sorted(sets, key=sort_key):
        if not any(existing & ~candidate == 0 for existing in kept):
            kept.append(candidate)
    return tuple(kept)


def normalise(lts: LTS, obs=None) -> NormalisedSpec:
    """Normalise an LTS: tau-closure plus subset construction with acceptances.

    With an enabled tracer as *obs*, records the subset-construction blowup
    (``normalise.input_states`` vs ``normalise.nodes``) into its metrics.
    """
    table = lts.table
    spec = NormalisedSpec(table)
    divergent_states = tau_cycle_states(lts)
    node_index: Dict[FrozenSet[StateId], NodeId] = {}
    successors_span = lts.successors_span

    def node_of(members: FrozenSet[StateId]) -> NodeId:
        existing = node_index.get(members)
        if existing is not None:
            return existing
        node = len(spec.afters_ids)
        node_index[members] = node
        spec.afters_ids.append({})
        spec.members.append(members)
        spec.divergent.append(any(state in divergent_states for state in members))
        acceptance_sets: Set[int] = set()
        for state in members:
            events, _targets, lo, hi = successors_span(state)
            bits = 0
            for i in range(lo, hi):
                eid = events[i]
                if eid == TAU_ID:
                    # an unstable state contributes no acceptance
                    bits = -1
                    break
                bits |= 1 << eid
            if bits >= 0:
                acceptance_sets.add(bits)
        spec.acceptance_bits.append(minimal_bitsets(acceptance_sets, table))
        return node

    start = lts.tau_closure(frozenset([lts.initial]))
    spec.initial = node_of(start)
    work: deque = deque([start])
    expanded: Set[NodeId] = set()
    while work:
        members = work.popleft()
        node = node_index[members]
        if node in expanded:
            continue
        expanded.add(node)
        by_event: Dict[int, Set[StateId]] = {}
        for state in members:
            events, targets, lo, hi = successors_span(state)
            for i in range(lo, hi):
                eid = events[i]
                if eid == TAU_ID:
                    continue
                by_event.setdefault(eid, set()).add(targets[i])
        for eid, targets in sorted(
            by_event.items(), key=lambda kv: table.sort_key(kv[0])
        ):
            closure = lts.tau_closure(frozenset(targets))
            known = closure in node_index
            spec.afters_ids[node][eid] = node_of(closure)
            if not known:
                work.append(closure)
    if obs is not None and obs.enabled:
        metrics = obs.metrics
        metrics.counter("normalise.input_states").inc(lts.state_count)
        metrics.counter("normalise.nodes").inc(spec.node_count)
    return spec
