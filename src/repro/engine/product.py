"""Composition spines over compiled component kernels, lazy or materialised.

The compilation plan rebuilds a composed term with
:class:`~repro.csp.process.CompiledProcess` leaves standing in for its
compressed components.  Replaying those leaves through the term-level SOS is
correct, but every expanded state allocates a fresh process term per
component move and hashes whole terms into the state index.

:class:`ProductLTS` is the state-space generator for exactly that case.
When a term is a pure composition spine (generalised parallel / interleave /
hiding / renaming) over compiled leaves, a product state is just the tuple
of component kernel states, and a state's successors are synthesised
directly from the components' flat CSR spans -- no term objects, no SOS
dispatch, tuple hashing instead of term hashing.  The synthesis mirrors the
SOS rules move for move (left non-sync moves first, then right non-sync,
then synchronised pairs in left-major order; hiding maps to tau in place;
renaming relabels ids), so state numbering, edge order, verdicts,
counterexamples and explored-state counts are identical to the term-level
path it replaces.  It serves two uses:

* on the fly (``[T=`` / ``[F=``): the refinement search drives
  :meth:`ProductLTS.successors_span` and states unfold on demand, like a
  :class:`~repro.fdr.refine.LazyImplementation`;
* materialised (eager compilation, hence ``[FD=`` and property checks):
  :meth:`ProductLTS.materialise` expands every state in id order into the
  :class:`~repro.csp.kernel.CompactLTS` that ``compile_lts`` would have
  built from the same term -- same BFS numbering, per-state edge order,
  event ids and state budget -- whose per-state ``terms`` are rebuilt by
  :meth:`ProductLTS.term_of` only when a counterexample asks for one.

Moves are synthesised as *deltas*: each spine node returns
``(event id, ((leaf position, new leaf state), ...))``, naming only the
leaves the move changes.  A leaf caches its move list per kernel state,
and so does any other subtree whose leaves span few state combinations
(a synchronised VMG/ECU pair, say), so most of the synthesis is list
lookups; the successor tuple is built once per move that survives
synchronisation.

Events the pipeline's table has not interned yet (renaming targets, events
of a leaf compiled under another pipeline's table) are numbered when the
first edge carrying them is emitted, as ``compile_lts`` does, so both paths
leave the table in the same state.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..csp.events import AlphabetTable, Event, TAU_ID, TICK_ID
from ..csp.kernel import CompactLTS
from ..csp.lts import DEFAULT_STATE_LIMIT, StateId, StateSpaceLimitExceeded
from ..csp.process import (
    CompiledProcess,
    GenParallel,
    Hiding,
    Interleave,
    Process,
    Renaming,
)

#: the leaf positions one move changes, each with its new kernel state
Delta = Tuple[Tuple[int, StateId], ...]
#: one synthesised move: (event id, delta)
_Move = Tuple[int, Delta]

#: the operators a spine is built from
_SPINE = (GenParallel, Interleave, Hiding, Renaming)

#: ids from here up stand for events the table had not interned when the
#: spine was built; each is swapped for its table id as its edge is emitted
_DEFERRED = 1 << 62

#: a subtree whose leaves span at most this many state combinations keeps
#: its move lists per combination: so small a subtree recurs in many
#: product states, and its memo stays small
_MEMO_STATES = 4096


class _Ids:
    """Event ids for building one spine, deferring events new to the table.

    An event the table already knows gets its table id.  Any other event a
    child can produce gets a placeholder at or above ``_DEFERRED``, so that
    interning happens in edge-emission order rather than build order.
    """

    __slots__ = ("table", "deferred", "_placeholders")

    def __init__(self, table: AlphabetTable) -> None:
        self.table = table
        #: the events behind the placeholders, in placeholder order
        self.deferred: List[Event] = []
        self._placeholders: Dict[Event, int] = {}

    def lookup(self, event: Event) -> Optional[int]:
        """The id of *event*, or None when no child can produce it."""
        eid = self.table.id_of(event)
        return eid if eid is not None else self._placeholders.get(event)

    def intern(self, event: Event) -> int:
        """The id of *event*, allocating a placeholder on first sight."""
        eid = self.lookup(event)
        if eid is None:
            eid = _DEFERRED + len(self.deferred)
            self._placeholders[event] = eid
            self.deferred.append(event)
        return eid


class _Leaf:
    """One compiled component: moves come straight off its kernel spans.

    ``remap`` translates the kernel's event ids into the pipeline's ids
    when the component was compiled under a different pipeline (shared
    compressed cache); None means the kernel already lives in the
    pipeline's id space.  Each kernel state's move list is built once.
    """

    __slots__ = ("position", "lts", "remap", "alphabet", "_moves")

    def __init__(self, position: int, lts, remap: Optional[Dict[int, int]]) -> None:
        self.position = position
        self.lts = lts
        self.remap = remap
        _offsets, events, _targets = lts.csr_arrays()
        #: every id a move of this leaf can carry
        self.alphabet: FrozenSet[int] = frozenset(
            set(events) if remap is None else map(remap.__getitem__, set(events))
        )
        self._moves: List[Optional[List[_Move]]] = [None] * lts.state_count

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        state = tup[self.position]
        moves = self._moves[state]
        if moves is None:
            events, targets, lo, hi = self.lts.successors_span(state)
            k = self.position
            remap = self.remap
            moves = [
                (events[i] if remap is None else remap[events[i]], ((k, targets[i]),))
                for i in range(lo, hi)
            ]
            self._moves[state] = moves
        return moves


class _Par:
    """Generalised parallel (interleave = empty sync set).

    ``sync`` holds every id that must synchronise: the sync set's ids plus
    tick, never tau.  The subtrees own disjoint leaf positions, so a
    synchronised pair's delta is the left delta followed by the right one.
    When neither subtree can carry a sync id (interleaving processes that
    never terminate), every move passes through unpaired.
    """

    __slots__ = ("left", "right", "sync", "alphabet", "independent")

    def __init__(self, left, right, sync: FrozenSet[int]) -> None:
        self.left = left
        self.right = right
        self.sync = sync
        self.alphabet: FrozenSet[int] = left.alphabet | right.alphabet
        self.independent = not (self.alphabet & sync)

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        left = self.left.moves(tup)
        right = self.right.moves(tup)
        if self.independent:
            return left + right
        sync = self.sync
        result = [move for move in left if move[0] not in sync]
        result += [move for move in right if move[0] not in sync]
        for eid, left_delta in left:
            if eid in sync:
                for right_eid, right_delta in right:
                    if right_eid == eid:
                        result.append((eid, left_delta + right_delta))
        return result


class _Hide:
    """Hiding: hidden visible events become tau, order untouched."""

    __slots__ = ("child", "hidden_ids", "alphabet")

    def __init__(self, child, hidden_ids: FrozenSet[int]) -> None:
        self.child = child
        self.hidden_ids = hidden_ids
        self.alphabet: FrozenSet[int] = frozenset(
            TAU_ID if eid in hidden_ids else eid for eid in child.alphabet
        )

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        hidden = self.hidden_ids
        return [
            (TAU_ID, delta) if eid in hidden else (eid, delta)
            for eid, delta in self.child.moves(tup)
        ]


class _Rename:
    """Renaming: relabel visible ids through a precomputed map."""

    __slots__ = ("child", "id_map", "alphabet")

    def __init__(self, child, id_map: Dict[int, int]) -> None:
        self.child = child
        self.id_map = id_map
        self.alphabet: FrozenSet[int] = frozenset(
            id_map.get(eid, eid) for eid in child.alphabet
        )

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        id_map = self.id_map
        return [(id_map.get(eid, eid), delta) for eid, delta in self.child.moves(tup)]


class _Memo:
    """A small subtree's moves, kept per state of the leaves it spans.

    The subtree owns the leaf positions ``lo`` to ``hi - 1``, so its moves
    depend on that slice of the product tuple only.
    """

    __slots__ = ("child", "lo", "hi", "alphabet", "_moves")

    def __init__(self, child, lo: int, hi: int) -> None:
        self.child = child
        self.lo = lo
        self.hi = hi
        self.alphabet: FrozenSet[int] = child.alphabet
        self._moves: Dict[Tuple[StateId, ...], List[_Move]] = {}

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        key = tup[self.lo : self.hi]
        moves = self._moves.get(key)
        if moves is None:
            moves = self._moves[key] = self.child.moves(tup)
        return moves


class ProductLTS:
    """The product of compiled component kernels (span protocol).

    Drives :class:`~repro.fdr.refine._ProductSearch` exactly like a
    :class:`~repro.fdr.refine.LazyImplementation`: ``initial`` /
    ``successors_span`` / ``is_stable`` / ``table`` / ``term_of``, with
    states numbered in discovery order and a ``max_states`` budget enforced
    at discovery time -- or expands everything at once through
    :meth:`materialise`.
    """

    #: obs metric this implementation reports its expansion count under
    expansion_metric = "product.states_expanded"

    def __init__(
        self,
        template: Process,
        node,
        kernels: List,
        table: AlphabetTable,
        max_states: int = DEFAULT_STATE_LIMIT,
        deferred: Tuple[Event, ...] = (),
    ) -> None:
        # admitting the initial state counts against the budget, as in
        # compile_lts
        if max_states < 1:
            raise StateSpaceLimitExceeded(max_states)
        self.table = table
        self.max_states = max_states
        self.initial: StateId = 0
        self._template = template
        self._node = node
        self._kernels = kernels
        self._deferred = tuple(deferred)
        start = _initial_tuple(template)
        self._tuples: List[Tuple[StateId, ...]] = [start]
        self._index: Optional[Dict[Tuple[StateId, ...], StateId]] = {start: 0}
        self._events: array = array("q")
        self._targets: array = array("q")
        self._bounds: List[Optional[Tuple[int, int]]] = [None]

    @classmethod
    def for_term(
        cls,
        term: Process,
        table: AlphabetTable,
        max_states: int = DEFAULT_STATE_LIMIT,
    ) -> Optional["ProductLTS"]:
        """The product of *term*, or None when it does not qualify.

        Qualifying terms are composition spines (parallel / interleave /
        hiding / renaming) whose leaves are all ``CompiledProcess`` handles
        -- exactly what the compilation plan emits when every component
        compiled.  A degraded leaf (a raw SOS term) or a bare compiled
        process (no composition to synthesise) returns None and the caller
        falls back to the term-level path.
        """
        if not isinstance(term, _SPINE):
            return None
        kernels: List = []
        ids = _Ids(table)
        node = _build(term, kernels, ids)
        if node is None:
            return None
        return cls(term, node, kernels, table, max_states, tuple(ids.deferred))

    # -- the automaton protocol ----------------------------------------------

    @property
    def state_count(self) -> int:
        """States discovered so far (grows as the search explores)."""
        return len(self._tuples)

    def component_states(self, state: StateId) -> Tuple[StateId, ...]:
        """The component kernel states behind one product state."""
        return self._tuples[state]

    def term_of(self, state: StateId) -> Process:
        """The substituted spine term this product state corresponds to.

        Byte-compatible with the term the SOS path would have evolved:
        the spine operators are rebuilt unchanged around fresh
        ``CompiledProcess`` leaves at the tuple's states, which is exactly
        what the parallel/hiding/renaming rules produce.
        """
        tup = self._tuples[state]
        position = [0]

        def subst(term: Process) -> Process:
            if isinstance(term, CompiledProcess):
                k = position[0]
                position[0] += 1
                if term.state == tup[k]:
                    return term
                return CompiledProcess(term.automaton, tup[k])
            if isinstance(term, GenParallel):
                return GenParallel(subst(term.left), subst(term.right), term.sync)
            if isinstance(term, Interleave):
                return Interleave(subst(term.left), subst(term.right))
            if isinstance(term, Hiding):
                return Hiding(subst(term.process), term.hidden)
            return Renaming(subst(term.process), dict(term.mapping))

        return subst(self._template)

    def successors_span(self, state: StateId) -> Tuple[array, array, int, int]:
        """The state's edge range in the shared flat arrays (expands once)."""
        bounds = self._bounds[state]
        if bounds is None:
            start = len(self._events)
            self._emit(state)
            bounds = (start, len(self._events))
            self._bounds.extend([None] * (len(self._tuples) - len(self._bounds)))
            self._bounds[state] = bounds
        return self._events, self._targets, bounds[0], bounds[1]

    def materialise(self) -> CompactLTS:
        """Expand every reachable state, in id order, into a CompactLTS.

        The edge buffers fill state by state, so they are the CSR arrays
        as they stand.  The state index and the synthesis nodes are
        dropped afterwards; the automaton's ``terms`` keep the state tuples
        alive to rebuild the term behind a state on demand.  Call on a
        product nothing has explored.
        """
        events = self._events
        offsets = array("q", [0])
        state = 0
        while state < len(self._tuples):
            self._emit(state)
            offsets.append(len(events))
            state += 1
        self._index = None
        self._node = None
        self._bounds = []
        lts = CompactLTS.from_csr(
            self.table, self.initial, offsets, events, self._targets
        )
        lts.terms = _SpineTerms(self)
        return lts

    def _emit(self, state: StateId) -> None:
        """Append the state's edges to the buffers, numbering new states."""
        tup = self._tuples[state]
        moves = self._node.moves(tup)
        index = self._index
        tuples = self._tuples
        events, targets = self._events, self._targets
        start = len(events)
        try:
            for eid, delta in moves:
                slots = list(tup)
                for k, leaf_state in delta:
                    slots[k] = leaf_state
                new_tup = tuple(slots)
                target = index.get(new_tup)
                if target is None:
                    if len(tuples) >= self.max_states:
                        raise StateSpaceLimitExceeded(self.max_states)
                    target = len(tuples)
                    index[new_tup] = target
                    tuples.append(new_tup)
                events.append(eid)
                targets.append(target)
        finally:
            if self._deferred:
                self._resolve(start)

    def _resolve(self, start: int) -> None:
        """Swap the placeholder ids emitted from *start* for table ids."""
        events = self._events
        deferred = self._deferred
        intern = self.table.intern
        for i in range(start, len(events)):
            eid = events[i]
            if eid >= _DEFERRED:
                events[i] = intern(deferred[eid - _DEFERRED])

    # -- convenience views (tests, diagnostics) ------------------------------

    def successors_ids(self, state: StateId) -> List[Tuple[int, StateId]]:
        events, targets, start, end = self.successors_span(state)
        return [(events[i], targets[i]) for i in range(start, end)]

    def successors(self, state: StateId) -> List[Tuple[Event, StateId]]:
        event_of = self.table.event_of
        return [(event_of(eid), t) for eid, t in self.successors_ids(state)]

    def is_stable(self, state: StateId) -> bool:
        events, _targets, start, end = self.successors_span(state)
        for i in range(start, end):
            if events[i] == TAU_ID:
                return False
        return True

    def __repr__(self) -> str:
        return "ProductLTS({} components, {} states discovered)".format(
            len(self._kernels), len(self._tuples)
        )


class _SpineTerms(Sequence):
    """The ``terms`` of a materialised product, rebuilt on demand.

    The automaton holds one leaf-state tuple per state instead of one
    process term; counterexample provenance asks for the few it needs.
    """

    __slots__ = ("_product",)

    def __init__(self, product: ProductLTS) -> None:
        self._product = product

    def __len__(self) -> int:
        return self._product.state_count

    def __getitem__(self, state):
        if isinstance(state, slice):
            return [self._product.term_of(s) for s in range(len(self))[state]]
        return self._product.term_of(state)


def _initial_tuple(term: Process) -> Tuple[StateId, ...]:
    """The compiled-leaf states of the template, in leaf order."""
    order: List[StateId] = []

    def walk(current: Process) -> None:
        if isinstance(current, CompiledProcess):
            order.append(current.state)
        elif isinstance(current, (GenParallel, Interleave)):
            walk(current.left)
            walk(current.right)
        else:
            walk(current.process)

    walk(term)
    return tuple(order)


def _translation(lts, ids: _Ids) -> Dict[int, int]:
    """Foreign kernel event ids -> pipeline ids.

    Tau and tick occupy the same reserved slots in every table; each
    visible event the kernel uses is decoded through its own table and
    looked up (or deferred) in the pipeline's.
    """
    _offsets, events, _targets = lts.csr_arrays()
    event_of = lts.table.event_of
    remap = {TAU_ID: TAU_ID, TICK_ID: TICK_ID}
    for eid in sorted(set(events)):
        if eid > TICK_ID:
            remap[eid] = ids.intern(event_of(eid))
    return remap


def _subtree(term: Process, kernels: List, ids: _Ids):
    """Build a child node, memoised when its leaves span few states."""
    lo = len(kernels)
    node = _build(term, kernels, ids)
    if node is None or isinstance(node, _Leaf):
        return node
    combinations = 1
    for lts in kernels[lo:]:
        combinations *= lts.state_count
    if combinations > _MEMO_STATES:
        return node
    return _Memo(node, lo, len(kernels))


def _build(term: Process, kernels: List, ids: _Ids):
    """Compile the spine into move-synthesis nodes (bottom-up, or None).

    Every event a child can produce is known to *ids* before its parent is
    built: it is on a component kernel or a renaming target, both
    registered below.  So resolving hiding and sync sets with
    ``ids.lookup`` is complete -- an event with no id cannot be produced
    and is safely ignored.  The root is never memoised: the state index
    already expands each product state once.
    """
    if isinstance(term, CompiledProcess):
        lts = getattr(term.automaton, "lts", None)
        if lts is None or not hasattr(lts, "successors_span"):
            return None
        remap: Optional[Dict[int, int]] = None
        if lts.table is not ids.table:
            # a component compiled under another pipeline (shared compressed
            # cache) lives in a foreign id space; translate every edge label
            # it can produce into the pipeline's ids, which is exactly the
            # decode-and-reintern the SOS replay performs per move
            remap = _translation(lts, ids)
        kernels.append(lts)
        return _Leaf(len(kernels) - 1, lts, remap)
    if isinstance(term, (GenParallel, Interleave)):
        left = _subtree(term.left, kernels, ids)
        if left is None:
            return None
        right = _subtree(term.right, kernels, ids)
        if right is None:
            return None
        sync = {TICK_ID}
        if isinstance(term, GenParallel):
            sync.update(
                eid
                for eid in map(ids.lookup, term.sync)
                if eid is not None and eid != TAU_ID
            )
        return _Par(left, right, frozenset(sync))
    if isinstance(term, Hiding):
        child = _subtree(term.process, kernels, ids)
        if child is None:
            return None
        hidden_ids = frozenset(
            eid
            for eid in map(ids.lookup, term.hidden)
            if eid is not None and eid > TICK_ID
        )
        return _Hide(child, hidden_ids)
    if isinstance(term, Renaming):
        child = _subtree(term.process, kernels, ids)
        if child is None:
            return None
        # the first pair naming a source wins, as in Renaming.rename_event
        id_map: Dict[int, int] = {}
        for source, target in term.mapping:
            sid = ids.lookup(source)
            if sid is not None and sid not in id_map:
                id_map[sid] = ids.intern(target)
        return _Rename(child, id_map)
    return None
