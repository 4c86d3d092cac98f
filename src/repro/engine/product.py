"""The on-the-fly state-space generator: a product over leaves.

:class:`ProductLTS` is the one generator the refinement search drives on
the implementation side, and the one eager compilation materialises for
any term with a compiled spine.  A product state is one int that encodes
its leaves' states; a state's successors are numbered in discovery order and
its edges appended to two shared flat ``array('q')`` buffers, under a
``max_states`` budget enforced at discovery time.  Expanding states in id
order is breadth-first search, the order ``compile_lts`` numbers states
in, so every shape below builds state-for-state, edge-for-edge and
id-for-id the automaton ``compile_lts`` builds from the same term.
:meth:`ProductLTS.for_term` takes any term, in one of three shapes:

* a composition spine (generalised parallel / interleave / hiding /
  renaming) whose leaves are all
  :class:`~repro.csp.process.CompiledProcess` handles -- what the
  compilation plan emits when every component compiled.  A state's
  successors are synthesised from the components' flat CSR spans: no term
  objects, no SOS dispatch, integer hashing instead of term hashing.  The
  synthesis mirrors the SOS rules move for move (left non-sync moves
  first, then right non-sync, then synchronised pairs in left-major order;
  hiding maps to tau in place; renaming relabels ids);
* a bare compiled leaf, whose moves come straight off its kernel;
* any other term (no composition, a spine with a component left in SOS
  form, a term prepared with no passes) as one SOS leaf, whose state *is*
  its process term, expanded through :func:`repro.csp.semantics.
  transitions` when the search first asks.  SOS leaves never sit inside a
  synthesised spine: synchronisation and hiding resolve their id sets from
  leaf alphabets known when the spine is built, and an SOS leaf has none.

It serves two uses:

* on the fly (``[T=`` / ``[F=``): the refinement search drives
  :meth:`ProductLTS.successors_span` and states unfold on demand, so the
  search can exit on the first violation without building the rest;
* materialised (eager compilation of the first two shapes, hence ``[FD=``
  and property checks): :meth:`ProductLTS.materialise` expands every state
  in id order into a :class:`~repro.csp.kernel.CompactLTS`, whose
  per-state ``terms`` are rebuilt by :meth:`ProductLTS.term_of` only when
  a counterexample asks for one.  The pipeline compiles the third shape
  with ``compile_lts``, which builds the same automaton faster.

The code of a product state is mixed-radix, ``sum(s_k * R_k)`` over the
leaf states ``s_k`` in spine order, where ``R_k`` is the product of the
state counts of the leaves before leaf ``k``.  Moves are synthesised
as *offsets*: each node returns ``(event id, offset)`` pairs, and a
move's successor is ``code + offset``.  A compiled leaf caches, per
kernel state ``s``, the offset ``(t - s) * R_k`` of each edge to ``t``; a
synchronised pair adds the offsets of its two halves, which own disjoint
digits.  So most of the synthesis is list lookups, and a move costs one
addition and one int-keyed index probe.  The leaf states behind a code
are decoded with ``divmod`` only when a counterexample or a test asks
(:meth:`ProductLTS.component_states`, :meth:`ProductLTS.term_of`).  Python
ints have no width limit: a spine whose code passes ``2**63`` still
works, with slower arithmetic.  An SOS leaf numbers its terms in
discovery order, and that number is its code.

Events the pipeline's table has not interned yet (renaming targets, events
of a leaf compiled under another pipeline's table, events an SOS leaf
meets) are numbered when the first edge carrying them is emitted, as
``compile_lts`` does, so every path leaves the table in the same state.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..csp.events import AlphabetTable, Event, TAU_ID, TICK_ID
from ..csp.kernel import CompactLTS
from ..csp.lts import (
    DEFAULT_STATE_LIMIT,
    StateId,
    StateSpaceLimitExceeded,
    TermNestingExceeded,
)
from ..csp.process import (
    CompiledProcess,
    Environment,
    GenParallel,
    Hiding,
    Interleave,
    Process,
    Renaming,
)
from ..csp.semantics import transitions as sos_transitions

#: one synthesised move: (event id, offset added to the product code)
_Move = Tuple[int, int]

#: ids from here up stand for events the table had not interned when the
#: spine was built; each is swapped for its table id as its edge is emitted
_DEFERRED = 1 << 62

#: a subtree whose leaves span at most this many state combinations keeps
#: its move lists per combination: so small a subtree recurs in many
#: product states, and its memo stays small (it is a list of that length)
_MEMO_STATES = 4096


class _Ids:
    """Event ids for one product, deferring events new to the table.

    An event the table already knows gets its table id.  Any other event a
    leaf can produce gets a placeholder at or above ``_DEFERRED``, so that
    interning happens in edge-emission order rather than build (or, for an
    SOS leaf, expansion) order.
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
    pipeline's id space.  ``radix`` is the leaf's digit weight in the
    product code.  Each kernel state's move list is built once.
    """

    __slots__ = ("radix", "size", "lts", "remap", "alphabet", "_moves")

    def __init__(self, radix: int, lts, remap: Optional[Dict[int, int]]) -> None:
        self.radix = radix
        self.size: int = lts.state_count
        self.lts = lts
        self.remap = remap
        _offsets, events, _targets = lts.csr_arrays()
        #: every id a move of this leaf can carry
        self.alphabet: FrozenSet[int] = frozenset(
            set(events) if remap is None else map(remap.__getitem__, set(events))
        )
        self._moves: List[Optional[List[_Move]]] = [None] * self.size

    def moves(self, code: int) -> List[_Move]:
        state = code // self.radix % self.size
        moves = self._moves[state]
        if moves is None:
            events, targets, lo, hi = self.lts.successors_span(state)
            radix = self.radix
            remap = self.remap
            moves = [
                (
                    events[i] if remap is None else remap[events[i]],
                    (targets[i] - state) * radix,
                )
                for i in range(lo, hi)
            ]
            self._moves[state] = moves
        return moves


class _Sos:
    """A whole term as one leaf, expanded through the SOS on demand.

    The leaf numbers its terms in discovery order, and a term's number is
    the product code, so the product index numbers terms as
    ``compile_lts`` does.  Each state is expanded once (the product's root
    is never memoised), so its moves are not kept.
    """

    __slots__ = ("env", "ids", "terms", "_numbers")

    def __init__(self, env: Environment, ids: _Ids, initial: Process) -> None:
        self.env = env
        self.ids = ids
        #: the terms met so far, in discovery order
        self.terms: List[Process] = [initial]
        self._numbers: Dict[Process, int] = {initial: 0}

    def moves(self, code: int) -> List[_Move]:
        intern = self.ids.intern
        try:
            steps = sos_transitions(self.terms[code], self.env)
        except RecursionError:
            raise TermNestingExceeded() from None
        terms = self.terms
        numbers = self._numbers
        moves = []
        for event, successor in steps:
            number = numbers.get(successor)
            if number is None:
                number = numbers[successor] = len(terms)
                terms.append(successor)
            moves.append((intern(event), number - code))
        return moves


class _Par:
    """Generalised parallel (interleave = empty sync set).

    ``sync`` holds every id that must synchronise: the sync set's ids plus
    tick, never tau.  The subtrees own disjoint digits of the product code,
    so a synchronised pair's offset is the sum of its two halves'.
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

    def moves(self, code: int) -> List[_Move]:
        left = self.left.moves(code)
        right = self.right.moves(code)
        if self.independent:
            return left + right
        sync = self.sync
        result = [move for move in left if move[0] not in sync]
        result += [move for move in right if move[0] not in sync]
        for eid, left_offset in left:
            if eid in sync:
                for right_eid, right_offset in right:
                    if right_eid == eid:
                        result.append((eid, left_offset + right_offset))
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

    def moves(self, code: int) -> List[_Move]:
        hidden = self.hidden_ids
        return [
            (TAU_ID, offset) if eid in hidden else (eid, offset)
            for eid, offset in self.child.moves(code)
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

    def moves(self, code: int) -> List[_Move]:
        id_map = self.id_map
        return [
            (id_map.get(eid, eid), offset) for eid, offset in self.child.moves(code)
        ]


class _Memo:
    """A small subtree's moves, kept per state of the leaves it spans.

    The subtree owns ``span`` consecutive digits' worth of the product
    code, from weight ``radix`` up, so its moves depend on
    ``code // radix % span`` only: offsets are relative, so one move list
    serves every product state that agrees on those digits.
    """

    __slots__ = ("child", "radix", "span", "alphabet", "_moves")

    def __init__(self, child, radix: int, span: int) -> None:
        self.child = child
        self.radix = radix
        self.span = span
        self.alphabet: FrozenSet[int] = child.alphabet
        self._moves: List[Optional[List[_Move]]] = [None] * span

    def moves(self, code: int) -> List[_Move]:
        key = code // self.radix % self.span
        moves = self._moves[key]
        if moves is None:
            moves = self._moves[key] = self.child.moves(code)
        return moves


class ProductLTS:
    """The product of a term's leaves (span protocol).

    Drives :class:`~repro.fdr.refine._ProductSearch` through ``initial`` /
    ``successors_span`` / ``table`` / ``term_of``, with
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
        ids: _Ids,
        max_states: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        # admitting the initial state counts against the budget, as in
        # compile_lts
        if max_states < 1:
            raise StateSpaceLimitExceeded(max_states)
        self.table = ids.table
        self.max_states = max_states
        self.initial: StateId = 0
        #: True when the whole term is one SOS leaf: nothing is synthesised
        self.sos = isinstance(node, _Sos)
        self._template = template
        self._node = node
        self._kernels = kernels
        self._ids = ids
        #: the leaf state counts in spine order: the radices of the code
        self._sizes: Tuple[int, ...] = tuple(lts.state_count for lts in kernels)
        #: an SOS leaf's terms by number (its numbers are the codes)
        self._sos_terms: Optional[List[Process]] = node.terms if self.sos else None
        start = 0 if self.sos else _encode(_initial_tuple(template), self._sizes)
        #: state id -> product code, and back
        self._codes: List[int] = [start]
        self._index: Optional[Dict[int, StateId]] = {start: 0}
        self._events: array = array("q")
        self._targets: array = array("q")
        self._bounds: List[Optional[Tuple[int, int]]] = [None]

    @classmethod
    def for_term(
        cls,
        term: Process,
        table: AlphabetTable,
        max_states: int = DEFAULT_STATE_LIMIT,
        env: Optional[Environment] = None,
    ) -> "ProductLTS":
        """The product of *term* in *table*'s id space, expanded under *env*.

        A composition spine whose leaves all compiled is synthesised, and a
        bare compiled leaf is one kernel leaf; any other term is one SOS
        leaf (see the module docstring).
        """
        kernels: List = []
        ids = _Ids(table)
        node = _build(term, kernels, ids)
        if node is None:
            kernels = []
            ids = _Ids(table)
            node = _Sos(env if env is not None else Environment(), ids, term)
        return cls(term, node, kernels, ids, max_states)

    # -- the automaton protocol ----------------------------------------------

    @property
    def state_count(self) -> int:
        """States discovered so far (grows as the search explores)."""
        return len(self._codes)

    def component_states(self, state: StateId) -> Tuple:
        """The leaf states behind one product state, decoded from its code."""
        code = self._codes[state]
        if self.sos:
            return (self._sos_terms[code],)
        leaf_states = []
        for size in self._sizes:
            code, leaf_state = divmod(code, size)
            leaf_states.append(leaf_state)
        return tuple(leaf_states)

    def term_of(self, state: StateId) -> Process:
        """The process term this product state corresponds to.

        Byte-compatible with the term the SOS path would have evolved: an
        SOS leaf's state is that term, and a synthesised spine is rebuilt
        unchanged around fresh ``CompiledProcess`` leaves at the decoded
        leaf states, which is exactly what the parallel/hiding/renaming
        rules produce.
        """
        tup = self.component_states(state)
        if self.sos:
            return tup[0]
        return _with_leaf_states(self._template, iter(tup))

    def successors_span(self, state: StateId) -> Tuple[array, array, int, int]:
        """The state's edge range in the shared flat arrays (expands once)."""
        bounds = self._bounds[state]
        if bounds is None:
            start = len(self._events)
            self._emit(state)
            bounds = (start, len(self._events))
            self._bounds.extend([None] * (len(self._codes) - len(self._bounds)))
            self._bounds[state] = bounds
        return self._events, self._targets, bounds[0], bounds[1]

    def materialise(self) -> CompactLTS:
        """Expand every reachable state, in id order, into a CompactLTS.

        The edge buffers fill state by state, so they are the CSR arrays
        as they stand.  The state index and the synthesis nodes are
        dropped afterwards; the automaton's ``terms`` keep the state codes
        alive to rebuild the term behind a state on demand.  Call on a
        product nothing has explored.
        """
        events = self._events
        offsets = array("q", [0])
        state = 0
        while state < len(self._codes):
            self._emit(state)
            offsets.append(len(events))
            state += 1
        self._index = None
        self._node = None
        self._bounds = []
        return CompactLTS(
            self.table,
            self.initial,
            offsets,
            events,
            self._targets,
            _SpineTerms(self),
        )

    def _emit(self, state: StateId) -> None:
        """Append the state's edges to the buffers, numbering new states."""
        code = self._codes[state]
        moves = self._node.moves(code)
        index = self._index
        codes = self._codes
        max_states = self.max_states
        events, targets = self._events, self._targets
        start = len(events)
        try:
            for eid, offset in moves:
                successor = code + offset
                target = index.get(successor)
                if target is None:
                    if len(codes) >= max_states:
                        raise StateSpaceLimitExceeded(max_states)
                    target = index[successor] = len(codes)
                    codes.append(successor)
                events.append(eid)
                targets.append(target)
        finally:
            if self._ids.deferred:
                self._resolve(start)

    def _resolve(self, start: int) -> None:
        """Swap the placeholder ids emitted from *start* for table ids."""
        events = self._events
        deferred = self._ids.deferred
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

    def __repr__(self) -> str:
        return "ProductLTS({} components, {} states discovered)".format(
            len(self._kernels), len(self._codes)
        )


class _SpineTerms(Sequence):
    """The ``terms`` of a materialised product, rebuilt on demand.

    The automaton holds one product code per state instead of one process
    term; counterexample provenance asks for the few it needs.
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
    _collect_leaf_states(term, order)
    return tuple(order)


def _collect_leaf_states(term: Process, order: List[StateId]) -> None:
    if isinstance(term, CompiledProcess):
        order.append(term.state)
    elif isinstance(term, (GenParallel, Interleave)):
        _collect_leaf_states(term.left, order)
        _collect_leaf_states(term.right, order)
    else:
        _collect_leaf_states(term.process, order)


def _with_leaf_states(term: Process, states: Iterator[StateId]) -> Process:
    """The spine *term* with its compiled leaves at the next *states*, in leaf order."""
    if isinstance(term, CompiledProcess):
        state = next(states)
        if term.state == state:
            return term
        return CompiledProcess(term.automaton, state)
    if isinstance(term, GenParallel):
        return GenParallel(
            _with_leaf_states(term.left, states),
            _with_leaf_states(term.right, states),
            term.sync,
        )
    if isinstance(term, Interleave):
        return Interleave(
            _with_leaf_states(term.left, states), _with_leaf_states(term.right, states)
        )
    if isinstance(term, Hiding):
        return Hiding(_with_leaf_states(term.process, states), term.hidden)
    return Renaming(_with_leaf_states(term.process, states), dict(term.mapping))


def _encode(leaf_states: Tuple[StateId, ...], sizes: Tuple[int, ...]) -> int:
    """The product code of one state per leaf (the inverse of the decode)."""
    code = 0
    radix = 1
    for leaf_state, size in zip(leaf_states, sizes):
        code += leaf_state * radix
        radix *= size
    return code


def _radix(kernels: List) -> int:
    """The digit weight of the next leaf: the product of the sizes so far."""
    radix = 1
    for lts in kernels:
        radix *= lts.state_count
    return radix


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
    span = 1
    for lts in kernels[lo:]:
        span *= lts.state_count
    if span > _MEMO_STATES:
        return node
    return _Memo(node, _radix(kernels[:lo]), span)


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
        leaf = _Leaf(_radix(kernels), lts, remap)
        kernels.append(lts)
        return leaf
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
