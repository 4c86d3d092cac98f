"""The L* observation table, specialised to prefix-closed safety languages.

The classic table maps ``(S ∪ S·Σ) × E`` to membership bits: ``S`` the
access strings (prefix-closed, starts at ``ε``), ``E`` the distinguishing
suffixes (starts at ``ε``), and a row is one access string's bit vector
over ``E``.  Two specialisations exploit that every language we learn is
*prefix-closed* (the trace set of a reactive system):

* **Dead-row pruning** -- a rejected word has no accepted extensions, so
  any row whose ``ε`` column is 0 is the dead state.  The hypothesis is a
  partial (safety) automaton over the accepting rows only, which is
  exactly the :class:`~repro.csp.kernel.CompactLTS` shape the rest of
  the toolchain consumes; no explicit reject state is ever built.
* **Prefix pruning of queries** -- ``MQ(u) = 0`` forces ``MQ(u·v) = 0``,
  so the membership cache answers any extension of a known-rejected word
  without running the simulator.

``S`` keeps the invariant that its rows are pairwise distinct (a new
access string is admitted only when its row is fresh), so the table is
always *consistent* in Angluin's sense and only *closedness* ever needs
repair.  Closedness scans ``S·Σ`` in canonical (insertion x alphabet)
order, which makes hypothesis construction deterministic; the optional
*rng* only shuffles the order in which missing cells are issued to the
membership oracle -- the property tests use it to prove the learned
automaton is invariant to query order.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..csp.events import AlphabetTable, Event
from ..csp.kernel import CompactLTS
from .sul import Word

Row = Tuple[bool, ...]


class MembershipCache:
    """Memoised membership with prefix-closed pruning and query counters.

    *membership_queries* counts every question the learner logically asked;
    *sul_runs* only the ones that reached the system under learning (cache
    misses whose prefixes were not already known rejected).
    """

    def __init__(self, membership: Callable[[Word], bool]) -> None:
        self._membership = membership
        self._cache: Dict[Word, bool] = {(): True}
        self.membership_queries = 0
        self.sul_runs = 0

    def ask(self, word: Word) -> bool:
        self.membership_queries += 1
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        # longest known prefix: a rejected one settles the query for free
        for cut in range(len(word) - 1, -1, -1):
            known = self._cache.get(word[:cut])
            if known is None:
                continue
            if not known:
                self._cache[word] = False
                return False
            break
        self.sul_runs += 1
        answer = bool(self._membership(word))
        self._cache[word] = answer
        if not answer:
            return False
        # membership is prefix-closed: an accepted word accepts its prefixes
        for cut in range(len(word)):
            self._cache.setdefault(word[:cut], True)
        return True

    def known(self, word: Word) -> Optional[bool]:
        return self._cache.get(word)

    def __len__(self) -> int:
        return len(self._cache)


class Hypothesis:
    """One closed table's automaton: a deterministic safety acceptor.

    *access* gives each state's access string (state 0 is ``ε``); *delta*
    the partial transition function.  :attr:`lts` is the same automaton as
    a :class:`~repro.csp.kernel.CompactLTS`, ready for the refinement
    engine and the batch/cache plumbing.
    """

    def __init__(
        self,
        access: Tuple[Word, ...],
        delta: Tuple[Dict[Event, int], ...],
        table,
    ) -> None:
        self.access = access
        self.delta = delta
        table = table if table is not None else AlphabetTable()
        intern = table.intern
        self.lts = CompactLTS.from_edges(
            table,
            0,
            [
                [(intern(event), edges[event]) for event in sorted(edges, key=str)]
                for edges in delta
            ],
        )

    @property
    def state_count(self) -> int:
        return len(self.access)

    @property
    def transition_count(self) -> int:
        return sum(len(edges) for edges in self.delta)

    def run(self, word: Word) -> Tuple[List[int], Optional[int]]:
        """The state path of *word*; second item is the index it died at."""
        path = [0]
        for index, event in enumerate(word):
            target = self.delta[path[-1]].get(event)
            if target is None:
                return path, index
            path.append(target)
        return path, None

    def accepts(self, word: Word) -> bool:
        _path, died = self.run(word)
        return died is None


class ObservationTable:
    """The reduced observation table driving the learner."""

    def __init__(
        self,
        alphabet: Tuple[Event, ...],
        oracle: MembershipCache,
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not alphabet:
            raise ValueError("cannot learn over an empty alphabet")
        self.alphabet = tuple(alphabet)
        self.oracle = oracle
        self.access: List[Word] = [()]
        self.suffixes: List[Word] = [()]
        self._lts_table = None

    # -- rows ----------------------------------------------------------------

    def _fill(self, words: List[Word]) -> None:
        """Resolve every missing cell of *words* x ``E`` against the oracle."""
        cells = [
            prefix + suffix
            for prefix in words
            for suffix in self.suffixes
            if self.oracle.known(prefix + suffix) is None
        ]
        for cell in cells:
            self.oracle.ask(cell)

    def row(self, prefix: Word) -> Row:
        return tuple(
            self.oracle.ask(prefix + suffix) for suffix in self.suffixes
        )

    def add_suffix(self, suffix: Word) -> bool:
        """Admit a distinguishing suffix from counterexample analysis."""
        if suffix in self.suffixes:
            return False
        self.suffixes.append(suffix)
        return True

    # -- closedness ----------------------------------------------------------

    def close(self, rng: Optional[random.Random] = None) -> None:
        """Repair closedness: every accepting one-step row matches ``S``.

        The scan order (``S`` insertion order x canonical alphabet order)
        fixes which unclosed row is promoted first, so the resulting state
        numbering is deterministic.  *rng*, when given, shuffles only the
        order membership queries are *issued* in -- the cells themselves,
        and therefore the table contents, are order-independent.
        """
        while True:
            frontier = [
                access + (symbol,)
                for access in self.access
                for symbol in self.alphabet
            ]
            pending = self.access + frontier
            if rng is not None:
                cells = [
                    prefix + suffix
                    for prefix in pending
                    for suffix in self.suffixes
                    if self.oracle.known(prefix + suffix) is None
                ]
                rng.shuffle(cells)
                for cell in cells:
                    self.oracle.ask(cell)
            else:
                self._fill(pending)
            known = {self.row(access) for access in self.access}
            promoted = False
            for candidate in frontier:
                if not self.oracle.ask(candidate):
                    continue  # dead row: the implicit reject state
                row = self.row(candidate)
                if row not in known:
                    self.access.append(candidate)
                    promoted = True
                    break
            if not promoted:
                return

    # -- the hypothesis ------------------------------------------------------

    def hypothesis(self, lts_table=None) -> Hypothesis:
        """The closed table's automaton (call :meth:`close` first)."""
        rows: Dict[Row, int] = {}
        for index, access in enumerate(self.access):
            row = self.row(access)
            if row in rows:
                raise AssertionError(
                    "duplicate access rows {!r} and {!r}".format(
                        self.access[rows[row]], access
                    )
                )
            rows[row] = index
        delta: Tuple[Dict[Event, int], ...] = tuple(
            {} for _ in self.access
        )
        for index, access in enumerate(self.access):
            for symbol in self.alphabet:
                successor = access + (symbol,)
                if not self.oracle.ask(successor):
                    continue
                target = rows.get(self.row(successor))
                if target is None:
                    raise AssertionError(
                        "table is not closed at {!r}".format(successor)
                    )
                delta[index][symbol] = target
        return Hypothesis(tuple(self.access), delta, lts_table)
