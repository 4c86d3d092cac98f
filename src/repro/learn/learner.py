"""The L* loop: close the table, hypothesise, refine on counterexamples.

The learner is Angluin's L* with Rivest-Schapire counterexample
processing: rather than adding every prefix of a counterexample to the
access set, a binary search over the counterexample's decompositions
finds the *one* suffix whose addition to ``E`` splits a hypothesis state,
keeping membership-query counts logarithmic in counterexample length.

Divergence detection is the learner's differential contribution: when an
equivalence counterexample's true classification (one membership query)
already agrees with the hypothesis, the teacher's reference -- not the
hypothesis -- is wrong, and learning raises
:class:`~repro.learn.teacher.DivergenceError` carrying the witness.
Since hypothesis rows are always membership-consistent, every processed
counterexample either adds a state or proves divergence, so the loop
terminates within ``max_rounds`` for any regular system.

The result freezes into a :class:`~repro.csp.kernel.CompactLTS` plus a
canonical fingerprint (BFS-renumbered, so it identifies the automaton up
to isomorphism regardless of the exploration path that built it), and
:meth:`LearnResult.to_process` re-expresses the automaton as mutually
recursive process equations -- the bridge into ``CheckSpec`` documents,
``cspbatch``/``cspserve`` and the result cache, which treat a learned
model like any other process.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Tuple

from ..csp.events import Event
from ..csp.process import Process, ProcessRef, external_choice, prefix as prefix_of
from ..obs.trace import NULL_TRACER, Tracer
from .sul import LearnError, Word
from .table import Hypothesis, MembershipCache, ObservationTable
from .teacher import BoundedTeacher, Counterexample, DivergenceError


class LearnStats:
    """Query and convergence counters for one learning run."""

    __slots__ = (
        "membership_queries",
        "sul_runs",
        "equivalence_queries",
        "rounds",
        "states",
        "transitions",
        "counterexample_lengths",
    )

    def __init__(self) -> None:
        self.membership_queries = 0
        self.sul_runs = 0
        self.equivalence_queries = 0
        self.rounds = 0
        self.states = 0
        self.transitions = 0
        self.counterexample_lengths: List[int] = []

    def to_doc(self) -> Dict[str, object]:
        return {
            "membership_queries": self.membership_queries,
            "sul_runs": self.sul_runs,
            "equivalence_queries": self.equivalence_queries,
            "rounds": self.rounds,
            "states": self.states,
            "transitions": self.transitions,
            "counterexample_lengths": list(self.counterexample_lengths),
        }

    def __repr__(self) -> str:
        return (
            "LearnStats(states={}, rounds={}, mq={}, runs={}, eq={})".format(
                self.states,
                self.rounds,
                self.membership_queries,
                self.sul_runs,
                self.equivalence_queries,
            )
        )


class LearnResult:
    """A converged learning run: the automaton plus its provenance."""

    def __init__(self, hypothesis: Hypothesis, stats: LearnStats) -> None:
        self.hypothesis = hypothesis
        self.stats = stats

    @property
    def lts(self):
        """The learned automaton as a :class:`~repro.csp.kernel.CompactLTS`."""
        return self.hypothesis.lts

    @property
    def state_count(self) -> int:
        return self.hypothesis.state_count

    @property
    def transition_count(self) -> int:
        return self.hypothesis.transition_count

    @property
    def alphabet(self) -> Tuple[Event, ...]:
        events = set()
        for edges in self.hypothesis.delta:
            events.update(edges)
        return tuple(sorted(events, key=str))

    # -- canonical form ------------------------------------------------------

    def canonical_transitions(self) -> List[Tuple[int, str, int]]:
        """Edges under BFS renumbering from the initial state.

        The learned automaton is the minimal deterministic acceptor of the
        learned language, unique up to isomorphism; BFS order over
        string-sorted events picks one canonical numbering, so two runs
        that learned the same language -- whatever their query order or
        state-discovery path -- canonicalise identically.
        """
        renumber = {0: 0}
        order = [0]
        cursor = 0
        while cursor < len(order):
            state = order[cursor]
            cursor += 1
            edges = self.hypothesis.delta[state]
            for event in sorted(edges, key=str):
                target = edges[event]
                if target not in renumber:
                    renumber[target] = len(order)
                    order.append(target)
        transitions = []
        for state in order:
            for event in sorted(self.hypothesis.delta[state], key=str):
                transitions.append(
                    (
                        renumber[state],
                        str(event),
                        renumber[self.hypothesis.delta[state][event]],
                    )
                )
        return transitions

    def canonical_lines(self) -> List[str]:
        lines = ["states {}".format(self.state_count)]
        lines.extend(
            "{} --{}--> {}".format(source, label, target)
            for source, label, target in self.canonical_transitions()
        )
        return lines

    def fingerprint(self) -> str:
        digest = hashlib.sha256(
            "\n".join(self.canonical_lines()).encode("utf-8")
        ).hexdigest()
        return "sha256:" + digest

    def to_doc(self) -> Dict[str, object]:
        return {
            "states": self.state_count,
            "transitions": [
                list(edge) for edge in self.canonical_transitions()
            ],
            "alphabet": [str(event) for event in self.alphabet],
            "fingerprint": self.fingerprint(),
            "stats": self.stats.to_doc(),
        }

    # -- the bridge into the process world -----------------------------------

    def to_process(
        self, name: str = "LEARNED"
    ) -> Tuple[ProcessRef, Dict[str, Process]]:
        """The automaton as mutually recursive process equations.

        Returns ``(entry, bindings)``: one equation per canonical state,
        each an external choice of event-prefixed references (``STOP``
        for a state with no successors).  The bindings drop straight into
        a :class:`~repro.exec.spec.CheckSpec`, so a learned model flows
        through the batch executor, the daemon and the result cache like
        any extracted one.
        """
        transitions = self.canonical_transitions()
        states = {0}
        for source, _label, target in transitions:
            states.add(source)
            states.add(target)
        by_event: Dict[int, List[Tuple[str, int]]] = {s: [] for s in states}
        for source, label, target in transitions:
            by_event[source].append((label, target))
        event_of: Dict[str, Event] = {
            str(event): event for event in self.alphabet
        }
        bindings: Dict[str, Process] = {}
        for state in sorted(states):
            branches = [
                prefix_of(
                    event_of[label],
                    ProcessRef("{}_{}".format(name, target)),
                )
                for label, target in sorted(by_event[state])
            ]
            bindings["{}_{}".format(name, state)] = external_choice(*branches)
        return ProcessRef("{}_0".format(name)), bindings

    def __repr__(self) -> str:
        return "LearnResult(states={}, fingerprint={})".format(
            self.state_count, self.fingerprint()[:18] + "..."
        )


def _distinguishing_suffix(
    hypothesis: Hypothesis,
    oracle: MembershipCache,
    counterexample: Counterexample,
    real: bool,
) -> Word:
    """Rivest-Schapire: the one suffix that splits a hypothesis state.

    ``alpha(i)`` replaces the counterexample's length-``i`` prefix by the
    access string of the hypothesis state it reaches (the dead state's
    access answers ``False`` without a query -- the language is
    prefix-closed).  ``alpha(0)`` is the true classification and
    ``alpha(n)`` the hypothesis's, so they differ; binary search finds a
    flip ``alpha(i) != alpha(i+1)`` and the suffix ``w[i+1:]``
    distinguishes the rows on either side of it.
    """
    word = counterexample.word
    path, died = hypothesis.run(word)

    def alpha(cut: int) -> bool:
        if died is not None and cut > died:
            return False  # the implicit reject state absorbs
        return oracle.ask(hypothesis.access[path[cut]] + word[cut:])

    low, high = 0, len(word)
    if alpha(low) == alpha(high):
        raise AssertionError(
            "counterexample {!r} does not distinguish (real={})".format(
                [str(event) for event in word], real
            )
        )
    while high - low > 1:
        middle = (low + high) // 2
        if alpha(middle) == alpha(low):
            low = middle
        else:
            high = middle
    return word[low + 1 :]


def learn(
    sul,
    *,
    teacher=None,
    max_rounds: int = 64,
    depth: int = 8,
    seed: Optional[int] = None,
    obs: Tracer = NULL_TRACER,
) -> LearnResult:
    """Learn *sul*'s language; the converged automaton plus statistics.

    *sul* provides ``alphabet`` and ``membership(word)`` (see
    :mod:`repro.learn.sul`).  *teacher* answers equivalence queries; when
    omitted, a :class:`~repro.learn.teacher.BoundedTeacher` of the given
    *depth* tests the hypothesis against the system itself.  *seed*
    shuffles the order membership queries are issued in (never the
    result); *max_rounds* bounds the refinement loop.

    Raises :class:`~repro.learn.teacher.DivergenceError` when a reference
    teacher's automaton contradicts the system under learning, and
    :class:`~repro.learn.sul.LearnError` when the loop fails to converge.
    """
    oracle = MembershipCache(sul.membership)
    alphabet = tuple(sul.alphabet)
    rng = random.Random(seed) if seed is not None else None
    table = ObservationTable(alphabet, oracle)
    if teacher is None:
        teacher = BoundedTeacher(oracle, alphabet, depth=depth)
    stats = LearnStats()
    metrics = obs.metrics
    with obs.span("learn", alphabet=len(alphabet)):
        hypothesis = None
        for _round in range(max_rounds):
            stats.rounds += 1
            with obs.span("learn.close"):
                table.close(rng)
                hypothesis = table.hypothesis()
            with obs.span("learn.equivalence", states=hypothesis.state_count):
                stats.equivalence_queries += 1
                found = teacher.counterexample(hypothesis)
            if found is None:
                break
            stats.counterexample_lengths.append(len(found.word))
            real = oracle.ask(found.word)
            if real == hypothesis.accepts(found.word):
                # the hypothesis already agrees with the system: the
                # *reference* is what disagrees -- surface the witness
                raise DivergenceError(found.word, found.reference_admits)
            suffix = _distinguishing_suffix(hypothesis, oracle, found, real)
            table.add_suffix(suffix)
        else:
            raise LearnError(
                "no convergence within {} rounds ({} states so far)".format(
                    max_rounds,
                    hypothesis.state_count if hypothesis else 0,
                )
            )
    stats.membership_queries = oracle.membership_queries
    stats.sul_runs = oracle.sul_runs
    stats.states = hypothesis.state_count
    stats.transitions = hypothesis.transition_count
    if metrics is not None:
        metrics.counter("learn.membership_queries").inc(
            stats.membership_queries
        )
        metrics.counter("learn.sul_runs").inc(stats.sul_runs)
        metrics.counter("learn.equivalence_queries").inc(
            stats.equivalence_queries
        )
        metrics.counter("learn.rounds").inc(stats.rounds)
    return LearnResult(hypothesis, stats)
