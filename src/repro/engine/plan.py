"""The compilation plan: compress components before composing them.

The paper's scalability argument (Sec. VII-A) leans on FDR's compression
functions applied to *components before composition*.  This module is that
strategy as a compiler layer: :class:`CompilationPlan` decomposes a term
along its composition spine (parallel / interleave / hiding / renaming
boundaries, unwinding named references on the way), compiles and compresses
each component independently through the pipeline's cache, and rebuilds the
term with :class:`~repro.csp.process.CompiledProcess` leaves standing in
for the originals.  Exploring the rebuilt term -- eagerly or on the fly --
then walks the product of the *minimised* component automata, so a
``SYSTEM = VMG [|..|] ECU`` check never materialises the uncompressed
product.

Soundness: every default pass is an equivalence in the model being checked
(strong bisimulation and the structural reductions are FD-congruences, and
CSP operators are compositional for these equivalences), so substituting a
compressed component for the original preserves the composed verdict.  The
plan filters the configured passes by the check's model, so the trace-only
``normal`` pass never leaks into failures or divergence checks.

Provenance: each compressed automaton keeps a
:class:`~repro.passes.base.StateProvenance` back to its uncompressed
component LTS, and :func:`component_provenance` reads the compressed leaves
out of a violating implementation term, so a counterexample found on the
compressed product names the original component states it corresponds to.

Degradation: a component that cannot be compiled in isolation (state budget
exceeded, unguarded recursion, an unbound reference) is left in its
original SOS form -- the check then behaves exactly as it would without the
plan for that component.
"""

from __future__ import annotations

import hashlib
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..csp.events import Event
from ..csp.lts import LTS, StateId, StateSpaceLimitExceeded
from ..csp.process import (
    CompiledProcess,
    Environment,
    GenParallel,
    Hiding,
    Interleave,
    Process,
    ProcessRef,
    Renaming,
)
from ..csp.semantics import UnguardedRecursionError
from ..passes.base import (
    LtsPass,
    PassStats,
    StateProvenance,
    apply_passes,
    passes_for_model,
)
from .cache import structural_key

#: the operators the plan decomposes through -- the composition spine
_COMPOSITION = (GenParallel, Interleave, Hiding, Renaming)

#: failures that make a component unusable in isolation; the plan falls
#: back to the original term rather than failing a check the uncompressed
#: path could still decide
_COMPONENT_FAILURES = (
    StateSpaceLimitExceeded,
    UnguardedRecursionError,
    KeyError,
    RecursionError,
)


class CompiledAutomaton:
    """The compressed component handle behind ``CompiledProcess`` leaves.

    Satisfies the duck-typed protocol :class:`~repro.csp.process.
    CompiledProcess` expects: a stable ``token`` identifying the artefact
    (structural key plus pass config, so equal components compressed the
    same way intern to the same leaves) and ``transitions_from`` yielding
    ``(Event, Process)`` moves.  Also carries the provenance back to the
    uncompressed component LTS for counterexample mapping.
    """

    __slots__ = ("label", "token", "lts", "provenance", "stats", "source", "_moves")

    def __init__(
        self,
        label: str,
        token: str,
        lts: LTS,
        provenance: StateProvenance,
        stats: Tuple[PassStats, ...],
        source: Optional[LTS],
    ) -> None:
        self.label = label
        self.token = token
        self.lts = lts
        self.provenance = provenance
        self.stats = stats
        self.source = source
        #: per-state memo of decoded (Event, CompiledProcess) moves -- the
        #: SOS hits these lists on every product expansion
        self._moves: List[Optional[List[Tuple[Event, Process]]]] = (
            [None] * lts.state_count
        )

    @property
    def state_count(self) -> int:
        return self.lts.state_count

    def initial(self) -> CompiledProcess:
        return CompiledProcess(self, self.lts.initial)

    def transitions_from(self, state: StateId) -> List[Tuple[Event, Process]]:
        moves = self._moves[state]
        if moves is None:
            event_of = self.lts.table.event_of
            moves = [
                (event_of(eid), CompiledProcess(self, target))
                for eid, target in self.lts.successors_ids(state)
            ]
            self._moves[state] = moves
        return moves

    def original_state(self, state: StateId) -> StateId:
        """The uncompressed component state a compressed state represents."""
        return self.provenance.original_of(state)

    def original_term(self, state: StateId) -> Optional[Process]:
        """The source process term of the represented state, if recorded."""
        if self.source is None:
            return None
        return self.source.terms[self.provenance.original_of(state)]

    def __repr__(self) -> str:
        return "CompiledAutomaton({!r}, {} states)".format(
            self.label, self.lts.state_count
        )


class ComponentProvenance(NamedTuple):
    """Where one compressed component stood when a violation was found."""

    label: str
    compressed_state: StateId
    original_state: StateId
    original_term: Optional[Process]

    def describe(self) -> str:
        location = "{} state {} (original state {}".format(
            self.label, self.compressed_state, self.original_state
        )
        if self.original_term is not None:
            location += ", term {!r}".format(self.original_term)
        return location + ")"


class PreparedTerm(NamedTuple):
    """A term rebuilt for checking: compressed leaves plus their stats."""

    term: Process
    pass_stats: Tuple[PassStats, ...]
    components: Tuple[CompiledAutomaton, ...]

    @property
    def compressed(self) -> bool:
        return bool(self.components)


def component_provenance(term: Process) -> Tuple[ComponentProvenance, ...]:
    """The compressed-component states embedded in *term*, mapped back.

    Walks the term for :class:`CompiledProcess` leaves (a violating
    implementation state of a composed check holds one per compressed
    component) and resolves each through its automaton's provenance.
    """
    found: List[ComponentProvenance] = []
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, CompiledProcess):
            automaton = current.automaton
            entry = ComponentProvenance(
                getattr(automaton, "label", "compiled"),
                current.state,
                automaton.original_state(current.state),
                automaton.original_term(current.state),
            )
            if entry not in seen:
                seen.add(entry)
                found.append(entry)
            continue
        stack.extend(
            item
            for item in reversed(current._key())
            if isinstance(item, Process)
        )
    return tuple(found)


class CompilationPlan:
    """Decompose along composition boundaries, compress each component.

    Holds nothing but its pipeline and passes, and
    :attr:`VerificationPipeline.plan` builds one on each access, so no
    pipeline refers to a plan that refers back to it.
    """

    def __init__(self, pipeline, passes: Sequence[LtsPass]) -> None:
        self.pipeline = pipeline
        self.passes: Tuple[LtsPass, ...] = tuple(passes)

    def prepare(self, term: Process, model: str = "FD") -> PreparedTerm:
        """Rebuild *term* with compressed component leaves.

        *model* is the semantic model of the check about to run; passes that
        are not equivalences in that model are skipped.  Terms without a
        composition boundary are returned untouched -- compression buys
        nothing there, and the SOS path preserves every existing behaviour
        (lazy early exit included) exactly.  Components compile under the
        pipeline's state budget.
        """
        passes = passes_for_model(self.passes, model)
        if not passes or not self._has_boundary(term):
            return PreparedTerm(term, (), ())
        stats: List[PassStats] = []
        components: List[CompiledAutomaton] = []
        rebuilt = self._rebuild(term, passes, frozenset(), stats, components)
        return PreparedTerm(rebuilt, tuple(stats), tuple(components))

    # -- decomposition -------------------------------------------------------

    def _has_boundary(self, term: Process) -> bool:
        """Does any composition operator occur in *term* (through refs)?"""
        env: Environment = self.pipeline.env
        seen_refs = set()
        stack = [term]
        while stack:
            current = stack.pop()
            if isinstance(current, _COMPOSITION):
                return True
            if isinstance(current, ProcessRef):
                if current.name in seen_refs or current.name not in env:
                    continue
                seen_refs.add(current.name)
                stack.append(env.resolve(current.name))
                continue
            stack.extend(
                item for item in current._key() if isinstance(item, Process)
            )
        return False

    def _spine_composed(self, term: Process, unwinding: frozenset) -> bool:
        """Is the *top spine* of term a composition (through named refs)?"""
        env: Environment = self.pipeline.env
        while isinstance(term, ProcessRef):
            if term.name in unwinding or term.name not in env:
                return False
            unwinding = unwinding | {term.name}
            term = env.resolve(term.name)
        return isinstance(term, _COMPOSITION)

    def _rebuild(
        self,
        term: Process,
        passes: Tuple[LtsPass, ...],
        unwinding: frozenset,
        stats: List[PassStats],
        components: List[CompiledAutomaton],
    ) -> Process:
        if isinstance(term, ProcessRef):
            # unwind the name (refs unfold without a tau, so substituting
            # the body is semantics-preserving) only when its spine leads to
            # a composition; plain named processes stay leaves
            if self._spine_composed(term, unwinding):
                return self._rebuild(
                    self.pipeline.env.resolve(term.name),
                    passes,
                    unwinding | {term.name},
                    stats,
                    components,
                )
            return self._component(term, passes, stats, components)
        if isinstance(term, GenParallel):
            return GenParallel(
                self._rebuild(term.left, passes, unwinding, stats, components),
                self._rebuild(term.right, passes, unwinding, stats, components),
                term.sync,
            )
        if isinstance(term, Interleave):
            return Interleave(
                self._rebuild(term.left, passes, unwinding, stats, components),
                self._rebuild(term.right, passes, unwinding, stats, components),
            )
        if isinstance(term, Hiding):
            return Hiding(
                self._rebuild(term.process, passes, unwinding, stats, components),
                term.hidden,
            )
        if isinstance(term, Renaming):
            return Renaming(
                self._rebuild(term.process, passes, unwinding, stats, components),
                dict(term.mapping),
            )
        return self._component(term, passes, stats, components)

    # -- component compilation ----------------------------------------------

    def _component(
        self,
        term: Process,
        passes: Tuple[LtsPass, ...],
        stats: List[PassStats],
        components: List[CompiledAutomaton],
    ) -> Process:
        if isinstance(term, CompiledProcess):
            return term
        pipeline = self.pipeline
        key = structural_key(term, pipeline.env)
        pass_names = tuple(p.name for p in passes)
        obs = pipeline.obs
        automaton = pipeline.cache.get_compressed(key, pass_names)
        if automaton is None:
            try:
                source = pipeline.compile(term)
            except _COMPONENT_FAILURES:
                # the component alone is too big (composition may restrict
                # it) or not compilable: keep the SOS leaf, degrade gracefully
                return term
            compressed, provenance, pass_stats = apply_passes(
                source, passes, obs
            )
            if obs.enabled:
                obs.metrics.counter("plan.components_compiled").inc()
            token = hashlib.sha256(
                repr((key, pass_names)).encode("utf-8")
            ).hexdigest()[:16]
            automaton = CompiledAutomaton(
                _label_of(term),
                token,
                compressed,
                provenance,
                pass_stats,
                source,
            )
            pipeline.cache.put_compressed(key, pass_names, automaton)
        stats.extend(automaton.stats)
        components.append(automaton)
        return automaton.initial()


def _label_of(term: Process) -> str:
    """A short human label for a component (ref name or truncated repr)."""
    if isinstance(term, ProcessRef):
        return term.name
    text = repr(term)
    return text if len(text) <= 48 else text[:45] + "..."
