"""The semantic pass framework: LTS -> LTS rewrites with provenance.

FDR's scalability story (paper Sec. VII-A) is *compress before compose*:
apply compression functions (``sbisim``, ``normal``, diamond ...) to
component state machines before building their product.  This module is the
framework those compressions plug into:

* :class:`LtsPass` -- one rewrite.  A pass declares the strongest semantic
  model it preserves (``"T"`` traces, ``"F"`` stable failures, ``"FD"``
  failures-divergences); the compilation plan only applies passes safe for
  the check being discharged.
* :class:`StateProvenance` -- the map from each output state to the input
  state it represents.  Provenance composes across a pass sequence, so a
  counterexample found on a compressed automaton maps all the way back to
  the states of the automaton the user compiled.
* :class:`PassStats` -- states/transitions before and after plus wall time,
  surfaced in :class:`~repro.fdr.refine.CheckResult` and the ablation
  benchmark JSON.

Every pass output is renumbered by BFS order from the root (see
:func:`bfs_renumber`), so pass results -- and everything keyed on them,
like cached verdicts and ``NormalisedSpec.as_lts()`` -- are byte-stable
across runs and interpreter hash seeds.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..csp.events import TICK_ID
from ..csp.lts import LTS, StateId

#: semantic models, weakest to strongest; a pass preserving "FD" preserves
#: everything below it
_MODEL_RANK = {"T": 0, "F": 1, "FD": 2}


def terminated_states(lts: LTS) -> FrozenSet[StateId]:
    """States that are the target of a tick -- the successfully-terminated
    states.

    They have the same (empty) move set as a deadlocked state, but the
    failures model tells them apart: termination refuses every ordinary
    event yet is *not* a deadlock.  Quotient passes must never conflate
    the two, so they seed their partitions (or guard their merges) with
    this set.
    """
    targets = set()
    for state in range(lts.state_count):
        events, edge_targets, lo, hi = lts.successors_span(state)
        for i in range(lo, hi):
            if events[i] == TICK_ID:
                targets.add(edge_targets[i])
    return frozenset(targets)


class PassStats(NamedTuple):
    """One pass application: size before/after and wall time."""

    name: str
    states_before: int
    transitions_before: int
    states_after: int
    transitions_after: int
    wall_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "pass": self.name,
            "states_before": self.states_before,
            "transitions_before": self.transitions_before,
            "states_after": self.states_after,
            "transitions_after": self.transitions_after,
            "wall_ms": round(self.wall_ms, 3),
        }

    def summary(self) -> str:
        return "{}: {} -> {} states, {} -> {} transitions ({:.2f} ms)".format(
            self.name,
            self.states_before,
            self.states_after,
            self.transitions_before,
            self.transitions_after,
            self.wall_ms,
        )


class StateProvenance:
    """Maps each state of a pass output to the input state it represents.

    For a quotient pass the representative is the BFS-first member of the
    state's equivalence class.  Provenance composes: applying pass B after
    pass A yields ``A.provenance.then(B.provenance)``, mapping B's output
    states directly to A's input states.
    """

    __slots__ = ("new_to_old",)

    def __init__(self, new_to_old: Sequence[StateId]) -> None:
        self.new_to_old: Tuple[StateId, ...] = tuple(new_to_old)

    @classmethod
    def identity(cls, state_count: int) -> "StateProvenance":
        return cls(range(state_count))

    def original_of(self, state: StateId) -> StateId:
        return self.new_to_old[state]

    def then(self, later: "StateProvenance") -> "StateProvenance":
        """The composition: *later*'s output states mapped through self."""
        return StateProvenance(
            self.new_to_old[mid] for mid in later.new_to_old
        )

    def __len__(self) -> int:
        return len(self.new_to_old)

    def __repr__(self) -> str:
        return "StateProvenance({} states)".format(len(self.new_to_old))


class PassResult(NamedTuple):
    """One applied pass: the rewritten LTS, its provenance, its stats."""

    lts: LTS
    provenance: StateProvenance
    stats: PassStats


class LtsPass:
    """Base class for semantic passes.

    Subclasses implement :meth:`rewrite`, returning the new LTS plus the
    new-to-old state map; the framework adds timing, stats, and provenance
    composition.  ``preserves`` names the strongest semantic model the
    rewrite is an equivalence for -- the plan refuses to apply a trace-only
    pass (``normal``) to a failures or failures-divergences check.
    """

    name: str = "pass"
    preserves: str = "FD"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        raise NotImplementedError

    def safe_for(self, model: str) -> bool:
        return _MODEL_RANK[self.preserves] >= _MODEL_RANK[model]

    def apply(self, lts: LTS) -> PassResult:
        started = time.perf_counter()
        rewritten, new_to_old = self.rewrite(lts)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        stats = PassStats(
            self.name,
            lts.state_count,
            lts.transition_count,
            rewritten.state_count,
            rewritten.transition_count,
            elapsed_ms,
        )
        return PassResult(rewritten, StateProvenance(new_to_old), stats)

    def __repr__(self) -> str:
        return "{}({!r})".format(type(self).__name__, self.name)


def apply_passes(
    lts: LTS, passes: Sequence[LtsPass], obs=None
) -> Tuple[LTS, StateProvenance, Tuple[PassStats, ...]]:
    """Run a pass sequence; the result's provenance maps back to *lts*.

    With an enabled tracer as *obs*, each pass runs inside a ``compress``
    span (the pass name as a tag, so all passes aggregate into the single
    ``compress`` profile stage) and the registry's ``compress.*`` counters
    record the cumulative state reduction.
    """
    provenance = StateProvenance.identity(lts.state_count)
    stats: List[PassStats] = []
    current = lts
    tracing = obs is not None and obs.enabled
    for lts_pass in passes:
        if tracing:
            with obs.span(
                "compress", compression=lts_pass.name, states_in=current.state_count
            ) as span:
                result = lts_pass.apply(current)
                span.set_tag("states_out", result.lts.state_count)
        else:
            result = lts_pass.apply(current)
        current = result.lts
        provenance = provenance.then(result.provenance)
        stats.append(result.stats)
    if tracing and passes:
        metrics = obs.metrics
        metrics.counter("compress.passes_applied").inc(len(stats))
        metrics.counter("compress.states_in").inc(lts.state_count)
        metrics.counter("compress.states_out").inc(current.state_count)
    return current, provenance, tuple(stats)


def bfs_renumber(
    lts: LTS, rep_of: Optional[Sequence[StateId]] = None
) -> Tuple[LTS, Tuple[StateId, ...]]:
    """Renumber states by BFS order from the root; drop unreachable states.

    Edge order within each state is preserved, so exploration order -- and
    with it counterexample tie-breaking -- matches the source automaton.
    With *rep_of*, states are first quotiented: ``rep_of[s]`` names the
    representative state of ``s``'s equivalence class, and the quotient
    keeps exactly the representative's transitions (targets mapped through
    ``rep_of``), merging duplicates in favour of the first occurrence.

    Returns the new LTS and the new-to-old map (each new state maps to the
    representative it was built from).  New states are expanded in id
    order, so their edges are appended to the CSR arrays as they are found.
    """
    if lts.state_count == 0:
        return LTS(lts.table, 0, array("q", [0, 0]), array("q"), array("q")), (0,)

    if rep_of is None:
        rep_of = range(lts.state_count)

    #: representative old id -> new id, assigned in BFS discovery order
    index: Dict[StateId, StateId] = {}
    new_to_old: List[StateId] = []
    source_terms = lts.terms
    terms: List = []
    offsets = array("q", [0])
    events = array("q")
    targets = array("q")

    def state_of(old: StateId) -> StateId:
        rep = rep_of[old]
        existing = index.get(rep)
        if existing is not None:
            return existing
        new = index[rep] = len(new_to_old)
        new_to_old.append(rep)
        terms.append(source_terms[rep])
        return new

    state_of(lts.initial)
    work: deque = deque([rep_of[lts.initial]])
    while work:
        rep = work.popleft()
        seen_edges = set()
        old_events, old_targets, lo, hi = lts.successors_span(rep)
        for i in range(lo, hi):
            eid = old_events[i]
            target_rep = rep_of[old_targets[i]]
            discovered = target_rep in index
            new_target = state_of(old_targets[i])
            edge = (eid, new_target)
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            events.append(eid)
            targets.append(new_target)
            if not discovered:
                work.append(target_rep)
        offsets.append(len(events))
    return LTS(lts.table, 0, offsets, events, targets, terms), tuple(new_to_old)


# -- the registry -------------------------------------------------------------------

PASSES: Dict[str, LtsPass] = {}

#: the passes applied when a caller asks for ``default`` compression: safe
#: in every semantic model, cheap, and ordered so each pass feeds the next
#: (pruning first, tau structure next, the bisimulation quotient last)
DEFAULT_PASS_NAMES: Tuple[str, ...] = ("dead", "tau_loop", "diamond", "sbisim")


def register_pass(lts_pass: LtsPass) -> LtsPass:
    if lts_pass.name in PASSES:
        raise ValueError("pass {!r} registered twice".format(lts_pass.name))
    PASSES[lts_pass.name] = lts_pass
    return lts_pass


PassSpec = Union[None, str, Sequence[str], Sequence[LtsPass]]


def resolve_passes(spec: PassSpec) -> Tuple[LtsPass, ...]:
    """Resolve ``--compress=<spec>`` syntax into a pass sequence.

    Accepts ``"default"``, ``"none"`` (or ``""``/``None``), a comma-separated
    name list (``"tau_loop,sbisim"``), or a sequence of names/pass objects.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        text = spec.strip()
        if text in ("", "none"):
            return ()
        if text == "default":
            names: Sequence[object] = DEFAULT_PASS_NAMES
        else:
            names = [part.strip() for part in text.split(",") if part.strip()]
    else:
        names = list(spec)
    resolved: List[LtsPass] = []
    for name in names:
        if isinstance(name, LtsPass):
            resolved.append(name)
            continue
        if name == "default":
            resolved.extend(PASSES[default] for default in DEFAULT_PASS_NAMES)
            continue
        try:
            resolved.append(PASSES[name])
        except KeyError:
            raise KeyError(
                "unknown pass {!r}; known: {}".format(
                    name, ", ".join(sorted(PASSES))
                )
            ) from None
    return tuple(resolved)


def passes_for_model(
    passes: Sequence[LtsPass], model: str
) -> Tuple[LtsPass, ...]:
    """The subsequence of *passes* that is an equivalence for *model*.

    ``model`` is ``"T"``, ``"F"`` or ``"FD"``; property checks (deadlock,
    divergence, determinism) require ``"FD"``.
    """
    if model not in _MODEL_RANK:
        raise ValueError("unknown semantic model {!r}".format(model))
    return tuple(p for p in passes if p.safe_for(model))
