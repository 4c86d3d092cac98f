"""Denotational finite-trace semantics, exactly as defined in the paper.

Sec. IV-A2 of the paper gives recursive equations for ``traces(P)`` for each
operator.  This module implements those equations directly, so that the
operational semantics in :mod:`repro.csp.semantics` can be validated against
the paper's definitions (the test suite checks both give the same trace sets
on bounded models).

Because recursion makes trace sets infinite, all functions here are bounded
by a maximum trace length; they compute ``{ tr in traces(P) | #tr <= k }``,
which is sufficient for comparing against bounded LTS exploration.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set, Tuple

from .events import Alphabet, Event, TICK
from .process import (
    Environment,
    Interrupt,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Omega,
    Prefix,
    Process,
    ProcessRef,
    Renaming,
    SeqComp,
    Skip,
    Stop,
)

Trace = Tuple[Event, ...]

EMPTY: Trace = ()


def is_prefix(tr1: Trace, tr2: Trace) -> bool:
    """The paper's prefix order: ``tr1 <= tr2`` iff some tr' has tr1 ^ tr' = tr2."""
    return len(tr1) <= len(tr2) and tr2[: len(tr1)] == tr1


def prefix_closure(traces: Iterable[Trace]) -> Set[Trace]:
    """All prefixes of all given traces (trace sets are prefix-closed)."""
    closed: Set[Trace] = set()
    for trace in traces:
        for cut in range(len(trace) + 1):
            closed.add(trace[:cut])
    return closed


def hide_trace(trace: Trace, hidden: Alphabet) -> Trace:
    """The paper's ``tr \\ A`` hiding operator on a single trace."""
    return tuple(event for event in trace if event not in hidden)


def is_terminated(trace: Trace) -> bool:
    """True when the trace ends with tick."""
    return bool(trace) and trace[-1].is_tick()


def strip_tick(trace: Trace) -> Trace:
    return trace[:-1] if is_terminated(trace) else trace


def merge_traces(tr1: Trace, tr2: Trace, sync: Alphabet) -> Set[Trace]:
    """The paper's synchronised trace merge ``tr1 [|A|] tr2``.

    Events in ``A ∪ {✓}`` must occur in both traces simultaneously; all other
    events interleave.  Returns the set of merged traces (symmetric in its
    arguments).
    """

    def in_sync(event: Event) -> bool:
        return event.is_tick() or event in sync

    memo = {}

    def go(a: Trace, b: Trace) -> FrozenSet[Trace]:
        key = (a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        results: Set[Trace] = set()
        if not a and not b:
            results.add(EMPTY)
        elif not a:
            # remaining events of b must all be free
            if all(not in_sync(event) for event in b):
                results.add(b)
            # a sync-event tail cannot proceed: contributes nothing (but
            # shorter merges are still produced by prefix closure upstream)
            head_free = []
            for event in b:
                if in_sync(event):
                    break
                head_free.append(event)
            results.add(tuple(head_free))
        elif not b:
            return go(b, a)
        else:
            x, rest_a = a[0], a[1:]
            y, rest_b = b[0], b[1:]
            if in_sync(x) and in_sync(y):
                if x == y:
                    for tail in go(rest_a, rest_b):
                        results.add((x,) + tail)
                # different sync events: stuck -- only the empty merge
                results.add(EMPTY)
            elif in_sync(x):
                for tail in go(a, rest_b):
                    results.add((y,) + tail)
                results.add(EMPTY)
            elif in_sync(y):
                for tail in go(rest_a, b):
                    results.add((x,) + tail)
                results.add(EMPTY)
            else:
                for tail in go(rest_a, b):
                    results.add((x,) + tail)
                for tail in go(a, rest_b):
                    results.add((y,) + tail)
        frozen = frozenset(results)
        memo[key] = frozen
        return frozen

    return prefix_closure(go(tr1, tr2))


def interleave_traces(tr1: Trace, tr2: Trace) -> Set[Trace]:
    """``tr1 ||| tr2`` -- the paper defines it as merge with an empty sync set."""
    return merge_traces(tr1, tr2, Alphabet())


def denotational_traces(
    process: Process,
    env: Optional[Environment] = None,
    max_length: int = 6,
) -> Set[Trace]:
    """Bounded trace set by the paper's denotational equations.

    Computes every trace of *process* of length at most *max_length*.
    Recursion through :class:`ProcessRef` is unfolded lazily; the length
    bound guarantees termination for guarded definitions.
    """
    env = env or Environment()

    def bounded(traces: Iterable[Trace], budget: int) -> Set[Trace]:
        return {tr for tr in traces if len(tr) <= budget}

    def go(term: Process, budget: int) -> Set[Trace]:
        if budget < 0:
            return {EMPTY}
        if isinstance(term, (Stop, Omega)):
            return {EMPTY}
        if isinstance(term, Skip):
            return {EMPTY, (TICK,)} if budget >= 1 else {EMPTY}
        if isinstance(term, Prefix):
            results = {EMPTY}
            if budget >= 1:
                for tail in go(term.continuation, budget - 1):
                    results.add((term.event,) + tail)
            return results
        if isinstance(term, (ExternalChoice, InternalChoice)):
            # the paper: traces(P1 [] P2) = traces(P1) ∪ traces(P2); the
            # trace model cannot distinguish internal from external choice.
            return go(term.left, budget) | go(term.right, budget)
        if isinstance(term, SeqComp):
            first = go(term.first, budget)
            # the paper: traces(P1) ∩ Σ*  (unterminated traces of P1) ...
            results = {tr for tr in first if not is_terminated(tr)}
            for tr in first:
                if is_terminated(tr):
                    stem = strip_tick(tr)
                    remaining = budget - len(stem)
                    for tail in go(term.second, remaining):
                        if len(stem) + len(tail) <= budget:
                            results.add(stem + tail)
            return results
        if isinstance(term, (GenParallel, Interleave)):
            sync = term.sync if isinstance(term, GenParallel) else Alphabet()
            left = go(term.left, budget)
            right = go(term.right, budget)
            results: Set[Trace] = set()
            for tr1 in left:
                for tr2 in right:
                    for merged in merge_traces(tr1, tr2, sync):
                        if len(merged) <= budget:
                            results.add(merged)
            return results
        if isinstance(term, Interrupt):
            primary = go(term.primary, budget)
            results = set(primary)
            for stem in primary:
                if is_terminated(stem):
                    continue
                for tail in go(term.handler, budget - len(stem)):
                    if len(stem) + len(tail) <= budget:
                        results.add(stem + tail)
            return results
        if isinstance(term, Hiding):
            # hiding can shorten traces, so explore deeper underneath: a
            # hidden trace of length k may come from an unhidden trace of
            # any length.  We bound the *underlying* exploration by a fixed
            # expansion factor, which is exact when hidden cycles are absent.
            # cut to this term's own budget, not the caller's max_length: an
            # enclosing hiding explores this term deeper than that
            inner = go(term.process, budget + _hiding_slack(term, budget))
            return bounded({hide_trace(tr, term.hidden) for tr in inner}, budget)
        if isinstance(term, Renaming):
            inner = go(term.process, budget)
            return {
                tuple(
                    term.rename_event(event) if event.is_visible() else event
                    for event in trace
                )
                for trace in inner
            }
        if isinstance(term, ProcessRef):
            return go(env.resolve(term.name), budget)
        raise TypeError("unknown process term: {!r}".format(term))

    return bounded(go(process, max_length), max_length)


def _hiding_slack(term: Hiding, budget: int) -> int:
    """Extra exploration depth to account for events removed by hiding."""
    return max(2 * budget, 8)


def trace_refines(
    spec_traces: Set[Trace], impl_traces: Set[Trace]
) -> Tuple[bool, Optional[Trace]]:
    """The paper's trace refinement: ``Spec ⊑T Impl`` iff traces(Impl) ⊆ traces(Spec).

    Returns ``(holds, counterexample)`` where the counterexample is a shortest
    implementation trace missing from the specification.
    """
    violations = impl_traces - spec_traces
    if not violations:
        return True, None
    shortest = min(violations, key=lambda tr: (len(tr), tuple(str(e) for e in tr)))
    return False, shortest


def format_trace(trace: Trace) -> str:
    """Render a trace FDR-style: ``<send.reqSw, rec.rptSw>``."""
    return "<{}>".format(", ".join(str(event) for event in trace))
