"""Structural reduction passes: dead-state pruning, tau loops, diamonds.

These are the cheap passes that run before the bisimulation quotient in the
default pipeline.  Each is an equivalence in all three semantic models
(``preserves = "FD"``):

* ``dead`` -- drop states unreachable from the root (and renumber the rest
  in BFS order).  Composition and hiding routinely leave garbage states.
* ``tau_loop`` -- collapse each tau-SCC to a single state, like FDR's
  ``tau_loop_factor``: every state on a tau cycle is divergent, and in the
  divergence-strict FD model all of them are equivalent, while in T and F
  the members reach each other silently so their visible behaviour is one.
  A collapsed divergent component keeps a single tau self-loop so the
  divergence checker still sees the cycle.
* ``diamond`` -- inert-tau elimination: a state whose *only* transition is
  a single tau is indistinguishable from its successor in every model
  (no choice is resolved, no acceptance is recorded).  Chains of such
  states collapse to their endpoint.  This is the uncontroversial fragment
  of FDR's ``diamond`` compression; the full transformation also
  accelerates visible transitions through tau and is only a trace/failures
  congruence under side conditions we do not need.
"""

from __future__ import annotations

from typing import List, Tuple

from ..csp.events import TAU_ID
from ..csp.kernel import tau_scc_of
from ..csp.lts import LTS, StateId
from .base import LtsPass, bfs_renumber, register_pass, terminated_states


class DeadStatesPass(LtsPass):
    """``dead``: prune unreachable states, renumber in BFS order."""

    name = "dead"
    preserves = "FD"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        return bfs_renumber(lts)


class TauLoopPass(LtsPass):
    """``tau_loop``: collapse each tau-SCC to one state."""

    name = "tau_loop"
    preserves = "FD"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        if lts.state_count == 0:
            return bfs_renumber(lts)
        scc_of = tau_scc_of(lts)
        members: dict = {}
        for state in range(lts.state_count):
            members.setdefault(scc_of[state], []).append(state)
        state_of = {scc: new for new, scc in enumerate(members)}

        # the collapsed component needs the *union* of member transitions
        # (members differ; any of them is silently reachable from any other),
        # gathered in ascending member order so output order is stable; its
        # smallest member represents it (ids are BFS-ordered in pass inputs,
        # so this is the first-discovered member)
        provenance: List[StateId] = []
        edges: List[List[Tuple[int, StateId]]] = []
        for scc, group in members.items():
            source = state_of[scc]
            provenance.append(group[0])
            seen = set()
            out: List[Tuple[int, StateId]] = []
            for state in group:
                events, targets, lo, hi = lts.successors_span(state)
                for i in range(lo, hi):
                    eid = events[i]
                    target = targets[i]
                    if eid == TAU_ID and scc_of[target] == scc:
                        # an intra-component tau: the component is divergent,
                        # keep exactly one tau self-loop as its witness
                        edge = (TAU_ID, source)
                    else:
                        edge = (eid, state_of[scc_of[target]])
                    if edge in seen:
                        continue
                    seen.add(edge)
                    out.append(edge)
            edges.append(out)
        collapsed = LTS.from_edges(
            lts.table,
            state_of[scc_of[lts.initial]],
            edges,
            [lts.terms[rep] for rep in provenance],
        )

        renumbered, new_to_mid = bfs_renumber(collapsed)
        return renumbered, tuple(provenance[mid] for mid in new_to_mid)


class DiamondPass(LtsPass):
    """``diamond``: merge single-tau states into their successors."""

    name = "diamond"
    preserves = "FD"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        count = lts.state_count
        if count == 0:
            return bfs_renumber(lts)
        terminated = terminated_states(lts)

        def is_inert(state: StateId) -> bool:
            # a tau into the terminated state is never inert: the source
            # still refuses tick, so merging it into the tick-target would
            # turn a stuck state into a terminated one
            events, targets, lo, hi = lts.successors_span(state)
            return (
                hi - lo == 1
                and events[lo] == TAU_ID
                and targets[lo] not in terminated
            )

        unresolved = -1
        rep_of = [unresolved] * count
        for start in range(count):
            if rep_of[start] != unresolved:
                continue
            chain: List[StateId] = []
            positions: dict = {}
            state = start
            while (
                rep_of[state] == unresolved
                and state not in positions
                and is_inert(state)
            ):
                positions[state] = len(chain)
                chain.append(state)
                _events, targets, lo, _hi = lts.successors_span(state)
                state = targets[lo]
            if rep_of[state] != unresolved:
                endpoint = rep_of[state]
            elif state in positions:
                # a pure tau cycle: every state on it is inert; collapse the
                # whole cycle onto its entry point, whose single tau edge
                # then resolves to itself -- a divergence-preserving loop
                endpoint = state
            else:
                endpoint = state
                rep_of[state] = state
            for member in chain:
                rep_of[member] = endpoint

        # quotient keeps the endpoint's transitions with resolved targets
        renumbered, new_to_old = bfs_renumber(
            lts, [rep_of[s] for s in range(count)]
        )
        return renumbered, new_to_old


register_pass(DeadStatesPass())
register_pass(TauLoopPass())
register_pass(DiamondPass())
