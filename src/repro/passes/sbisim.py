"""Strong bisimulation minimisation -- FDR's ``sbisim`` as a pass.

Partition refinement in the Kanellakis-Smolka style, with two fixes over
a naive signature-recomputing refinement:

* signatures are hash-consed per sweep -- each distinct move-set
  ``{(event, block)}`` is interned to a small integer once, so block
  splitting groups by int instead of re-hashing frozensets per comparison;
* a worklist of *touched* blocks: when a split moves states out of a block,
  only the blocks containing predecessors of the moved states can see their
  signatures change, so only those are re-examined on the next sweep.
  Stable regions of the LTS are never rescanned, which keeps minimisation
  from dominating compile time on Table-II-sized alphabets.

The partition is always coarser than bisimilarity (splitting by signature
under such a partition never separates bisimilar states), so the fixpoint
is the coarsest strong bisimulation.  Tau is treated like any other label:
strong, not weak, bisimulation, exactly FDR's ``sbisim`` -- an equivalence
in every CSP semantic model.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..csp.lts import LTS, StateId
from .base import LtsPass, bfs_renumber, register_pass, terminated_states

Signature = FrozenSet[Tuple[int, int]]


def bisimulation_classes(lts: LTS) -> List[FrozenSet[StateId]]:
    """The coarsest strong-bisimulation partition of the LTS states.

    Returned in deterministic order (sorted by smallest member).  Worst
    case O(m·n) like any signature-refinement scheme, but sweeps only ever
    revisit blocks whose member signatures may actually have changed.
    """
    count = lts.state_count
    if count == 0:
        return []

    # seed the partition with the terminated/ordinary split: tick-targets
    # are observationally distinct from stuck states even though both have
    # empty move sets, so they must start (and stay) in separate blocks
    terminated = terminated_states(lts)
    block_of: List[int] = [0] * count
    #: block id -> members, kept in ascending state order so splits are
    #: deterministic regardless of hash seeds
    members: Dict[int, List[StateId]] = {}
    initial_blocks = [
        [s for s in range(count) if s not in terminated],
        sorted(terminated),
    ]
    next_block = 0
    for group in initial_blocks:
        if not group:
            continue
        for state in group:
            block_of[state] = next_block
        members[next_block] = group
        next_block += 1

    successors_span = lts.successors_span
    predecessors: List[List[StateId]] = [[] for _ in range(count)]
    for state in range(count):
        _events, targets, lo, hi = successors_span(state)
        for i in range(lo, hi):
            predecessors[targets[i]].append(state)

    touched = set(members)
    while touched:
        #: hash-cons table for this sweep: signature -> small int
        sig_ids: Dict[Signature, int] = {}
        sweep = sorted(touched)
        touched = set()
        for block in sweep:
            states = members[block]
            if len(states) <= 1:
                continue
            parts: Dict[int, List[StateId]] = {}
            order: List[int] = []
            for state in states:
                events, targets, lo, hi = successors_span(state)
                signature = frozenset(
                    (events[i], block_of[targets[i]]) for i in range(lo, hi)
                )
                sig = sig_ids.setdefault(signature, len(sig_ids))
                part = parts.get(sig)
                if part is None:
                    parts[sig] = part = []
                    order.append(sig)
                part.append(state)
            if len(parts) == 1:
                continue
            # the first part keeps the old block id; the rest get fresh ids
            members[block] = parts[order[0]]
            moved: List[StateId] = []
            for sig in order[1:]:
                part = parts[sig]
                members[next_block] = part
                for state in part:
                    block_of[state] = next_block
                moved.extend(part)
                next_block += 1
            # only predecessors of moved states can see a signature change
            for state in moved:
                for pred in predecessors[state]:
                    touched.add(block_of[pred])
            touched.add(block)

    classes = [frozenset(states) for states in members.values()]
    classes.sort(key=min)
    return classes


def minimise(lts: LTS) -> LTS:
    """Quotient the LTS by strong bisimulation.

    The result is strongly bisimilar to the input, hence equivalent in
    every CSP semantic model, with duplicate transitions merged and states
    renumbered in BFS order from the root (stable across runs).
    """
    minimised, _ = quotient(lts)
    return minimised


def quotient(lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
    """``minimise`` plus the new-to-old representative map."""
    if lts.state_count == 0:
        return bfs_renumber(lts)
    classes = bisimulation_classes(lts)
    rep_of = [0] * lts.state_count
    for block in classes:
        representative = min(block)
        for state in block:
            rep_of[state] = representative
    return bfs_renumber(lts, rep_of)


class SbisimPass(LtsPass):
    """``sbisim``: quotient by strong bisimulation (safe in T, F and FD)."""

    name = "sbisim"
    preserves = "FD"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        return quotient(lts)


register_pass(SbisimPass())
