"""Normalisation as a pass: tau-closure plus subset construction.

FDR's ``normal`` compression replaces a component with its normal form --
deterministic and tau-free, often far smaller on heavily nondeterministic
components.  Determinisation is only a *trace* equivalence (the subset
construction discards which acceptances belong to which branch), so this
pass declares ``preserves = "T"`` and the compilation plan applies it to
trace-refinement checks only.  It is deliberately not in the default pass
list; request it with ``--compress=normal,sbisim`` or a ``passes=`` spec.

Each normalised node corresponds to a *set* of source states; provenance
maps a node to the smallest member of that set.
"""

from __future__ import annotations

from typing import Tuple

from ..csp.lts import LTS, StateId
from .base import LtsPass, bfs_renumber, register_pass


class NormalPass(LtsPass):
    """``normal``: determinise by subset construction (trace-safe only)."""

    name = "normal"
    preserves = "T"

    def rewrite(self, lts: LTS) -> Tuple[LTS, Tuple[StateId, ...]]:
        # imported lazily: repro.fdr pulls in the engine, which imports this
        # package -- a module-level import would be circular
        from ..fdr.normalise import normalise

        spec = normalise(lts)
        determinised = spec.as_lts(
            [lts.terms[min(members)] for members in spec.members]
        )
        renumbered, new_to_node = bfs_renumber(determinised)
        return renumbered, tuple(
            min(spec.members[node]) for node in new_to_node
        )


register_pass(NormalPass())
