"""Learned models as wire-format checks: the exec/batch plumbing bridge.

A converged :class:`~repro.learn.learner.LearnResult` becomes ordinary
``kind: "refinement"`` :class:`~repro.exec.spec.CheckSpec` documents --
the learned automaton re-expressed as process equations refines (and is
refined by) any reference process.  Nothing downstream knows the model
was learned: the specs shard over ``cspbatch`` workers, serve from
``cspserve`` and memoise in the ResultCache byte-identically to inline
execution, which is exactly what the mode-identity acceptance tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..csp.process import Environment, Process
from ..exec.spec import CheckSpec, reachable_bindings
from .learner import LearnResult


def equivalence_specs(
    result: LearnResult,
    reference: Process,
    *,
    env: Optional[Environment] = None,
    check_id: str = "learn",
    learned_name: str = "LEARNED",
) -> List[CheckSpec]:
    """Both ``[T=`` directions of learned-vs-reference, as CheckSpecs.

    Returns two refinement specs: ``<check_id>:sound`` (the reference
    admits every learned behaviour) and ``<check_id>:complete`` (the
    learned model admits every reference behaviour).  Both passing is
    bidirectional trace equivalence -- the ``learned_vs_extracted``
    oracle's claim, here in the exact wire shape every execution mode
    must agree on byte for byte.
    """
    learned, learned_bindings = result.to_process(learned_name)
    bindings: Dict[str, Process] = reachable_bindings(
        env if env is not None else Environment(), reference
    )
    overlap = set(bindings) & set(learned_bindings)
    if overlap:
        raise ValueError(
            "learned equation names collide with the reference's: "
            "{}".format(sorted(overlap))
        )
    bindings.update(learned_bindings)
    return [
        CheckSpec.refinement(
            reference,
            learned,
            "T",
            check_id="{}:sound".format(check_id),
            name="reference [T= learned",
            bindings=bindings,
        ),
        CheckSpec.refinement(
            learned,
            reference,
            "T",
            check_id="{}:complete".format(check_id),
            name="learned [T= reference",
            bindings=bindings,
        ),
    ]
