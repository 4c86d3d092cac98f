"""Semantic LTS passes: FDR-style compressions with provenance.

The pass framework behind compress-before-compose (paper Sec. VII-A).  See
:mod:`repro.passes.base` for the :class:`LtsPass` protocol,
:class:`StateProvenance` and :class:`PassStats`;
:mod:`repro.passes.sbisim` for strong bisimulation minimisation; and
:mod:`repro.passes.reduce` / :mod:`repro.passes.normal` for the structural
and normalisation passes.  Importing this package registers every built-in
pass in :data:`repro.passes.PASSES`.
"""

from .base import (
    DEFAULT_PASS_NAMES,
    LtsPass,
    PASSES,
    PassResult,
    PassSpec,
    PassStats,
    StateProvenance,
    apply_passes,
    bfs_renumber,
    passes_for_model,
    register_pass,
    resolve_passes,
    terminated_states,
)
from .normal import NormalPass
from .reduce import DeadStatesPass, DiamondPass, TauLoopPass
from .sbisim import SbisimPass, bisimulation_classes, minimise, quotient

__all__ = [
    "DEFAULT_PASS_NAMES",
    "DeadStatesPass",
    "DiamondPass",
    "LtsPass",
    "NormalPass",
    "PASSES",
    "PassResult",
    "PassSpec",
    "PassStats",
    "SbisimPass",
    "StateProvenance",
    "TauLoopPass",
    "apply_passes",
    "bfs_renumber",
    "bisimulation_classes",
    "minimise",
    "passes_for_model",
    "quotient",
    "register_pass",
    "resolve_passes",
    "terminated_states",
]
