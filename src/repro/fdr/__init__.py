"""Refinement checker for CSP -- the FDR substitute (paper Sec. IV-D).

Implements specification normalisation, trace and stable-failures refinement
with shortest counterexamples, plus the standard deadlock / divergence /
determinism assertions, over the LTSs compiled by :mod:`repro.csp`.
"""

from .counterexample import (
    Counterexample,
    DeadlockCounterexample,
    DivergenceCounterexample,
    FailureCounterexample,
    NondeterminismCounterexample,
    TraceCounterexample,
)
from .normalise import (
    NormalisedSpec,
    minimal_bitsets,
    minimal_sets,
    normalise,
    tau_cycle_states,
)
from .refine import (
    CheckResult,
    check_deadlock_free,
    check_deterministic,
    check_divergence_free,
    check_failures_refinement,
    check_failures_refinement_from,
    check_fd_refinement,
    check_trace_refinement,
    check_trace_refinement_from,
)

__all__ = [
    "CheckResult",
    "Counterexample",
    "DeadlockCounterexample",
    "DivergenceCounterexample",
    "FailureCounterexample",
    "NondeterminismCounterexample",
    "NormalisedSpec",
    "TraceCounterexample",
    "check_deadlock_free",
    "check_deterministic",
    "check_divergence_free",
    "check_failures_refinement",
    "check_failures_refinement_from",
    "check_fd_refinement",
    "check_trace_refinement",
    "check_trace_refinement_from",
    "minimal_bitsets",
    "minimal_sets",
    "normalise",
    "tau_cycle_states",
]
