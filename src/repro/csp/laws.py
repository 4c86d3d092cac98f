"""Algebraic laws of CSP, checkable on bounded trace sets.

The paper (Sec. IV-A1) stresses that CSP "has a sound mathematical basis,
thus enabling formal reasoning about system descriptions using algebraic
laws".  This module packages the standard trace-model laws as executable
checks: each law is a pair of process-term constructors whose bounded trace
sets must coincide.  The property-based test-suite instantiates these laws
over randomly generated processes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from .events import Alphabet
from .process import (
    Environment,
    Interrupt,
    ExternalChoice,
    GenParallel,
    Interleave,
    InternalChoice,
    Process,
    SeqComp,
    SKIP,
    STOP,
)
from .traces import Trace, denotational_traces

LawBody = Callable[..., Tuple[Process, Process]]


def traces_equal(
    left: Process,
    right: Process,
    env: Optional[Environment] = None,
    max_length: int = 5,
) -> bool:
    """Bounded trace equivalence: both sides have the same traces up to the bound."""
    return denotational_traces(left, env, max_length) == denotational_traces(
        right, env, max_length
    )


def law_choice_commutative(p: Process, q: Process) -> Tuple[Process, Process]:
    """P [] Q  =T  Q [] P"""
    return ExternalChoice(p, q), ExternalChoice(q, p)


def law_choice_associative(
    p: Process, q: Process, r: Process
) -> Tuple[Process, Process]:
    """(P [] Q) [] R  =T  P [] (Q [] R)"""
    return ExternalChoice(ExternalChoice(p, q), r), ExternalChoice(p, ExternalChoice(q, r))


def law_choice_idempotent(p: Process) -> Tuple[Process, Process]:
    """P [] P  =T  P"""
    return ExternalChoice(p, p), p


def law_choice_unit(p: Process) -> Tuple[Process, Process]:
    """P [] STOP  =T  P"""
    return ExternalChoice(p, STOP), p


def law_internal_external_trace_equal(p: Process, q: Process) -> Tuple[Process, Process]:
    """P |~| Q  =T  P [] Q  (the trace model cannot tell the choices apart)."""
    return InternalChoice(p, q), ExternalChoice(p, q)


def law_interleave_commutative(p: Process, q: Process) -> Tuple[Process, Process]:
    """P ||| Q  =T  Q ||| P"""
    return Interleave(p, q), Interleave(q, p)


def law_interleave_associative(
    p: Process, q: Process, r: Process
) -> Tuple[Process, Process]:
    """(P ||| Q) ||| R  =T  P ||| (Q ||| R)"""
    return Interleave(Interleave(p, q), r), Interleave(p, Interleave(q, r))


def law_parallel_commutative(
    p: Process, q: Process, sync: Alphabet
) -> Tuple[Process, Process]:
    """P [|A|] Q  =T  Q [|A|] P"""
    return GenParallel(p, q, sync), GenParallel(q, p, sync)


def law_seq_skip_left_unit(p: Process) -> Tuple[Process, Process]:
    """SKIP ; P  =T  P"""
    return SeqComp(SKIP, p), p


def law_seq_associative(
    p: Process, q: Process, r: Process
) -> Tuple[Process, Process]:
    """(P ; Q) ; R  =T  P ; (Q ; R)"""
    return SeqComp(SeqComp(p, q), r), SeqComp(p, SeqComp(q, r))


def law_stop_seq(p: Process) -> Tuple[Process, Process]:
    """STOP ; P  =T  STOP (deadlock never terminates)."""
    return SeqComp(STOP, p), STOP


def law_interrupt_stop_unit(p: Process) -> Tuple[Process, Process]:
    r"""P /\ STOP  =T  P (a handler that can do nothing never takes over)."""
    return Interrupt(p, STOP), p


def law_stop_interrupt(q: Process) -> Tuple[Process, Process]:
    r"""STOP /\ Q  =T  Q (trace model: the handler is the only activity)."""
    return Interrupt(STOP, q), q


def law_interrupt_associative(
    p: Process, q: Process, r: Process
) -> Tuple[Process, Process]:
    r"""(P /\ Q) /\ R  =T  P /\ (Q /\ R)"""
    return Interrupt(Interrupt(p, q), r), Interrupt(p, Interrupt(q, r))


#: Operand signature per law: each character is one operand -- ``p`` a
#: process, ``A`` an alphabet.  The property-based oracles use this to
#: instantiate any registered law with generated operands; keep it in sync
#: with :data:`LAWS`.
LAW_OPERANDS: Dict[str, str] = {
    "choice-commutative": "pp",
    "choice-associative": "ppp",
    "choice-idempotent": "p",
    "choice-unit": "p",
    "internal-external-trace-equal": "pp",
    "interleave-commutative": "pp",
    "interleave-associative": "ppp",
    "parallel-commutative": "ppA",
    "seq-skip-left-unit": "p",
    "seq-associative": "ppp",
    "stop-seq": "p",
    "interrupt-stop-unit": "p",
    "stop-interrupt": "p",
    "interrupt-associative": "ppp",
}

#: A registry of the unary/binary/ternary laws, so the test-suite and the
#: documentation can enumerate them.
LAWS: Dict[str, LawBody] = {
    "choice-commutative": law_choice_commutative,
    "choice-associative": law_choice_associative,
    "choice-idempotent": law_choice_idempotent,
    "choice-unit": law_choice_unit,
    "internal-external-trace-equal": law_internal_external_trace_equal,
    "interleave-commutative": law_interleave_commutative,
    "interleave-associative": law_interleave_associative,
    "parallel-commutative": law_parallel_commutative,
    "seq-skip-left-unit": law_seq_skip_left_unit,
    "seq-associative": law_seq_associative,
    "stop-seq": law_stop_seq,
    "interrupt-stop-unit": law_interrupt_stop_unit,
    "stop-interrupt": law_stop_interrupt,
    "interrupt-associative": law_interrupt_associative,
}


def check_law(
    name: str,
    *operands,
    env: Optional[Environment] = None,
    max_length: int = 5,
) -> bool:
    """Instantiate a named law with the operands and check bounded trace equality."""
    law = LAWS[name]
    left, right = law(*operands)
    return traces_equal(left, right, env, max_length)
