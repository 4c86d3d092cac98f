"""Tests for the denotational trace semantics -- the paper's equations.

Each paper equation from Sec. IV-A2 gets a direct test, and the operational
and denotational semantics are cross-checked on a suite of small processes.
"""

import pytest

from repro.csp import (
    Alphabet,
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Prefix,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
    TICK,
    compile_lts,
    denotational_traces,
    event,
    format_trace,
    hide_trace,
    interleave_traces,
    is_prefix,
    merge_traces,
    prefix_closure,
    reachable_visible_traces,
    ref,
    sequence,
    trace_refines,
)

A, B, C = event("a"), event("b"), event("c")


class TestTraceBasics:
    def test_prefix_order(self):
        assert is_prefix((), (A,))
        assert is_prefix((A,), (A, B))
        assert not is_prefix((B,), (A, B))
        assert is_prefix((A, B), (A, B))

    def test_prefix_closure(self):
        closed = prefix_closure([(A, B)])
        assert closed == {(), (A,), (A, B)}

    def test_hide_trace_matches_paper_definition(self):
        hidden = Alphabet.of(B)
        assert hide_trace((A, B, C, B), hidden) == (A, C)
        assert hide_trace((), hidden) == ()
        assert hide_trace((B, B), hidden) == ()

    def test_format_trace(self):
        assert format_trace((A, B)) == "<a, b>"
        assert format_trace(()) == "<>"


class TestPaperEquations:
    """traces(...) equations exactly as printed in Sec. IV-A2."""

    def test_traces_stop(self):
        assert denotational_traces(STOP) == {()}

    def test_traces_prefix(self):
        # traces(e -> P) = {<>} u {<e> ^ tr | tr in traces(P)}
        assert denotational_traces(Prefix(A, STOP), max_length=2) == {(), (A,)}

    def test_traces_external_choice_is_union(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        assert denotational_traces(process, max_length=2) == {(), (A,), (B,)}

    def test_traces_seq_composition(self):
        process = SeqComp(sequence(A, then=SKIP), sequence(B, then=STOP))
        traces = denotational_traces(process, max_length=3)
        assert (A, B) in traces
        # tick of the first component is internalised by ;
        assert not any(TICK in tr[:-1] for tr in traces)

    def test_traces_skip(self):
        assert denotational_traces(SKIP, max_length=2) == {(), (TICK,)}

    def test_traces_hiding(self):
        process = Hiding(sequence(A, B), Alphabet.of(A))
        assert denotational_traces(process, max_length=3) == {(), (B,)}

    def test_nested_hiding_keeps_traces_longer_than_the_bound(self):
        # the inner hiding must not cut its traces to the caller's bound:
        # <a, tick> is longer than 1, but hides to <tick>
        process = Hiding(Hiding(Prefix(A, SKIP), Alphabet()), Alphabet.of(A))
        assert denotational_traces(process, max_length=1) == {(), (TICK,)}

    def test_traces_parallel_sync(self):
        sync = Alphabet.of(A)
        process = GenParallel(Prefix(A, STOP), Prefix(A, STOP), sync)
        assert denotational_traces(process, max_length=2) == {(), (A,)}

    def test_traces_parallel_mismatched_sync_deadlocks(self):
        sync = Alphabet.of(A, B)
        process = GenParallel(Prefix(A, STOP), Prefix(B, STOP), sync)
        assert denotational_traces(process, max_length=2) == {()}

    def test_traces_interleave(self):
        process = Interleave(Prefix(A, STOP), Prefix(B, STOP))
        assert denotational_traces(process, max_length=2) == {
            (),
            (A,),
            (B,),
            (A, B),
            (B, A),
        }

    def test_internal_choice_same_traces_as_external(self):
        internal = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        external = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        assert denotational_traces(internal, max_length=3) == denotational_traces(
            external, max_length=3
        )

    def test_renaming(self):
        process = Renaming(Prefix(A, STOP), {A: B})
        assert denotational_traces(process, max_length=2) == {(), (B,)}


class TestMergeOperator:
    """The synchronised trace merge of the paper's parallel equation."""

    def test_both_empty(self):
        assert merge_traces((), (), Alphabet()) == {()}

    def test_sync_event_must_pair(self):
        sync = Alphabet.of(A)
        assert (A,) in merge_traces((A,), (A,), sync)
        # mismatched sync events block
        assert merge_traces((A,), (B,), Alphabet.of(A, B)) == {()}

    def test_free_events_interleave_fully(self):
        merged = merge_traces((A,), (B,), Alphabet())
        assert (A, B) in merged and (B, A) in merged

    def test_merge_is_symmetric(self):
        sync = Alphabet.of(C)
        assert merge_traces((A, C), (B, C), sync) == merge_traces((B, C), (A, C), sync)

    def test_merge_result_is_prefix_closed(self):
        merged = merge_traces((A,), (B,), Alphabet())
        for trace in merged:
            for cut in range(len(trace)):
                assert trace[:cut] in merged

    def test_interleave_traces_counts(self):
        # |s1 ||| s2| complete interleavings = C(n+m, n)
        merged = interleave_traces((A, B), (C,))
        complete = [t for t in merged if len(t) == 3]
        assert len(complete) == 3


class TestOperationalDenotationalAgreement:
    """The SOS semantics and the paper's equations must produce identical
    bounded trace sets -- the core soundness check of the algebra."""

    @pytest.mark.parametrize(
        "process",
        [
            STOP,
            SKIP,
            sequence(A, B),
            ExternalChoice(Prefix(A, STOP), Prefix(B, SKIP)),
            InternalChoice(Prefix(A, STOP), Prefix(B, STOP)),
            SeqComp(sequence(A, then=SKIP), sequence(B, then=SKIP)),
            Interleave(Prefix(A, STOP), Prefix(B, STOP)),
            GenParallel(sequence(A, B), sequence(A, C), Alphabet.of(A)),
            Hiding(sequence(A, B), Alphabet.of(A)),
            Renaming(sequence(A, B), {A: C}),
            ExternalChoice(SKIP, Prefix(A, STOP)),
            GenParallel(SKIP, SKIP, Alphabet()),
        ],
        ids=lambda p: repr(p)[:50],
    )
    def test_agreement(self, process):
        bound = 4
        lts = compile_lts(process)
        operational = reachable_visible_traces(lts, bound)
        denotational = denotational_traces(process, max_length=bound)
        assert operational == denotational

    def test_agreement_with_recursion(self):
        env = Environment().bind("P", Prefix(A, Prefix(B, ref("P"))))
        lts = compile_lts(ref("P"), env)
        assert reachable_visible_traces(lts, 4) == denotational_traces(
            ref("P"), env, max_length=4
        )


class TestTraceRefinement:
    def test_refines_when_subset(self):
        spec = denotational_traces(ExternalChoice(Prefix(A, STOP), Prefix(B, STOP)))
        impl = denotational_traces(Prefix(A, STOP))
        holds, counterexample = trace_refines(spec, impl)
        assert holds and counterexample is None

    def test_counterexample_is_shortest_violation(self):
        spec = denotational_traces(Prefix(A, STOP))
        impl = denotational_traces(sequence(B, C))
        holds, counterexample = trace_refines(spec, impl)
        assert not holds
        assert counterexample == (B,)

    def test_refinement_is_reflexive(self):
        traces = denotational_traces(sequence(A, B))
        assert trace_refines(traces, traces)[0]
