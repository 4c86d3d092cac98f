"""Tests for strong-bisimulation minimisation (FDR's sbisim analogue)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.csp import (
    Alphabet,
    Environment,
    ExternalChoice,
    GenParallel,
    InternalChoice,
    Prefix,
    SKIP,
    STOP,
    SeqComp,
    compile_lts,
    event,
    interleave_all,
    prefix,
    reachable_visible_traces,
    ref,
    sequence,
)
from repro.fdr import check_deadlock_free, check_trace_refinement
from repro.passes.sbisim import bisimulation_classes, minimise

A, B, C = event("a"), event("b"), event("c")


class TestClasses:
    def test_identical_branches_merge(self):
        # a -> STOP [] a -> STOP has structurally distinct but bisimilar parts
        process = ExternalChoice(Prefix(A, Prefix(B, STOP)), Prefix(A, Prefix(B, SKIP)))
        lts = compile_lts(process)
        classes = bisimulation_classes(lts)
        assert len(classes) <= lts.state_count

    def test_distinct_states_stay_apart(self):
        lts = compile_lts(sequence(A, B))
        assert len(bisimulation_classes(lts)) == 3

    def test_all_deadlocks_merge(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        lts = compile_lts(process)
        minimised = minimise(lts)
        # initial + one shared deadlock class
        assert minimised.state_count == 2


class TestMinimise:
    def test_traces_preserved(self):
        process = ExternalChoice(
            Prefix(A, Prefix(B, STOP)), Prefix(C, Prefix(B, STOP))
        )
        lts = compile_lts(process)
        minimised = minimise(lts)
        assert reachable_visible_traces(lts, 4) == reachable_visible_traces(minimised, 4)

    def test_diamond_collapses(self):
        """Two parallel independent events create a diamond; the two middle
        states are NOT bisimilar (different labels) but the corners merge."""
        left = sequence(A, then=STOP)
        right = sequence(A, then=STOP)
        process = interleave_all(left, right)
        lts = compile_lts(process)
        minimised = minimise(lts)
        assert minimised.state_count < lts.state_count

    def test_verdicts_identical_after_compression(self):
        env = Environment()
        env.bind("SPEC", Prefix(A, Prefix(B, ref("SPEC"))))
        impl = ExternalChoice(
            Prefix(A, Prefix(B, ref("IMPL"))), Prefix(A, Prefix(B, ref("IMPL")))
        )
        env.bind("IMPL", impl)
        spec_lts = compile_lts(ref("SPEC"), env)
        impl_lts = compile_lts(ref("IMPL"), env)
        direct = check_trace_refinement(spec_lts, impl_lts)
        compressed = check_trace_refinement(minimise(spec_lts), minimise(impl_lts))
        assert direct.passed == compressed.passed is True

    def test_deadlock_verdict_preserved(self):
        lts = compile_lts(sequence(A, B))
        assert (
            check_deadlock_free(lts).passed
            == check_deadlock_free(minimise(lts)).passed
        )

    def test_compression_ratio(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        lts = compile_lts(process)
        minimised = minimise(lts)
        assert 0 < minimised.state_count <= lts.state_count

    def test_duplicate_transitions_merged(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(A, STOP))
        minimised = minimise(compile_lts(process))
        assert minimised.transition_count == 1


def small_processes():
    base = st.sampled_from([STOP, SKIP])

    def extend(children):
        return st.one_of(
            st.builds(Prefix, st.sampled_from([A, B, C]), children),
            st.builds(ExternalChoice, children, children),
            st.builds(InternalChoice, children, children),
            st.builds(SeqComp, children, children),
            st.builds(GenParallel, children, children, st.just(Alphabet.of(A))),
        )

    return st.recursive(base, extend, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(p=small_processes())
def test_property_minimisation_preserves_traces(p):
    lts = compile_lts(p)
    minimised = minimise(lts)
    assert minimised.state_count <= lts.state_count
    assert reachable_visible_traces(lts, 4) == reachable_visible_traces(minimised, 4)


@settings(max_examples=40, deadline=None)
@given(spec=small_processes(), impl=small_processes())
def test_property_verdicts_stable_under_compression(spec, impl):
    spec_lts, impl_lts = compile_lts(spec), compile_lts(impl)
    direct = check_trace_refinement(spec_lts, impl_lts).passed
    compressed = check_trace_refinement(minimise(spec_lts), minimise(impl_lts)).passed
    assert direct == compressed


@settings(max_examples=60, deadline=None)
@given(p=small_processes())
def test_property_minimisation_is_idempotent(p):
    minimised = minimise(compile_lts(p))
    again = minimise(minimised)
    assert again.state_count == minimised.state_count
