"""Unit tests for LTS compilation and queries."""

import pytest

from repro.csp import (
    Alphabet,
    CompactLTS,
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    InternalChoice,
    Prefix,
    SKIP,
    STOP,
    StateSpaceLimitExceeded,
    compile_lts,
    event,
    prefix,
    reachable_visible_traces,
    ref,
    sequence,
)
from repro.csp.kernel import tau_cycle_states


class TestCompile:
    def test_stop_is_single_state(self):
        lts = compile_lts(STOP)
        assert lts.state_count == 1
        assert lts.transition_count == 0
        assert lts.is_deadlocked(lts.initial)

    def test_skip_is_two_states(self):
        lts = compile_lts(SKIP)
        assert lts.state_count == 2
        assert lts.transition_count == 1

    def test_recursion_closes_into_cycle(self):
        a = event("a")
        env = Environment().bind("P", Prefix(a, ref("P")))
        lts = compile_lts(ref("P"), env)
        # P and its unwinding are distinct terms but the cycle is finite
        assert lts.state_count <= 2
        assert lts.walk([a, a, a]) is not None

    def test_state_limit_enforced(self):
        # a counter that never repeats: infinite-state
        a = event("a")
        env = Environment()
        # P_n = a -> P_{n+1} encoded via nested interleavings growing unboundedly
        env.bind("P", Prefix(a, GenParallel(ref("P"), SKIP, Alphabet())))
        with pytest.raises(StateSpaceLimitExceeded):
            compile_lts(ref("P"), env, max_states=50)

    def test_parallel_product_size(self, msgs_channels):
        send, rec = msgs_channels
        env = Environment()
        env.bind("VMG", prefix(send("reqSw"), prefix(rec("rptSw"), ref("VMG"))))
        env.bind("ECU", prefix(send("reqSw"), prefix(rec("rptSw"), ref("ECU"))))
        sync = Alphabet.from_channels(send, rec)
        lts = compile_lts(GenParallel(ref("VMG"), ref("ECU"), sync), env)
        assert lts.state_count == 2

    def test_terms_recorded(self):
        lts = compile_lts(STOP)
        assert lts.terms[lts.initial] == STOP


class TestQueries:
    def test_tau_closure(self):
        a = event("a")
        process = InternalChoice(Prefix(a, STOP), STOP)
        lts = compile_lts(process)
        closure = lts.tau_closure(frozenset([lts.initial]))
        assert len(closure) == 3

    def test_stability(self):
        a = event("a")
        lts = compile_lts(InternalChoice(Prefix(a, STOP), STOP))
        assert not lts.is_stable(lts.initial)

    def test_alphabet(self):
        a, b = event("a"), event("b")
        lts = compile_lts(sequence(a, b))
        assert lts.alphabet() == frozenset({a, b})

    def test_walk_success_and_failure(self):
        a, b = event("a"), event("b")
        lts = compile_lts(sequence(a, b))
        assert lts.walk([a, b]) is not None
        assert lts.walk([b]) is None
        assert lts.walk([a, a]) is None

    def test_walk_through_taus(self):
        a = event("a")
        process = Hiding(sequence(event("h"), a), Alphabet.of(event("h")))
        lts = compile_lts(process)
        assert lts.walk([a]) is not None

    def test_to_dot_contains_states_and_edges(self):
        a = event("a")
        dot = compile_lts(Prefix(a, STOP)).to_dot("demo")
        assert "digraph demo" in dot
        assert '"a"' in dot

    def test_events_after(self):
        a, b = event("a"), event("b")
        lts = compile_lts(ExternalChoice(Prefix(a, STOP), Prefix(b, STOP)))
        assert lts.events_after(frozenset([lts.initial])) == frozenset({a, b})


class TestImmutable:
    """An automaton is complete when built: nothing changes it afterwards."""

    def _divergent(self):
        a, b = event("a"), event("b")
        env = Environment().bind("Q", Prefix(a, Prefix(b, ref("Q"))))
        return compile_lts(Hiding(ref("Q"), Alphabet.of(a, b)), env)

    def test_there_is_no_mutator(self):
        lts = self._divergent()
        for name in ("add_state", "add_transition", "add_transition_id", "_thaw"):
            assert not hasattr(lts, name)
        assert "_pending" not in CompactLTS.__slots__

    def test_a_second_read_returns_the_kept_object(self):
        lts = self._divergent()
        alphabet = lts.alphabet()
        assert lts.alphabet() is alphabet
        divergent = tau_cycle_states(lts)
        assert divergent == frozenset({0, 1})
        assert tau_cycle_states(lts) is divergent

    def test_from_edges_packs_per_state_lists_in_order(self):
        a, b = event("a"), event("b")
        env = Environment().bind(
            "P", ExternalChoice(Prefix(a, ref("P")), Prefix(b, SKIP))
        )
        lts = compile_lts(ref("P"), env)
        rebuilt = CompactLTS.from_edges(
            lts.table,
            lts.initial,
            [lts.successors_ids(state) for state in lts.iter_states()],
            lts.terms,
        )
        assert rebuilt.csr_arrays() == lts.csr_arrays()
        assert rebuilt.terms is lts.terms
        assert CompactLTS.from_edges(None, 0, [[], []]).terms == [None, None]


class TestReachableTraces:
    def test_simple_sequence(self):
        a, b = event("a"), event("b")
        lts = compile_lts(sequence(a, b))
        traces = reachable_visible_traces(lts, 3)
        assert (a,) in traces and (a, b) in traces and () in traces
        assert (b,) not in traces

    def test_bounded_by_length(self):
        a = event("a")
        env = Environment().bind("P", Prefix(a, ref("P")))
        lts = compile_lts(ref("P"), env)
        traces = reachable_visible_traces(lts, 2)
        assert (a, a) in traces and (a, a, a) not in traces

    def test_tick_appears_in_traces(self):
        lts = compile_lts(SKIP)
        traces = reachable_visible_traces(lts, 2)
        assert any(tr and tr[-1].is_tick() for tr in traces)
