"""Unit tests for specification normalisation."""

from repro.csp import (
    Alphabet,
    Environment,
    ExternalChoice,
    Hiding,
    InternalChoice,
    Prefix,
    SKIP,
    STOP,
    compile_lts,
    event,
    ref,
    sequence,
)
from repro.fdr import minimal_sets, normalise, tau_cycle_states

A, B, C = event("a"), event("b"), event("c")


class TestMinimalSets:
    def test_keeps_only_minimal(self):
        sets = {frozenset({A}), frozenset({A, B}), frozenset({C})}
        result = set(minimal_sets(sets))
        assert result == {frozenset({A}), frozenset({C})}

    def test_empty_set_dominates(self):
        sets = {frozenset(), frozenset({A})}
        assert set(minimal_sets(sets)) == {frozenset()}

    def test_deterministic_order(self):
        sets = {frozenset({B}), frozenset({A})}
        assert minimal_sets(sets) == minimal_sets(sets)


class TestTauCycles:
    def test_no_taus_no_divergence(self):
        lts = compile_lts(sequence(A, B))
        assert tau_cycle_states(lts) == frozenset()

    def test_hidden_loop_diverges(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        lts = compile_lts(Hiding(ref("P"), Alphabet.of(A)), env)
        assert len(tau_cycle_states(lts)) > 0

    def test_two_state_tau_cycle_diverges(self):
        # Q = a -> b -> Q with both events hidden: one tau cycle through
        # two states, so both are divergent
        env = Environment().bind("Q", Prefix(A, Prefix(B, ref("Q"))))
        lts = compile_lts(Hiding(ref("Q"), Alphabet.of(A, B)), env)
        assert lts.state_count == 2
        assert tau_cycle_states(lts) == frozenset({0, 1})

    def test_single_tau_step_is_not_divergence(self):
        lts = compile_lts(InternalChoice(STOP, STOP))
        assert tau_cycle_states(lts) == frozenset()

    def test_long_tau_chain_no_cycle(self):
        # nested internal choices: many taus, no cycle
        process = InternalChoice(
            InternalChoice(STOP, SKIP), InternalChoice(STOP, SKIP)
        )
        lts = compile_lts(process)
        assert tau_cycle_states(lts) == frozenset()


class TestNormalise:
    def test_deterministic_process_is_isomorphic(self):
        lts = compile_lts(sequence(A, B))
        spec = normalise(lts)
        assert spec.node_count == 3
        assert spec.after(spec.initial, A) is not None
        assert spec.after(spec.initial, B) is None

    def test_subset_construction_merges_nondeterminism(self):
        # a -> STOP [] a -> (b -> STOP): after <a> both states live in one node
        process = ExternalChoice(Prefix(A, STOP), Prefix(A, Prefix(B, STOP)))
        spec = normalise(compile_lts(process))
        after_a = spec.after(spec.initial, A)
        assert after_a is not None
        assert len(spec.members[after_a]) == 2
        assert spec.after(after_a, B) is not None

    def test_tau_closure_in_initial_node(self):
        process = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        spec = normalise(compile_lts(process))
        assert set(spec.afters[spec.initial]) == {A, B}

    def test_acceptances_record_stable_offers(self):
        process = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        spec = normalise(compile_lts(process))
        acceptances = set(spec.acceptances[spec.initial])
        assert frozenset({A}) in acceptances
        assert frozenset({B}) in acceptances

    def test_allows_stable_refusal(self):
        process = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        spec = normalise(compile_lts(process))
        node = spec.initial
        # offering only {a} is fine: a stable spec state accepts exactly {a}
        assert spec.allows_stable_refusal(node, frozenset({A}))
        # offering nothing at all is not
        assert not spec.allows_stable_refusal(node, frozenset())

    def test_divergent_node_flagged(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        lts = compile_lts(Hiding(ref("P"), Alphabet.of(A)), env)
        spec = normalise(lts)
        assert spec.divergent[spec.initial]

    def test_events_query(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, SKIP))
        spec = normalise(compile_lts(process))
        assert spec.events(spec.initial) == frozenset({A, B})
