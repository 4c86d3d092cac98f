"""The on-the-fly product view: parity with the term-level path.

The :class:`~repro.engine.product.ProductLTS` replaces the SOS replay of
compiled component leaves with direct kernel-span synthesis.  The claims
pinned here:

* the product explores state-for-state and edge-for-edge exactly what the
  term-level :class:`~repro.fdr.refine.LazyImplementation` explores (same
  numbering, same event order, same terms behind the states),
* pipeline verdicts, counterexamples and explored-state counts are
  unchanged whether the product view or the lazy SOS path runs the check,
* terms the product cannot synthesise fall back cleanly,
* materialising a spine (eager compilation) builds exactly the automaton
  ``compile_lts`` builds -- arrays, event ids, budget and the terms behind
  counterexamples.
"""

import pytest

from repro.csp import (
    Alphabet,
    CompiledProcess,
    Environment,
    GenParallel,
    Hiding,
    Interleave,
    Renaming,
    Stop,
    StateSpaceLimitExceeded,
    event,
    prefix,
    ref,
)
from repro.csp.lts import compile_lts
from repro.engine import (
    CompilationCache,
    ProductLTS,
    VerificationPipeline,
    component_provenance,
)
from repro.fdr import check_deadlock_free

A, B, C, D = event("a"), event("b"), event("c"), event("d")


def _composed_env():
    env = Environment()
    env.bind("P", prefix(A, prefix(B, ref("P"))))
    env.bind("Q", prefix(A, prefix(B, ref("Q"))))
    env.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B])))
    return env


def _product_for(pipeline, term, model="T"):
    prepared = pipeline.plan.prepare(term, model)
    return prepared, pipeline.plan.product_view(prepared, 10_000)


def _explore_all(impl):
    """Expand every discovered state; edges as (event name, target)."""
    edges = {}
    state = 0
    while state < impl.state_count:
        edges[state] = [
            (str(evt), target) for evt, target in impl.successors(state)
        ]
        state += 1
    return edges


class TestQualification:
    def test_composed_term_gets_a_product_view(self):
        pipeline = VerificationPipeline(_composed_env())
        _prepared, view = _product_for(pipeline, ref("SYS"))
        assert isinstance(view, ProductLTS)

    def test_uncompressed_term_has_no_view(self):
        env = Environment()
        env.bind("P", prefix(A, ref("P")))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("P"), "T")
        assert pipeline.plan.product_view(prepared, 10_000) is None

    def test_bare_compiled_leaf_has_no_view(self):
        pipeline = VerificationPipeline(_composed_env())
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        leaf = prepared.term.left
        assert isinstance(leaf, CompiledProcess)
        assert ProductLTS.for_term(leaf, pipeline.table, 10_000) is None

    def test_degraded_leaf_has_no_view(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        # splice a raw SOS term in place of a compiled leaf
        degraded = GenParallel(
            prepared.term.left, prefix(A, Stop()), Alphabet([A, B])
        )
        assert ProductLTS.for_term(degraded, pipeline.table, 10_000) is None


class TestLazyParity:
    def test_exploration_is_state_for_state_identical(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)
        assert view.state_count == lazy.state_count

    def test_terms_behind_states_match(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        lazy = pipeline.lazy(prepared.term)
        _explore_all(view), _explore_all(lazy)
        for state in range(view.state_count):
            assert repr(view.term_of(state)) == repr(lazy.term_of(state))

    def test_hiding_and_renaming_on_the_spine(self):
        env = _composed_env()
        env.bind(
            "WRAPPED",
            Renaming(Hiding(ref("SYS"), Alphabet([B])), {A: C}),
        )
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("WRAPPED"))
        assert isinstance(view, ProductLTS)
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)

    def test_interleave_on_the_spine(self):
        env = Environment()
        env.bind("L", prefix(A, prefix(B, Stop())))
        env.bind("R", prefix(C, prefix(D, Stop())))
        env.bind("SYS", Interleave(ref("L"), ref("R")))
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        assert isinstance(view, ProductLTS)
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)

    def test_max_states_budget_trips_identically(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        view = pipeline.plan.product_view(prepared, 1)
        lazy = pipeline.lazy(prepared.term, 1)
        with pytest.raises(StateSpaceLimitExceeded):
            _explore_all(view)
        with pytest.raises(StateSpaceLimitExceeded):
            _explore_all(lazy)

    def test_pipeline_verdicts_match_the_sos_paths(self):
        flawed = Environment()
        flawed.bind("P", prefix(A, prefix(B, ref("P"))))
        flawed.bind("Q", prefix(A, prefix(C, prefix(B, ref("Q")))))
        flawed.bind(
            "SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B]))
        )
        for model in ("T", "F"):
            product_run = VerificationPipeline(flawed).refinement(
                ref("P"), ref("SYS"), model
            )
            lazy_run = VerificationPipeline(flawed, passes="none").refinement(
                ref("P"), ref("SYS"), model
            )
            eager_run = VerificationPipeline(flawed, on_the_fly=False).refinement(
                ref("P"), ref("SYS"), model
            )
            assert product_run.passed == lazy_run.passed == eager_run.passed
            if not product_run.passed:
                assert [str(e) for e in product_run.counterexample.trace] == [
                    str(e) for e in lazy_run.counterexample.trace
                ]
                assert (
                    product_run.counterexample.describe()
                    == eager_run.counterexample.describe()
                )


def _assert_same_automaton(pipeline, term, reference_pipeline, reference_term):
    """``pipeline.compile`` equals ``compile_lts``, tables included."""
    materialised = pipeline.compile(term)
    reference = compile_lts(
        reference_term,
        reference_pipeline.env,
        reference_pipeline.max_states,
        reference_pipeline.table,
    )
    assert materialised.csr_arrays() == reference.csr_arrays()
    assert pipeline.table.events() == reference_pipeline.table.events()
    assert list(materialised.terms) == list(reference.terms)
    return materialised


class TestMaterialise:
    def _twins(self, env, name, model="FD", cache=None):
        """Two pipelines that prepared the same term independently."""
        sides = []
        for _ in range(2):
            pipeline = VerificationPipeline(env, cache=cache)
            sides.append((pipeline, pipeline.plan.prepare(ref(name), model).term))
        return sides

    def test_spine_compiles_to_the_sos_automaton(self):
        (pipeline, term), (sos, sos_term) = self._twins(_composed_env(), "SYS")
        assert ProductLTS.for_term(term, pipeline.table) is not None
        lts = _assert_same_automaton(pipeline, term, sos, sos_term)
        assert lts.state_count == 2

    def test_renaming_targets_new_to_the_table(self):
        env = Environment()
        env.bind("P", prefix(B, prefix(A, ref("P"))))
        env.bind("SYS", GenParallel(ref("P"), ref("P"), Alphabet([A, B])))
        # c and d appear nowhere but as renaming targets, so they are interned
        # when their first edge is emitted: c (from b) before d (from a),
        # although the renaming lists a first
        env.bind("WRAPPED", Renaming(ref("SYS"), {A: D, B: C}))
        (pipeline, term), (sos, sos_term) = self._twins(env, "WRAPPED")
        assert pipeline.table.id_of(C) is None and pipeline.table.id_of(D) is None
        _assert_same_automaton(pipeline, term, sos, sos_term)
        assert pipeline.table.events()[-2:] == (C, D)

    def test_leaf_compiled_under_another_table(self):
        env = _composed_env()
        env.bind("WRAPPED", Hiding(ref("SYS"), Alphabet([B])))
        shared = CompilationCache()
        donor = VerificationPipeline(env, cache=shared)
        donor.plan.prepare(ref("WRAPPED"), "FD")
        (pipeline, term), (sos, sos_term) = self._twins(
            env, "WRAPPED", cache=shared
        )
        leaf = term.process.left
        assert leaf.automaton.lts.table is not pipeline.table
        _assert_same_automaton(pipeline, term, sos, sos_term)
        # the hidden b never reaches an edge, so neither side interns it
        assert pipeline.table.id_of(B) is None

    def test_state_budget_trips_identically(self):
        (pipeline, term), (sos, sos_term) = self._twins(_composed_env(), "SYS")
        states = compile_lts(sos_term, sos.env, 100, sos.table).state_count
        for budget in (0, 1, states - 1, states):
            fresh = VerificationPipeline(pipeline.env, table=pipeline.table)
            try:
                fresh.compile(term, budget)
                product_fits = True
            except StateSpaceLimitExceeded:
                product_fits = False
            try:
                compile_lts(sos_term, sos.env, budget, sos.table)
                sos_fits = True
            except StateSpaceLimitExceeded:
                sos_fits = False
            assert product_fits == sos_fits == (budget >= states)

    def test_failing_deadlock_check_keeps_term_and_provenance(self):
        env = Environment()
        env.bind("P", prefix(A, prefix(B, ref("P"))))
        env.bind("Q", prefix(A, prefix(C, ref("Q"))))
        env.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B, C])))
        pipeline = VerificationPipeline(env)
        result = pipeline.property_check(ref("SYS"), "deadlock free")
        assert not result.passed
        sos = VerificationPipeline(env)
        prepared = sos.plan.prepare(ref("SYS"), "FD").term
        expected = check_deadlock_free(
            compile_lts(prepared, env, sos.max_states, sos.table)
        ).counterexample
        violation = result.counterexample
        assert violation.describe() == expected.describe()
        assert violation.impl_term == expected.impl_term
        assert violation.provenance == component_provenance(expected.impl_term)
        assert [entry.label for entry in violation.provenance] == ["P", "Q"]
