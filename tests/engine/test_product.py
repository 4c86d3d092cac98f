"""The product generator: every shape explores what ``compile_lts`` builds.

The :class:`~repro.engine.product.ProductLTS` is the one on-the-fly
generator: the pipeline hands every ``[T=`` / ``[F=`` implementation to
:meth:`~repro.engine.VerificationPipeline.lazy`.  The claims pinned here:

* every term gets a product: a synthesised spine over compiled leaves, one
  kernel leaf for a bare compiled process, or one SOS leaf for anything
  else (no composition, a spine with a degraded component);
* expanding a product in id order is breadth-first search, so each shape
  explores state-for-state and edge-for-edge exactly the automaton
  ``compile_lts`` builds from the same term (same numbering, same event
  ids, same terms behind the states, same state budget);
* pipeline verdicts, counterexamples and explored counts are the same on
  the fly and eager, for every shape;
* materialising a spine (eager compilation) builds exactly the automaton
  ``compile_lts`` builds -- arrays, event ids, budget and the terms behind
  counterexamples.
"""

import pytest

from repro.csp import (
    Alphabet,
    CompiledProcess,
    Environment,
    Event,
    GenParallel,
    Hiding,
    Interleave,
    Renaming,
    Stop,
    StateSpaceLimitExceeded,
    event,
    external_choice,
    interleave_all,
    internal_choice,
    prefix,
    ref,
)
from repro.csp.lts import TermNestingExceeded, compile_lts
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


def _degraded_env():
    """SYS's left component alone exceeds a budget of 5, SYS does not."""
    env = Environment()
    chain = Stop()
    for _ in range(10):
        chain = prefix(A, chain)
    env.bind("LONG", chain)
    env.bind("SHORT", prefix(A, prefix(A, Stop())))
    env.bind("SYS", GenParallel(ref("LONG"), ref("SHORT"), Alphabet([A])))
    return env


def _boxed_env():
    """TOP has a composition, but not on its spine: it compiles whole."""
    env = _composed_env()
    env.bind("TOP", prefix(C, ref("SYS")))
    return env


#: (environment, process name, state budget, expected product shape)
_SHAPES = {
    "spine": (_composed_env, "SYS", 10_000, "spine"),
    "bare-leaf": (_boxed_env, "TOP", 10_000, "leaf"),
    "degraded-spine": (_degraded_env, "SYS", 5, "sos"),
    "uncomposed": (_composed_env, "P", 10_000, "sos"),
}


def _shape(view):
    if view.sos:
        return "sos"
    return "leaf" if isinstance(view.term_of(0), CompiledProcess) else "spine"


def _twins(env, name, max_states=10_000, model="T", cache=None):
    """Two pipelines that prepared the same term independently."""
    sides = []
    for _ in range(2):
        pipeline = VerificationPipeline(env, cache=cache, max_states=max_states)
        sides.append((pipeline, pipeline.plan.prepare(ref(name), model).term))
    return sides


def _as_csr(view):
    """Expand every state of *view* in id order; its edges as CSR lists."""
    offsets, events, targets = [0], [], []
    state = 0
    while state < view.state_count:
        for eid, target in view.successors_ids(state):
            events.append(eid)
            targets.append(target)
        offsets.append(len(events))
        state += 1
    return offsets, events, targets


def _assert_explores_like_compile_lts(env, name, max_states=10_000, cache=None):
    """``pipeline.lazy`` explores what ``compile_lts`` builds, tables included."""
    (pipeline, term), (eager, eager_term) = _twins(
        env, name, max_states, cache=cache
    )
    view = pipeline.lazy(term)
    reference = compile_lts(eager_term, eager.env, max_states, table=eager.table)
    assert _as_csr(view) == tuple(list(a) for a in reference.csr_arrays())
    assert view.state_count == reference.state_count
    assert pipeline.table.events() == eager.table.events()
    assert [view.term_of(s) for s in range(view.state_count)] == list(
        reference.terms
    )
    return view, term


class TestQualification:
    def test_composed_term_gets_a_product_view(self):
        pipeline = VerificationPipeline(_composed_env())
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        view = pipeline.lazy(prepared.term)
        assert isinstance(view, ProductLTS) and not view.sos
        assert len(view.component_states(0)) == 2

    def test_uncompressed_term_gets_an_sos_view(self):
        env = Environment()
        env.bind("P", prefix(A, ref("P")))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("P"), "T")
        view = pipeline.lazy(prepared.term)
        assert view.sos
        assert view.component_states(0) == (ref("P"),)

    def test_bare_compiled_leaf_gets_a_kernel_view(self):
        pipeline = VerificationPipeline(_composed_env())
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        leaf = prepared.term.left
        assert isinstance(leaf, CompiledProcess)
        view = ProductLTS.for_term(leaf, pipeline.table, 10_000)
        assert not view.sos
        assert view.component_states(0) == (leaf.state,)

    def test_degraded_spine_gets_an_sos_view(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        # splice a raw SOS term in place of a compiled leaf
        degraded = GenParallel(
            prepared.term.left, prefix(A, Stop()), Alphabet([A, B])
        )
        view = ProductLTS.for_term(degraded, pipeline.table, 10_000, env)
        assert view.sos
        assert view.term_of(0) is degraded

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_the_plan_yields_each_shape(self, shape):
        make_env, name, budget, expected = _SHAPES[shape]
        pipeline = VerificationPipeline(make_env(), max_states=budget)
        prepared = pipeline.plan.prepare(ref(name), "T")
        assert _shape(pipeline.lazy(prepared.term)) == expected
        if shape == "degraded-spine":
            assert isinstance(prepared.term, GenParallel)
            assert not isinstance(prepared.term.left, CompiledProcess)
            assert isinstance(prepared.term.right, CompiledProcess)


class TestLazyParity:
    def test_exploration_is_state_for_state_identical(self):
        view, _term = _assert_explores_like_compile_lts(_composed_env(), "SYS")
        assert view.state_count == 2

    def test_terms_behind_states_match(self):
        (pipeline, term), (eager, eager_term) = _twins(_composed_env(), "SYS")
        view = pipeline.lazy(term)
        reference = compile_lts(eager_term, eager.env, table=eager.table)
        _as_csr(view)
        for state in range(view.state_count):
            assert repr(view.term_of(state)) == repr(reference.terms[state])

    def test_hiding_and_renaming_on_the_spine(self):
        env = _composed_env()
        env.bind(
            "WRAPPED",
            Renaming(Hiding(ref("SYS"), Alphabet([B])), {A: C}),
        )
        view, _term = _assert_explores_like_compile_lts(env, "WRAPPED")
        assert not view.sos

    def test_interleave_on_the_spine(self):
        env = Environment()
        env.bind("L", prefix(A, prefix(B, Stop())))
        env.bind("R", prefix(C, prefix(D, Stop())))
        env.bind("SYS", Interleave(ref("L"), ref("R")))
        view, _term = _assert_explores_like_compile_lts(env, "SYS")
        assert not view.sos

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_each_shape_explores_like_compile_lts(self, shape):
        make_env, name, budget, _expected = _SHAPES[shape]
        _assert_explores_like_compile_lts(make_env(), name, budget)

    def test_bare_leaf_compiled_under_another_table(self):
        env = _boxed_env()
        shared = CompilationCache()
        VerificationPipeline(env, cache=shared).plan.prepare(ref("TOP"), "T")
        view, term = _assert_explores_like_compile_lts(env, "TOP", cache=shared)
        assert _shape(view) == "leaf"
        assert term.automaton.lts.table is not view.table

    def test_max_states_budget_trips_identically(self):
        for make_env, name, budget, _expected in _SHAPES.values():
            env = make_env()
            (pipeline, term), (eager, eager_term) = _twins(env, name, budget)
            states = compile_lts(eager_term, env, budget).state_count
            cache = CompilationCache()
            for limit in sorted({0, 1, states - 1, states}):
                lazy = VerificationPipeline(
                    env, table=pipeline.table, cache=cache, max_states=limit
                )
                try:
                    _as_csr(lazy.lazy(term))
                    lazy_fits = True
                except StateSpaceLimitExceeded:
                    lazy_fits = False
                try:
                    compile_lts(eager_term, env, limit, eager.table)
                    eager_fits = True
                except StateSpaceLimitExceeded:
                    eager_fits = False
                assert lazy_fits == eager_fits == (limit >= states), name

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_on_the_fly_results_equal_eager_ones(self, shape):
        make_env, name, budget, _expected = _SHAPES[shape]
        env = make_env()
        env.bind("SPEC", prefix(A, ref("SPEC")))
        for model in ("T", "F"):
            lazy = VerificationPipeline(env, max_states=budget).refinement(
                ref("SPEC"), ref(name), model
            )
            eager = VerificationPipeline(
                env, max_states=budget, on_the_fly=False
            ).refinement(ref("SPEC"), ref(name), model)
            assert lazy.summary() == eager.summary()
            assert (lazy.states_explored, lazy.transitions_explored) == (
                eager.states_explored,
                eager.transitions_explored,
            )

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


class TestRunawayTerms:
    def test_both_explorers_raise_one_typed_error(self, shallow_stack):
        env = Environment()
        env.bind("P", Hiding(prefix(A, prefix(B, ref("P"))), Alphabet([A, B])))
        with shallow_stack(120):
            with pytest.raises(TermNestingExceeded):
                _as_csr(VerificationPipeline(env).lazy(ref("P")))
            with pytest.raises(TermNestingExceeded):
                compile_lts(ref("P"), env)


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
    def test_spine_compiles_to_the_sos_automaton(self):
        (pipeline, term), (sos, sos_term) = _twins(_composed_env(), "SYS", model="FD")
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
        (pipeline, term), (sos, sos_term) = _twins(env, "WRAPPED", model="FD")
        assert pipeline.table.id_of(C) is None and pipeline.table.id_of(D) is None
        _assert_same_automaton(pipeline, term, sos, sos_term)
        assert pipeline.table.events()[-2:] == (C, D)

    def test_leaf_compiled_under_another_table(self):
        env = _composed_env()
        env.bind("WRAPPED", Hiding(ref("SYS"), Alphabet([B])))
        shared = CompilationCache()
        donor = VerificationPipeline(env, cache=shared)
        donor.plan.prepare(ref("WRAPPED"), "FD")
        (pipeline, term), (sos, sos_term) = _twins(
            env, "WRAPPED", model="FD", cache=shared
        )
        leaf = term.process.left
        assert leaf.automaton.lts.table is not pipeline.table
        _assert_same_automaton(pipeline, term, sos, sos_term)
        # the hidden b never reaches an edge, so neither side interns it
        assert pipeline.table.id_of(B) is None

    def test_state_budget_trips_identically(self):
        (pipeline, term), (sos, sos_term) = _twins(_composed_env(), "SYS", model="FD")
        states = compile_lts(sos_term, sos.env, 100, sos.table).state_count
        cache = CompilationCache()
        for budget in (0, 1, states - 1, states):
            fresh = VerificationPipeline(
                pipeline.env, table=pipeline.table, cache=cache, max_states=budget
            )
            try:
                fresh.compile(term)
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


class TestWideSpine:
    """A product code is an unbounded int: past ``2**64`` nothing changes."""

    LEAVES = 70

    def _env(self):
        env = Environment()
        allowed = []
        for i in range(self.LEAVES):
            a, b = Event("a", (i,)), Event("b", (i,))
            env.bind("L{}".format(i), prefix(a, prefix(b, ref("L{}".format(i)))))
            allowed.append(a)
            if i != self.LEAVES - 1:
                allowed.append(b)
        # every trace but the last leaf's b (violated after <a.69>), and
        # every refusal, so [F= fails where [T= does
        env.bind(
            "SPEC",
            internal_choice(
                Stop(), external_choice(*(prefix(e, ref("SPEC")) for e in allowed))
            ),
        )
        return env

    def _system(self):
        return interleave_all(*(ref("L{}".format(i)) for i in range(self.LEAVES)))

    def test_the_last_leaf_weighs_more_than_64_bits(self):
        pipeline = VerificationPipeline(self._env())
        view = pipeline.lazy(pipeline.plan.prepare(self._system(), "T").term)
        assert not view.sos
        moves = view.successors(0)
        assert str(moves[-1][0]) == "a.69"
        last = view.component_states(moves[-1][1])
        assert last == (0,) * (self.LEAVES - 1) + (1,)
        assert 2 ** (self.LEAVES - 1) > 2**64

    @pytest.mark.parametrize("model", ["T", "F"])
    def test_same_result_as_the_sos_leaf(self, model):
        env = self._env()
        spine = VerificationPipeline(env).refinement(
            ref("SPEC"), self._system(), model
        )
        sos = VerificationPipeline(env, passes="none").refinement(
            ref("SPEC"), self._system(), model
        )
        assert not spine.passed
        assert [str(e) for e in spine.counterexample.trace] == ["a.69"]
        assert spine.counterexample.describe() == sos.counterexample.describe()
        assert (spine.states_explored, spine.transitions_explored) == (
            sos.states_explored,
            sos.transitions_explored,
        )
