"""The shared verification pipeline: interning, caching, on-the-fly search.

Three claims are pinned here:

* the alphabet table is a faithful bijection (Event -> id -> Event),
* the compilation cache hits on structurally equal terms and misses when a
  reachable binding differs,
* the on-the-fly product search is *observably identical* to the eager one:
  same verdicts and the same counterexample traces, on the case-study
  models (including the seeded-defect ECU from ``ota/data/ecu_flawed.can``).
"""

import pathlib

import pytest

import repro.csp.kernel as kernel_module
import repro.engine.pipeline as pipeline_module
import repro.fdr.refine as refine_module
from repro.csp import (
    TAU,
    TAU_ID,
    TICK,
    TICK_ID,
    Alphabet,
    AlphabetTable,
    Environment,
    Event,
    GenParallel,
    Hiding,
    Prefix,
    ProcessRef,
    StateSpaceLimitExceeded,
    Stop,
    external_choice,
)
from repro.csp.lts import TermNestingExceeded
from repro.engine import CompilationCache, VerificationPipeline, structural_key
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.scenario import extract_system

DATA_DIR = pathlib.Path(__file__).parents[2] / "src" / "repro" / "ota" / "data"


# -- alphabet table ------------------------------------------------------------------


def test_table_round_trips_events():
    table = AlphabetTable()
    events = [Event("send", ("reqSw",)), Event("rec", ("rptSw", 7))]
    ids = [table.intern(event) for event in events]
    assert [table.event_of(i) for i in ids] == events
    # interning is idempotent: same event, same id
    assert [table.intern(event) for event in events] == ids


def test_table_reserves_tau_and_tick():
    table = AlphabetTable()
    assert table.id_of(TAU) == TAU_ID
    assert table.id_of(TICK) == TICK_ID
    assert table.event_of(TAU_ID) == TAU
    assert table.event_of(TICK_ID) == TICK


def test_table_bitset_round_trip():
    table = AlphabetTable()
    events = frozenset(Event("c", (i,)) for i in range(5))
    bits = table.encode_set(events)
    assert set(table.decode_bits(bits)) == events


# -- compilation cache ---------------------------------------------------------------


def _server(env, name="P"):
    a, b = Event("c", ("a",)), Event("c", ("b",))
    env.bind(name, external_choice(Prefix(a, ProcessRef(name)), Prefix(b, Stop())))
    return ProcessRef(name)


def test_cache_hits_on_structurally_equal_terms():
    pipeline = VerificationPipeline(Environment())
    process = _server(pipeline.env)
    first = pipeline.compile(process)
    second = pipeline.compile(ProcessRef("P"))
    assert second is first
    stats = pipeline.stats()
    assert stats["lts_hits"] == 1 and stats["lts_misses"] == 1


def test_cache_is_shared_across_rebuilt_environments():
    # two sessions, each building its own env with the same definitions,
    # share compiles because keys are structural, not identity-based
    cache = CompilationCache()
    for expected_hits in (0, 1):
        env = Environment()
        pipeline = VerificationPipeline(env, cache=cache)
        pipeline.compile(_server(env))
        assert cache.lts_hits == expected_hits


def test_cache_misses_when_a_reachable_binding_differs():
    env_a, env_b = Environment(), Environment()
    key_a = structural_key(_server(env_a), env_a)
    ref_b = _server(env_b)
    env_b.bind("P", Prefix(Event("c", ("a",)), ProcessRef("P")))
    assert structural_key(ref_b, env_b) != key_a


def test_cached_lts_respects_smaller_budgets():
    cache = CompilationCache()
    chain = Prefix(Event("c", (0,)), Prefix(Event("c", (1,)), Prefix(Event("c", (2,)), Stop())))
    VerificationPipeline(Environment(), cache=cache).compile(chain)
    small = VerificationPipeline(Environment(), cache=cache, max_states=2)
    with pytest.raises(StateSpaceLimitExceeded):
        small.compile(chain)
    assert cache.lts_misses == 1


# -- lazy vs eager equivalence -------------------------------------------------------


def _check_both_ways(ecu_source):
    """Run every composed assertion lazily and eagerly; return paired results."""
    pairs = []
    for on_the_fly in (True, False):
        model = extract_system(ecu_source).load()
        pipeline = VerificationPipeline(model.env, on_the_fly=on_the_fly)
        pairs.append(model.check_assertions(pipeline=pipeline))
    return list(zip(*pairs))


def _assert_observably_identical(lazy_result, eager_result):
    assert lazy_result.passed == eager_result.passed
    lazy_cx, eager_cx = lazy_result.counterexample, eager_result.counterexample
    if eager_cx is None:
        assert lazy_cx is None
        return
    assert lazy_cx.trace == eager_cx.trace
    assert getattr(lazy_cx, "forbidden", None) == getattr(eager_cx, "forbidden", None)


def test_lazy_equals_eager_on_correct_ecu():
    results = _check_both_ways(ECU_SOURCE)
    assert results, "no assertions were checked"
    for lazy_result, eager_result in results:
        assert lazy_result.passed
        _assert_observably_identical(lazy_result, eager_result)


def test_lazy_equals_eager_on_flawed_ecu():
    results = _check_both_ways(ECU_FLAWED_SOURCE)
    failing = [pair for pair in results if not pair[1].passed]
    assert failing, "the seeded defect must fail at least one assertion"
    for lazy_result, eager_result in results:
        _assert_observably_identical(lazy_result, eager_result)


def test_lazy_equals_eager_on_flawed_ecu_data_file():
    source = (DATA_DIR / "ecu_flawed.can").read_text(encoding="utf-8")
    results = _check_both_ways(source)
    assert any(not eager.passed for _lazy, eager in results)
    for lazy_result, eager_result in results:
        _assert_observably_identical(lazy_result, eager_result)


def test_on_the_fly_stops_before_full_state_space():
    # a violation near the root: the lazy search must not expand the long tail
    env = Environment()
    bad = Event("c", ("bad",))
    tail = Stop()
    for step in range(60):
        tail = Prefix(Event("c", ("step", step)), tail)
    env.bind("IMPL", external_choice(Prefix(bad, Stop()), Prefix(Event("c", ("step", 59)), tail)))
    env.bind("SPEC", Prefix(Event("c", ("step", 59)), ProcessRef("SPEC")))
    pipeline = VerificationPipeline(env)
    impl = pipeline.lazy(ProcessRef("IMPL"))
    from repro.fdr import check_trace_refinement_from

    result = check_trace_refinement_from(pipeline.normalised(ProcessRef("SPEC")), impl)
    assert not result.passed
    assert impl.state_count < 30


# -- failed compiles -----------------------------------------------------------------


def _generated(monkeypatch, *pipelines):
    """The processes whose compile reaches a pipeline's state-space generator."""
    reached = []
    for pipeline in pipelines:

        def counting(process, generate=pipeline._generate):
            reached.append(process)
            return generate(process)

        monkeypatch.setattr(pipeline, "_generate", counting)
    return reached


def _chain(length, name="c"):
    process = Stop()
    for step in range(length):
        process = Prefix(Event(name, (step,)), process)
    return process


def test_a_failed_compile_is_remembered_per_budget(monkeypatch):
    cache = CompilationCache()
    small, again, large = (
        VerificationPipeline(Environment(), cache=cache, max_states=budget)
        for budget in (3, 3, 10)
    )
    reached = _generated(monkeypatch, small, again, large)
    chain = _chain(5)
    errors = []
    for pipeline in (small, again):
        with pytest.raises(StateSpaceLimitExceeded) as caught:
            pipeline.compile(chain)
        errors.append(caught.value)
    assert len(reached) == 1
    # a fresh exception each time, of the same type and text
    assert errors[1] is not errors[0]
    assert type(errors[1]) is type(errors[0])
    assert str(errors[1]) == str(errors[0])
    assert not any("fail" in key for key in small.stats())
    # another budget is another compile, and clear() forgets the failure
    assert large.compile(chain).state_count == 6
    cache.clear()
    with pytest.raises(StateSpaceLimitExceeded):
        small.compile(chain)
    assert len(reached) == 3


def test_a_term_nesting_failure_is_remembered(monkeypatch, shallow_stack):
    a, b = Event("c", ("a",)), Event("c", ("b",))
    env = Environment()
    env.bind("P", Hiding(Prefix(a, Prefix(b, ProcessRef("P"))), Alphabet([a, b])))
    pipeline = VerificationPipeline(env)
    reached = _generated(monkeypatch, pipeline)
    texts = []
    with shallow_stack(120):
        for _ in range(2):
            with pytest.raises(TermNestingExceeded) as caught:
                pipeline.compile(ProcessRef("P"))
            texts.append(str(caught.value))
    assert len(reached) == 1
    assert texts[0] == texts[1]


def test_a_component_over_budget_is_explored_once_across_assertions(monkeypatch):
    # LONG alone exceeds the budget, so each assertion's plan leaves it in
    # SOS form; the second plan must not explore it again to find that out
    a = Event("c", ("a",))
    env = Environment()
    env.bind("LONG", _chain(10, "a"))
    env.bind("SHORT", Prefix(Event("a", (0,)), Prefix(Event("a", (1,)), Stop())))
    env.bind(
        "SYS",
        GenParallel(ProcessRef("LONG"), ProcessRef("SHORT"), Alphabet([a])),
    )
    pipeline = VerificationPipeline(env, max_states=5)
    reached = _generated(monkeypatch, pipeline)
    results = [
        pipeline.refinement(ProcessRef("SHORT"), ProcessRef("SYS"), model)
        for model in ("T", "F")
    ]
    assert reached.count(ProcessRef("LONG")) == 1
    # the degraded term is still searched on the fly, not short-circuited
    assert all(result.states_explored > 0 for result in results)


def test_a_cached_component_honours_the_pipeline_budget():
    # a default-budget pipeline compresses LONG (11 states) into the shared
    # cache; a budget-5 pipeline over that cache must still leave LONG in
    # SOS form, as a budget-5 pipeline over a fresh cache does
    a = Event("c", ("a",))
    long = Stop()
    for _ in range(10):
        long = Prefix(a, long)
    env = Environment()
    env.bind("LONG", long)
    env.bind("SHORT", Prefix(Event("a", (0,)), Prefix(Event("a", (1,)), Stop())))
    env.bind(
        "SYS",
        GenParallel(ProcessRef("LONG"), ProcessRef("SHORT"), Alphabet([a])),
    )
    cache = CompilationCache()
    VerificationPipeline(env, cache=cache).refinement(
        ProcessRef("SHORT"), ProcessRef("SYS"), "T"
    )
    hits = cache.compressed_hits
    fresh = VerificationPipeline(env, max_states=5)
    shared = VerificationPipeline(env, cache=cache, max_states=5)
    results = [
        pipeline.refinement(ProcessRef("SHORT"), ProcessRef("SYS"), "T")
        for pipeline in (fresh, shared)
    ]
    assert [len(result.pass_stats) for result in results] == [4, 4]
    assert [(result.passed, result.states_explored) for result in results] == [
        (True, 3),
        (True, 3),
    ]
    # SHORT's component is adopted; LONG's is refused and counts no hit
    assert cache.compressed_hits == hits + 1


# -- what [FD= shares with the other checks ------------------------------------------


def test_a_second_fd_check_reuses_the_normalised_spec(monkeypatch):
    env = Environment()
    spec = _server(env)
    pipeline = VerificationPipeline(env)
    first = pipeline.refinement(spec, spec, "FD")
    hits = pipeline.cache.normalised_hits
    calls = []
    for module in (pipeline_module, refine_module):
        original = module.normalise
        monkeypatch.setattr(
            module,
            "normalise",
            lambda *args, _original=original, **kwargs: calls.append(args)
            or _original(*args, **kwargs),
        )
    second = pipeline.refinement(spec, Prefix(Event("c", ("a",)), Stop()), "FD")
    assert first.passed and not second.passed
    assert pipeline.cache.normalised_hits == hits + 1
    assert calls == []


def test_divergent_states_are_found_once_per_automaton(monkeypatch):
    a, b = Event("c", ("a",)), Event("c", ("b",))
    env = Environment()
    env.bind("Q", Prefix(a, Prefix(b, ProcessRef("Q"))))
    env.bind("R", Prefix(a, Prefix(b, ProcessRef("R"))))
    env.bind(
        "SYS",
        Hiding(
            GenParallel(ProcessRef("Q"), ProcessRef("R"), Alphabet([a, b])),
            Alphabet([a, b]),
        ),
    )
    seen = []
    original = kernel_module.tau_scc_of
    monkeypatch.setattr(
        kernel_module, "tau_scc_of", lambda lts: seen.append(lts) or original(lts)
    )
    pipeline = VerificationPipeline(env)
    fd = pipeline.refinement(Stop(), ProcessRef("SYS"), "FD")
    divergence = pipeline.property_check(ProcessRef("SYS"), "divergence free")
    assert not fd.passed and not divergence.passed
    system = pipeline.compile(pipeline.plan.prepare(ProcessRef("SYS"), "FD").term)
    assert sum(lts is system for lts in seen) == 1
    assert len({id(lts) for lts in seen}) == len(seen)
