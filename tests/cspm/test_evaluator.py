"""Unit tests for the CSPm evaluator (scripts down to core processes)."""

import pytest

from repro.csp import (
    Alphabet,
    ExternalChoice,
    GenParallel,
    Interleave,
    Prefix,
    ProcessRef,
    SKIP,
    STOP,
    StateSpaceLimitExceeded,
    event,
)
from repro.cspm import CspmEvaluationError, load
from repro.cspm.prelude import SP02_FLAWED_SCRIPT, SP02_SCRIPT
from repro.engine import VerificationPipeline


class TestTypesAndChannels:
    def test_datatype_constructors_registered(self):
        model = load("datatype msgs = reqSw | rptSw")
        assert model.datatypes["msgs"] == ("reqSw", "rptSw")
        assert model.constructors["reqSw"] == "msgs"

    def test_duplicate_datatype_rejected(self):
        with pytest.raises(CspmEvaluationError):
            load("datatype t = a\ndatatype t = b")

    def test_duplicate_constructor_rejected(self):
        with pytest.raises(CspmEvaluationError):
            load("datatype t = a\ndatatype u = a")

    def test_nametype_range(self):
        model = load("nametype Small = {0..3}")
        assert model.nametypes["Small"] == (0, 1, 2, 3)

    def test_channel_domains(self):
        model = load("datatype msgs = x | y\nchannel send, rec : msgs")
        assert model.channels["send"].field_domains == (("x", "y"),)
        assert model.channels["rec"].arity == 1

    def test_channel_inline_set_type(self):
        model = load("channel c : {0..2}")
        assert model.channels["c"].field_domains == ((0, 1, 2),)

    def test_wide_domain_input_prefix_builds_every_event(self):
        # membership is one set lookup per field, so this loads in linear time
        model = load("channel c : {0..20000}\nP = c?x -> P\n")
        body, initials = model.env.resolve("P"), []
        while isinstance(body, ExternalChoice):
            initials.append(body.left.event)
            body = body.right
        initials.append(body.event)
        assert len(initials) == 20001
        assert initials == list(model.channels["c"].events())

    def test_multi_field_channel(self):
        model = load("datatype m = a | b\nnametype N = {0..1}\nchannel c : m.N")
        assert model.channels["c"].arity == 2

    def test_events_constant(self):
        model = load("datatype m = a | b\nchannel c : m")
        assert len(model.events()) == 2


class TestProcessEvaluation:
    def test_stop_and_skip(self):
        model = load("P = STOP\nQ = SKIP")
        assert model.env.resolve("P") == STOP
        assert model.env.resolve("Q") == SKIP

    def test_output_prefix(self):
        model = load("datatype m = a\nchannel c : m\nP = c!a -> STOP")
        assert model.env.resolve("P") == Prefix(event("c", "a"), STOP)

    def test_input_prefix_expands_to_choice(self):
        model = load("datatype m = a | b\nchannel c : m\nP = c?x -> STOP")
        process = model.env.resolve("P")
        assert process == ExternalChoice(
            Prefix(event("c", "a"), STOP), Prefix(event("c", "b"), STOP)
        )

    def test_input_variable_usable_downstream(self):
        model = load(
            "datatype m = a | b\nchannel c, d : m\nP = c?x -> d!x -> STOP"
        )
        process = model.env.resolve("P")
        # each branch echoes its own value
        left, right = process.left, process.right
        assert left.continuation.event.fields == left.event.fields
        assert right.continuation.event.fields == right.event.fields

    def test_input_restriction(self):
        model = load("channel c : {0..3}\nP = c?x:{0..1} -> STOP")
        process = model.env.resolve("P")
        assert process == ExternalChoice(
            Prefix(event("c", 0), STOP), Prefix(event("c", 1), STOP)
        )

    def test_parallel_with_enum_set(self):
        model = load(
            "datatype m = a\nchannel c : m\nP = STOP\nQ = STOP\nS = P [| {| c |} |] Q"
        )
        process = model.env.resolve("S")
        assert isinstance(process, GenParallel)
        assert event("c", "a") in process.sync

    def test_alphabetised_parallel_syncs_on_intersection(self):
        model = load(
            "datatype m = a\nchannel c, d, e : m\n"
            "S = STOP [ union({|c|},{|d|}) || union({|d|},{|e|}) ] STOP"
        )
        process = model.env.resolve("S")
        assert process.sync == Alphabet.of(event("d", "a"))

    def test_guard_true_and_false(self):
        model = load("P = 1 == 1 & SKIP\nQ = 1 == 2 & SKIP")
        assert model.env.resolve("P") == SKIP
        assert model.env.resolve("Q") == STOP

    def test_if_expression(self):
        model = load("P = if 2 > 1 then SKIP else STOP")
        assert model.env.resolve("P") == SKIP

    def test_let_within(self):
        model = load("P = let X = SKIP within X")
        assert model.env.resolve("P") == SKIP

    def test_replicated_choice(self):
        model = load("channel c : {0..2}\nP = [] x : {0..2} @ c!x -> STOP")
        process = model.env.resolve("P")
        assert process == ExternalChoice(
            Prefix(event("c", 0), STOP),
            ExternalChoice(Prefix(event("c", 1), STOP), Prefix(event("c", 2), STOP)),
        )

    def test_replicated_interleave(self):
        model = load("channel c : {0..1}\nP = ||| x : {0..1} @ c!x -> STOP")
        assert isinstance(model.env.resolve("P"), Interleave)

    def test_renaming_channel_wise(self):
        model = load(
            "datatype m = a | b\nchannel c, d : m\nP = (c!a -> STOP)[[c <- d]]"
        )
        process = model.env.resolve("P")
        assert process.rename_event(event("c", "a")) == event("d", "a")

    def test_hide_events(self):
        model = load("datatype m = a\nchannel c : m\nP = (c!a -> STOP) \\ {| c |}")
        process = model.env.resolve("P")
        assert event("c", "a") in process.hidden


class TestParameterisedProcesses:
    def test_instantiation_on_demand(self):
        model = load(
            "channel c : {0..2}\n"
            "COUNT(n) = if n == 2 then STOP else c!n -> COUNT(n + 1)\n"
            "P = COUNT(0)"
        )
        process = model.env.resolve("P")
        assert process == ProcessRef("COUNT(0)")
        assert "COUNT(1)" in model.env

    def test_wrong_arity_rejected(self):
        with pytest.raises(CspmEvaluationError):
            load("P(x) = STOP\nQ = P(1, 2)")

    def test_bare_use_of_parameterised_rejected(self):
        with pytest.raises(CspmEvaluationError):
            load("P(x) = STOP\nQ = P")

    def test_public_process_accessor(self):
        model = load("P(x) = STOP")
        instance = model.process("P", 1)
        assert instance == ProcessRef("P(1)")

    def test_recursive_instantiation_terminates(self):
        model = load(
            "channel c : {0..1}\nTOGGLE(b) = c!b -> TOGGLE(1 - b)\nP = TOGGLE(0)"
        )
        assert "TOGGLE(0)" in model.env and "TOGGLE(1)" in model.env


class TestErrors:
    def test_undefined_process(self):
        with pytest.raises(CspmEvaluationError):
            load("P = QUNDEFINED")

    def test_undeclared_channel_prefix(self):
        with pytest.raises(CspmEvaluationError):
            load("P = nochannel!1 -> STOP")

    def test_field_count_mismatch(self):
        with pytest.raises(CspmEvaluationError):
            load("datatype m = a\nchannel c : m\nP = c -> STOP")

    def test_duplicate_channel(self):
        with pytest.raises(CspmEvaluationError):
            load("channel c : {0..1}\nchannel c : {0..1}")

    def test_range_over_constructors(self):
        with pytest.raises(CspmEvaluationError, match=r"^set range \{x\.\.y\} needs integer bounds$"):
            load("datatype m = x | y\nchannel c : {x..y}")


class TestAssertions:
    def test_paper_script_passes(self):
        model = load(SP02_SCRIPT)
        (result,) = model.check_assertions()
        assert result.passed

    def test_flawed_script_fails_with_insecure_trace(self):
        model = load(SP02_FLAWED_SCRIPT)
        (result,) = model.check_assertions()
        assert not result.passed
        trace = result.counterexample.full_trace
        assert trace == (event("send", "reqSw"), event("rec", "rptUpd"))

    def test_negated_assertion_flips_verdict(self):
        model = load(
            "datatype m = a\nchannel c : m\nP = c!a -> P\nQ = STOP\n"
            "assert not P [T= Q"
        )
        # Q refines P, so 'not' makes the assertion fail
        (result,) = model.check_assertions()
        assert not result.passed

    def test_property_assertion(self):
        model = load("datatype m = a\nchannel c : m\nP = c!a -> P\n"
                     "assert P :[deadlock free]")
        (result,) = model.check_assertions()
        assert result.passed

    def test_a_pipeline_passed_in_keeps_its_own_budget(self):
        # P runs through seven states, more than the pipeline's budget of 3
        model = load(
            "channel c : {0..5}\n"
            "P = c.0 -> c.1 -> c.2 -> c.3 -> c.4 -> c.5 -> STOP\n"
            "assert P :[divergence free]"
        )
        (result,) = model.check_assertions()
        assert result.passed and result.states_explored == 7
        pipeline = VerificationPipeline(model.env, max_states=3)
        with pytest.raises(StateSpaceLimitExceeded, match="limit of 3 states"):
            model.check_assertions(pipeline=pipeline)
        with pytest.raises(StateSpaceLimitExceeded, match="limit of 3 states"):
            model.check_assertion(model.assertions[0], 200_000, pipeline)


class TestAlphabetisedParallel:
    def test_sides_confined_to_their_alphabets(self):
        from repro.csp import compile_lts, event

        model = load(
            "datatype m = a | b | c\nchannel ch : m\n"
            "L = ch!a -> ch!b -> STOP\n"
            "R = ch!c -> STOP\n"
            "S = L [ {ch.a} || {ch.c} ] R"
        )
        lts = compile_lts(model.env.resolve("S"), model.env)
        assert lts.walk([event("ch", "a")]) is not None
        # L's ch.b is outside its alphabet: blocked
        assert lts.walk([event("ch", "a"), event("ch", "b")]) is None
        assert lts.walk([event("ch", "c")]) is not None

    def test_intersection_synchronises(self):
        from repro.csp import compile_lts, event

        model = load(
            "datatype m = a | b\nchannel ch : m\n"
            "L = ch!a -> STOP\n"
            "R = ch!a -> ch!b -> STOP\n"
            "S = L [ {ch.a} || {ch.a, ch.b} ] R"
        )
        lts = compile_lts(model.env.resolve("S"), model.env)
        # ch.a is shared: happens once, jointly
        assert lts.walk([event("ch", "a"), event("ch", "b")]) is not None
        assert lts.walk([event("ch", "b")]) is None
