"""Conformance testing: model-derived suites against CAPL implementations."""

import pathlib

from repro.capl import Parser
from repro.csp import event
from repro.learn import derive_message_specs
from repro.ota import build_session_system
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.messages import CAN_MESSAGE_SPECS
from repro.testgen import coverage_of, run_suite, run_test, transition_cover
from repro.translator import ModelExtractor

STARTUP = pathlib.Path(__file__).parents[1] / "learn" / "corpus" / "startup.can"


def session_suite():
    session = build_session_system()
    tests = transition_cover(session.system, session.env)
    spec = session.env.resolve("ECU_FULL")
    return session, tests, spec


class TestGeneratedSuite:
    def test_full_transition_coverage(self):
        session, tests, _spec = session_suite()
        covered, total = coverage_of(tests, session.system, session.env)
        assert covered == total

    def test_faithful_ecu_passes(self):
        session, tests, spec = session_suite()
        report = run_suite(
            ECU_SOURCE, tests, spec, CAN_MESSAGE_SPECS, session.env
        )
        assert report.passed, report.summary()

    def test_flawed_ecu_fails_with_observed_defect(self):
        session, tests, spec = session_suite()
        report = run_suite(
            ECU_FLAWED_SOURCE, tests, spec, CAN_MESSAGE_SPECS, session.env
        )
        assert not report.passed
        (failure,) = report.failures
        # the defect on the wire: an update report where the inventory
        # response was specified
        assert str(failure.observed[-1]) == "rec.rptUpd"
        assert "FAIL" in failure.describe()

    def test_suite_parses_the_ecu_source_once(self, monkeypatch):
        session, tests, spec = session_suite()
        parsed = []
        parse_program = Parser.parse_program

        def counting_parse_program(parser):
            parsed.append(parser)
            return parse_program(parser)

        monkeypatch.setattr(Parser, "parse_program", counting_parse_program)
        report = run_suite(
            ECU_FLAWED_SOURCE, tests * 3, spec, CAN_MESSAGE_SPECS, session.env
        )
        assert len(report.verdicts) == 3 and len(report.failures) == 3
        assert len(parsed) == 1

    def test_report_summary_counts(self):
        session, tests, spec = session_suite()
        report = run_suite(
            ECU_SOURCE, tests, spec, CAN_MESSAGE_SPECS, session.env
        )
        assert "{}/{} tests passed".format(len(tests), len(tests)) in report.summary()


class TestSingleTest:
    def test_stimuli_extraction_ignores_responses(self):
        from repro.csp import Event, compile_lts

        session, _tests, spec = session_suite()
        spec_lts = compile_lts(spec, session.env)
        test = (
            Event("send", ("reqSw",)),
            Event("rec", ("rptSw",)),
        )
        verdict = run_test(
            ECU_SOURCE, test, CAN_MESSAGE_SPECS, spec_lts
        )
        assert verdict.passed
        assert verdict.observed == test

    def test_unsolicited_behaviour_detected(self):
        """An ECU that volunteers frames beyond the spec fails conformance."""
        from repro.csp import Event, compile_lts

        chatty = """
        variables { message rptSw a; message rptUpd b; }
        on message reqSw { output(a); output(b); }
        """
        session, _tests, spec = session_suite()
        spec_lts = compile_lts(spec, session.env)
        test = (Event("send", ("reqSw",)), Event("rec", ("rptSw",)))
        verdict = run_test(chatty, test, CAN_MESSAGE_SPECS, spec_lts)
        assert not verdict.passed


class TestStartup:
    def test_on_start_transmissions_open_the_observed_trace(self):
        # the ECU outputs rspX from its on start block, before any stimulus
        source = STARTUP.read_text(encoding="utf-8")
        model = ModelExtractor().extract(source, "ECU").load()
        spec = model.process("ECU")
        tests = transition_cover(spec, model.env)
        report = run_suite(
            source, tests, spec, derive_message_specs(source), model.env
        )
        assert report.passed, report.summary()
        (verdict,) = report.verdicts
        expected = (
            event("rec", "rspX"),
            event("send", "reqA"),
            event("rec", "rspY"),
        )
        assert verdict.test == verdict.observed == expected
