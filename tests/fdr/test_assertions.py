"""Unit tests for assertion checks on the verification pipeline."""

import pytest

from repro.csp import (
    Environment,
    ExternalChoice,
    InternalChoice,
    Prefix,
    STOP,
    event,
    ref,
    sequence,
)
import repro.fdr
from repro import api
from repro.engine.pipeline import VerificationPipeline

A, B = event("a"), event("b")


class TestRefinementAssertion:
    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            VerificationPipeline().refinement(STOP, STOP, model="X")

    def test_trace_model(self):
        assert VerificationPipeline().refinement(Prefix(A, STOP), STOP, "T").passed

    def test_failures_model(self):
        spec = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        impl = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        assert VerificationPipeline().refinement(spec, impl, "T").passed
        assert not VerificationPipeline().refinement(spec, impl, "F").passed

    def test_custom_name_in_summary(self):
        result = VerificationPipeline().refinement(STOP, STOP, name="my check")
        assert "my check" in result.summary()


class TestPropertyAssertion:
    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            VerificationPipeline().property_check(STOP, "sparkly")

    @pytest.mark.parametrize(
        "property_name", ["deadlock free", "divergence free", "deterministic"]
    )
    def test_known_properties_run(self, property_name):
        env = Environment().bind("P", Prefix(A, ref("P")))
        result = VerificationPipeline(env).property_check(ref("P"), property_name)
        assert result.passed


class TestApiOneShots:
    # The one-shot wrappers and the assertion classes of repro.fdr are gone;
    # their behaviour lives on the repro.api facade and the pipeline.
    def test_wrappers_removed(self):
        for gone in (
            "trace_refinement",
            "fd_refinement",
            "failures_refinement",
            "deadlock_free",
            "divergence_free",
            "deterministic",
            "Assertion",
            "RefinementAssertion",
            "PropertyAssertion",
            "Session",
        ):
            assert not hasattr(repro.fdr, gone)
            assert gone not in repro.fdr.__all__

    def test_trace_refinement(self):
        assert api.check_refinement(Prefix(A, STOP), STOP, "T").passed

    def test_failures_refinement(self):
        assert not api.check_refinement(
            Prefix(A, STOP), InternalChoice(Prefix(A, STOP), STOP), "F"
        ).passed

    def test_deadlock_free(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        assert api.check_deadlock(ref("P"), env=env).passed
        assert not api.check_deadlock(STOP).passed

    def test_divergence_free(self):
        assert api.check_divergence(sequence(A, B)).passed

    def test_deterministic(self):
        assert api.check_determinism(sequence(A, B)).passed
        assert not api.check_determinism(
            InternalChoice(Prefix(A, STOP), STOP)
        ).passed

    def test_result_bool_protocol(self):
        assert bool(api.check_refinement(Prefix(A, STOP), STOP, "T"))
        assert not bool(api.check_refinement(STOP, Prefix(A, STOP), "T"))
