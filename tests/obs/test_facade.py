"""The repro.api facade adds defaults, not semantics.

A facade call must produce a CheckResult byte-identical (via summary())
to a hand-built VerificationPipeline run on the same terms -- on both the
passing and the failing SP02 model.
"""

import pytest

from repro import api
from repro.cspm.evaluator import load
from repro.cspm.prelude import SP02_FLAWED_SCRIPT, SP02_SCRIPT
from repro.engine.pipeline import VerificationPipeline
from repro.obs import Tracer


def _terms(script):
    model = load(script)
    spec = model.eval_process(model.assertions[0].left, {})
    impl = model.eval_process(model.assertions[0].right, {})
    return model, spec, impl


class TestFacadeEquivalence:
    @pytest.mark.parametrize(
        "script,expect_pass",
        [(SP02_SCRIPT, True), (SP02_FLAWED_SCRIPT, False)],
        ids=["passing", "flawed"],
    )
    def test_check_refinement_matches_direct_pipeline(self, script, expect_pass):
        model, spec, impl = _terms(script)
        direct = VerificationPipeline(model.env).refinement(spec, impl, "T")
        via_api = api.check_refinement(spec, impl, "T", env=model.env)
        assert via_api.passed is expect_pass
        assert via_api.summary() == direct.summary()
        assert via_api.states_explored == direct.states_explored
        assert via_api.transitions_explored == direct.transitions_explored

    def test_check_deadlock_matches_direct_pipeline(self):
        model, _, impl = _terms(SP02_SCRIPT)
        direct = VerificationPipeline(model.env).property_check(
            impl, "deadlock free"
        )
        via_api = api.check_deadlock(impl, env=model.env)
        assert via_api.summary() == direct.summary()
        assert via_api.passed

    def test_failing_counterexample_preserved(self):
        model, spec, impl = _terms(SP02_FLAWED_SCRIPT)
        result = api.check_refinement(spec, impl, "T", env=model.env)
        assert not result.passed
        assert result.counterexample is not None
        assert "rptUpd" in result.summary()

    def test_explicit_name_used_verbatim(self):
        model, spec, impl = _terms(SP02_SCRIPT)
        result = api.check_refinement(
            spec, impl, "T", env=model.env, name="SP02 [T= SYSTEM"
        )
        assert result.name == "SP02 [T= SYSTEM"


class TestFacadeObservability:
    def test_profile_attached_when_traced(self):
        model, spec, impl = _terms(SP02_SCRIPT)
        tracer = Tracer()
        result = api.check_refinement(spec, impl, "T", env=model.env, obs=tracer)
        assert result.profile is not None
        assert result.profile.stage_sum() == pytest.approx(
            result.profile.total_ms
        )
        assert result.profile.stage_ms("refine") > 0.0
        assert result.profile.metrics.get("refine.states_explored", 0) > 0

    def test_no_profile_without_tracer(self):
        model, spec, impl = _terms(SP02_SCRIPT)
        result = api.check_refinement(spec, impl, "T", env=model.env)
        assert result.profile is None

    def test_tracing_does_not_change_the_verdict(self):
        model, spec, impl = _terms(SP02_FLAWED_SCRIPT)
        plain = api.check_refinement(spec, impl, "T", env=model.env)
        traced = api.check_refinement(
            spec, impl, "T", env=model.env, obs=Tracer()
        )
        assert traced.summary() == plain.summary()


class TestVerifyRequirement:
    def test_routes_through_the_requirement_registry(self):
        result = api.verify_requirement("R02")
        assert result.passed
        assert "R02" in result.name

    def test_unknown_requirement_rejected(self):
        with pytest.raises(KeyError):
            api.verify_requirement("R99")

    def test_matches_check_requirement(self):
        from repro.ota.requirements import check_requirement

        assert (
            api.verify_requirement("R02").summary()
            == check_requirement("R02").summary()
        )


class TestExtractModel:
    def test_extracts_a_checkable_model(self):
        capl = (
            "variables { message rptSw m; }\n"
            "on message reqSw { output(m); }\n"
        )
        extraction = api.extract_model(capl)
        assert "ECU" in extraction.script_text
        model = extraction.load()
        process = model.process("ECU")
        assert api.check_deadlock(process, env=model.env).passed

    def test_top_level_reexports(self):
        import repro

        assert repro.check_refinement is api.check_refinement
        assert repro.verify_requirement is api.verify_requirement
        assert repro.extract_model is api.extract_model
