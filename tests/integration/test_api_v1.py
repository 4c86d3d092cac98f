"""The repro.api v1 surface: __all__, Verdict schema, mode byte-identity."""

import json

import pytest

import repro
from repro import api
from repro.csp import Environment, Event, Prefix, STOP, ref
from repro.exec.resultcache import ResultCache
from repro.exec.runtime import execute_cached, execute_spec
from repro.exec.spec import CheckSpec

A, B = Event("a"), Event("b")
BINDINGS = {"AB": Prefix(A, Prefix(B, ref("AB")))}

#: the documented v1 entry points -- changing this set is an API_VERSION bump
V1_SURFACE = [
    "API_VERSION",
    "Verdict",
    "check_refinement",
    "check_property",
    "check_deadlock",
    "check_divergence",
    "check_determinism",
    "check_trace",
    "execute_check",
    "verify_requirement",
    "verify_requirements",
    "verify_traces",
    "extract_model",
    "learn_model",
    "server_client",
]

#: the run-invariant keys of Verdict.canonical() -- the wire schema CI pins
CANONICAL_KEYS = {
    "id",
    "verdict",
    "name",
    "counterexample",
    "states_explored",
    "transitions_explored",
    "error",
}


def refinement_spec(check_id="job-1"):
    return CheckSpec.refinement(
        ref("AB"),
        Prefix(A, STOP),
        "T",
        check_id=check_id,
        bindings=BINDINGS,
    )


class TestSurface:
    def test_api_version_is_one(self):
        assert api.API_VERSION == 1
        assert repro.API_VERSION == 1

    def test_all_declares_exactly_the_v1_surface(self):
        assert api.__all__ == V1_SURFACE
        for name in api.__all__:
            assert callable(getattr(api, name)) or name == "API_VERSION"

    def test_package_reexports(self):
        assert repro.Verdict is api.Verdict
        assert repro.check_trace is api.check_trace
        assert repro.execute_check is api.execute_check
        assert repro.verify_traces is api.verify_traces

    def test_one_shot_wrappers_are_gone(self):
        import repro.fdr

        for legacy in (
            "trace_refinement",
            "failures_refinement",
            "fd_refinement",
            "deadlock_free",
            "divergence_free",
            "deterministic",
        ):
            assert not hasattr(repro.fdr, legacy)
            assert not hasattr(api, legacy)


class TestVerdictSchema:
    def test_canonical_keys_pinned(self):
        verdict = api.execute_check(refinement_spec())
        assert set(verdict.canonical()) == CANONICAL_KEYS

    def test_to_json_is_sorted_key_single_line(self):
        verdict = api.execute_check(refinement_spec())
        text = verdict.to_json()
        assert "\n" not in text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert set(doc) == CANONICAL_KEYS
        assert verdict.to_json() == verdict.canonical_line()

    def test_canonical_excludes_run_varying_fields(self):
        verdict = api.execute_check(refinement_spec())
        doc = verdict.canonical()
        for diagnostic in ("duration_ms", "worker_pid", "profile", "index"):
            assert diagnostic not in doc
        # ... but the diagnostics stay reachable on the object
        assert verdict.duration_ms >= 0
        assert verdict.index == 0

    def test_verdict_mirrors_job_result(self):
        verdict = api.execute_check(refinement_spec())
        job = verdict.job_result
        assert verdict.check_id == job.check_id == "job-1"
        assert verdict.verdict == job.verdict == "PASS"
        assert verdict.passed
        assert verdict.error is None
        assert verdict.counterexample is None
        assert repr(verdict) == "Verdict('job-1', 'PASS')"


class TestModeByteIdentity:
    def test_inline_pool_and_cache_warm_agree(self, tmp_path):
        spec = refinement_spec()
        inline = execute_spec(spec).canonical_line()
        cache = ResultCache(str(tmp_path / "rc"))
        cold = execute_cached(spec, result_cache=cache).canonical_line()
        warm = execute_cached(spec, result_cache=cache).canonical_line()
        via_api = api.execute_check(
            refinement_spec(), result_cache_dir=str(tmp_path / "rc")
        ).to_json()
        assert inline == cold == warm == via_api

    def test_verify_traces_matches_execute_check(self, tmp_path):
        from repro.rv.cli import main as csprv_main

        fleet = tmp_path / "fleet"
        assert csprv_main(
            ["--fleetgen", str(fleet), "--vehicles", "4", "--seed", "7",
             "--fault-rate", "0.5", "--quiet"]
        ) == 0
        manifest = str(fleet / "manifest.json")
        inline = api.verify_traces(manifest)
        pooled = api.verify_traces(manifest, jobs=2)
        assert len(inline) == 4
        assert all(isinstance(v, api.Verdict) for v in inline)
        assert [v.to_json() for v in inline] == [v.to_json() for v in pooled]

    def test_verify_traces_through_a_daemon_matches_inline(self, tmp_path):
        from repro.rv.cli import main as csprv_main
        from repro.server import VerificationServer
        from repro.server.http import HttpFrontend

        fleet = tmp_path / "fleet"
        assert csprv_main(
            ["--fleetgen", str(fleet), "--vehicles", "3", "--seed", "7",
             "--fault-rate", "0.5", "--quiet"]
        ) == 0
        manifest = str(fleet / "manifest.json")
        inline = api.verify_traces(manifest)
        with VerificationServer(workers=1) as server:
            with HttpFrontend(server) as frontend:
                served = api.verify_traces(manifest, server=frontend.url)
            assert server.stats()["metrics"]["server.http_connections"] == 1
        assert [v.to_json() for v in served] == [v.to_json() for v in inline]


class TestCheckFunctions:
    def test_check_trace_is_a_check_result(self):
        env = Environment()
        env.bind("AB", BINDINGS["AB"])
        result = api.check_trace(ref("AB"), [A, B], env=env)
        assert result.passed
        assert hasattr(result, "counterexample")

    def test_check_refinement_still_the_design_side(self):
        env = Environment()
        env.bind("AB", BINDINGS["AB"])
        assert api.check_refinement(ref("AB"), Prefix(A, STOP), "T", env=env).passed


LEARNABLE = """\
variables {
  message rspX msgX;
}
on message reqA {
  output(msgX);
}
"""


class TestLearnModel:
    def test_learn_model_agrees_with_extract_model(self):
        result = api.learn_model(LEARNABLE)
        assert result.state_count == 2
        assert result.fingerprint().startswith("sha256:")
        # the bounded teacher converges to the same automaton, black box
        bounded = api.learn_model(LEARNABLE, teacher="bounded", depth=4)
        assert bounded.fingerprint() == result.fingerprint()

    def test_learn_model_rejects_unknown_teachers(self):
        import pytest

        with pytest.raises(ValueError, match="teacher"):
            api.learn_model(LEARNABLE, teacher="oracle")
