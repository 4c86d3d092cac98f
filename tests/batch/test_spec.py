"""CheckSpec / JobResult / manifest serialisation."""

import io
import json

import pytest

from repro.batch import (
    BATCH_FORMAT_VERSION,
    CheckSpec,
    JobResult,
    ManifestError,
    dump_manifest,
    load_manifest,
    manifest_document,
    parse_manifest,
    requirement_specs,
)
from repro.csp.events import Event
from repro.csp.process import Prefix, ProcessRef, Stop

A, B = Event("a"), Event("b")


def sample_specs():
    return [
        CheckSpec.refinement(
            Prefix(A, Stop()),
            ProcessRef("P"),
            "F",
            check_id="r1",
            bindings={"P": Prefix(A, Stop())},
            passes="none",
            max_states=500,
            name="labelled",
        ),
        CheckSpec.property_check(Prefix(A, Stop()), "deadlock free", check_id="p1"),
        CheckSpec.requirement("R03"),
        CheckSpec.selftest("pass", check_id="s1"),
    ]


class TestCheckSpecRoundTrip:
    @pytest.mark.parametrize("index", range(4))
    def test_doc_round_trip_is_stable(self, index):
        spec = sample_specs()[index]
        doc = spec.to_doc()
        again = CheckSpec.from_doc(doc).to_doc()
        assert doc == again

    def test_refinement_round_trip_preserves_semantics(self):
        spec = sample_specs()[0]
        again = CheckSpec.from_doc(spec.to_doc())
        assert again.kind == "refinement"
        assert again.model == "F"
        assert again.passes == "none"
        assert again.max_states == 500
        assert again.name == "labelled"
        assert again.spec.fingerprint() == spec.spec.fingerprint()
        assert again.impl.fingerprint() == spec.impl.fingerprint()
        assert set(again.bindings) == {"P"}

    def test_environment_binds_sorted(self):
        spec = sample_specs()[0]
        env = spec.environment()
        assert "P" in env

    def test_requirement_defaults_its_id(self):
        assert CheckSpec.requirement("R03").check_id == "R03"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ManifestError, match="unknown check kind"):
            CheckSpec.from_doc({"kind": "teleport"})
        with pytest.raises(ManifestError, match="unknown check kind"):
            CheckSpec("teleport")

    def test_missing_fields_rejected(self):
        with pytest.raises(ManifestError):
            CheckSpec.from_doc({"kind": "refinement"})
        with pytest.raises(ManifestError, match="missing 'property'"):
            CheckSpec.from_doc({"kind": "property", "term": {"op": "stop"}})
        with pytest.raises(ManifestError, match="missing 'req'"):
            CheckSpec.from_doc({"kind": "requirement"})
        with pytest.raises(ManifestError, match="missing 'op'"):
            CheckSpec.from_doc({"kind": "selftest"})

    def test_non_object_entry_rejected(self):
        with pytest.raises(ManifestError, match="JSON object"):
            CheckSpec.from_doc(["kind", "refinement"])

    @pytest.mark.parametrize("env", [[1], "P"], ids=["list", "string"])
    def test_non_object_env_rejected(self, env):
        # the daemon decodes every request with from_doc: anything else it
        # raised would escape as a traceback instead of a bad_request
        with pytest.raises(ManifestError, match="'env' must be an object"):
            CheckSpec.from_doc({"kind": "selftest", "op": "pass", "env": env})

    def test_nesting_bomb_entry_rejected(self, nested_term_doc):
        doc = {"kind": "property", "property": "deadlock free", "term": nested_term_doc(3000)}
        with pytest.raises(ManifestError, match="undecodable"):
            CheckSpec.from_doc(doc)

    def test_tuple_fields_round_trip(self):
        sent = Event("send", (("enc", ("k1", 2, True)), "m"))
        spec = CheckSpec.property_check(Prefix(sent, Stop()), "deadlock free")
        doc = spec.to_doc()
        assert doc["term"]["event"]["fields"] == [
            {"t": ["enc", {"t": ["k1", 2, True]}]},
            "m",
        ]
        assert CheckSpec.from_doc(doc).term == spec.term

    def test_scalar_fields_keep_their_plain_encoding(self):
        spec = CheckSpec.property_check(
            Prefix(Event("c", ("x", 3, False)), Stop()), "deadlock free"
        )
        assert spec.to_doc()["term"]["event"] == {
            "channel": "c",
            "fields": ["x", 3, False],
        }

    @pytest.mark.parametrize(
        "event_doc",
        [
            {"channel": 5, "fields": []},
            {"channel": "", "fields": []},
            {"channel": "c", "fields": "ab"},
            {"channel": "c", "fields": [1.5]},
            {"channel": "c", "fields": [None]},
            {"channel": "c", "fields": [["a"]]},
            {"channel": "c", "fields": [{"u": ["a"]}]},
            {"channel": "c", "fields": [{"t": "ab"}]},
            {"channel": "c", "fields": [{"t": [1.5]}]},
        ],
    )
    def test_malformed_event_rejected(self, event_doc):
        doc = {
            "kind": "property",
            "property": "deadlock free",
            "term": {"op": "prefix", "event": event_doc, "next": {"op": "stop"}},
        }
        with pytest.raises(ManifestError, match="undecodable"):
            CheckSpec.from_doc(doc)


class TestJobResult:
    def test_doc_round_trip(self):
        result = JobResult(
            3,
            "r1",
            "FAIL",
            name="labelled",
            counterexample={"kind": "trace", "trace": ["a"], "description": "d"},
            states_explored=7,
            transitions_explored=9,
            duration_ms=1.5,
            worker_pid=1234,
        )
        again = JobResult.from_doc(result.to_doc())
        assert again.canonical() == result.canonical()
        assert again.duration_ms == result.duration_ms

    def test_canonical_excludes_run_varying_fields(self):
        result = JobResult(0, "x", "PASS", duration_ms=10.0, worker_pid=99)
        canonical = result.canonical()
        assert "duration_ms" not in canonical
        assert "worker_pid" not in canonical
        assert "profile" not in canonical
        assert json.loads(result.canonical_line()) == canonical

    def test_summary_mentions_failures(self):
        result = JobResult(
            0,
            "x",
            "FAIL",
            counterexample={"kind": "trace", "trace": [], "description": "boom"},
        )
        assert "boom" in result.summary()
        assert "FAIL" in result.summary()


class TestManifest:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        dump_manifest(sample_specs(), path)
        loaded = load_manifest(path)
        assert [s.to_doc() for s in loaded] == [s.to_doc() for s in sample_specs()]

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        dump_manifest(sample_specs(), buffer)
        buffer.seek(0)
        loaded = load_manifest(buffer)
        assert len(loaded) == 4

    def test_tuple_fields_survive_a_file_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        sent = Event("send", (("enc", "k1", "m"),))
        specs = [
            CheckSpec.property_check(Prefix(sent, Stop()), "deadlock free"),
            CheckSpec.trace_check(Prefix(sent, Stop()), [sent], check_id="t"),
        ]
        dump_manifest(specs, path)
        loaded = load_manifest(path)
        assert [s.to_doc() for s in loaded] == [s.to_doc() for s in specs]
        assert loaded[0].term == specs[0].term
        assert tuple(loaded[1].trace) == (sent,)

    def test_nesting_bomb_rejected(self, tmp_path, nested_term_json):
        path = tmp_path / "bomb.json"
        path.write_text('{"format": 1, "checks": [' + nested_term_json(3000) + "]}")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(str(path))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(str(path))

    def test_format_version_enforced(self):
        with pytest.raises(ManifestError, match="unsupported manifest format"):
            parse_manifest({"format": BATCH_FORMAT_VERSION + 1, "checks": []})
        with pytest.raises(ManifestError, match="must be a JSON object"):
            parse_manifest([])
        with pytest.raises(ManifestError, match="must be a list"):
            parse_manifest({"format": BATCH_FORMAT_VERSION, "checks": {}})

    def test_requirement_specs_covers_table_iii(self):
        specs = requirement_specs()
        assert [s.req_id for s in specs] == ["R01", "R02", "R03", "R04", "R05"]
        assert [s.req_id for s in requirement_specs(["R05", "R01"])] == ["R05", "R01"]
