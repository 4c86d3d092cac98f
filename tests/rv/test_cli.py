"""The csprv command line: fleets in, canonical JSONL verdicts out."""

import json

import pytest

from repro.batch.cli import main as cspbatch_main
from repro.cli_common import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from repro.exec.spec import ManifestError
from repro.rv.cli import load_rv_manifest, main, specs_from_manifest


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet")
    status = main(
        [
            "--fleetgen",
            str(directory),
            "--vehicles",
            "10",
            "--seed",
            "5",
            "--fault-rate",
            "0.3",
            "--quiet",
        ]
    )
    assert status == EXIT_OK
    return directory


def manifest_of(fleet_dir):
    return str(fleet_dir / "manifest.json")


def run_lines(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, [line for line in out.splitlines() if line]


class TestFleetgen:
    def test_generation_is_reproducible(self, fleet_dir, tmp_path):
        again = tmp_path / "again"
        assert main(
            ["--fleetgen", str(again), "--vehicles", "10", "--seed", "5",
             "--fault-rate", "0.3", "--quiet"]
        ) == EXIT_OK
        for name in sorted(p.name for p in again.iterdir()):
            assert (again / name).read_text() == (fleet_dir / name).read_text()

    def test_rejects_manifest_argument(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as error:
            main(["--fleetgen", str(tmp_path / "x"), "spurious.json"])
        assert error.value.code == EXIT_USAGE


class TestRun:
    def test_inline_run(self, fleet_dir, capsys):
        status, lines = run_lines(
            capsys, [manifest_of(fleet_dir), "--quiet"]
        )
        assert status == EXIT_VIOLATION  # the fleet contains faulty vehicles
        assert len(lines) == 10
        docs = [json.loads(line) for line in lines]
        # manifest order, not verdict or completion order
        assert [doc["id"] for doc in docs] == sorted(doc["id"] for doc in docs)
        assert {doc["verdict"] for doc in docs} == {"PASS", "FAIL"}
        failing = [doc for doc in docs if doc["verdict"] == "FAIL"]
        assert all(doc["counterexample"]["frame"]["line"] for doc in failing)

    def test_jobs_bytes_match_inline(self, fleet_dir, capsys):
        _status, inline = run_lines(capsys, [manifest_of(fleet_dir), "--quiet"])
        _status, pooled = run_lines(
            capsys, [manifest_of(fleet_dir), "--jobs", "4", "--quiet"]
        )
        assert inline == pooled

    def test_result_cache_warm_bytes_match(self, fleet_dir, tmp_path, capsys):
        cache = str(tmp_path / "rc")
        _status, cold = run_lines(
            capsys,
            [manifest_of(fleet_dir), "--result-cache", cache, "--quiet"],
        )
        _status, warm = run_lines(
            capsys,
            [manifest_of(fleet_dir), "--result-cache", cache, "--quiet"],
        )
        assert cold == warm

    def test_all_pass_exit_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        main(["--fleetgen", str(clean), "--vehicles", "3", "--seed", "1",
              "--fault-rate", "0", "--quiet"])
        capsys.readouterr()  # drop the fleetgen-mode manifest-path line
        status, lines = run_lines(
            capsys, [str(clean / "manifest.json"), "--quiet"]
        )
        assert status == EXIT_OK
        assert all(json.loads(line)["verdict"] == "PASS" for line in lines)


class TestEmitManifest:
    def test_cspbatch_replays_byte_identically(self, fleet_dir, tmp_path, capsys):
        _status, direct = run_lines(capsys, [manifest_of(fleet_dir), "--quiet"])
        batch_manifest = str(tmp_path / "batch.json")
        assert main(
            [manifest_of(fleet_dir), "--emit-manifest", batch_manifest,
             "--quiet"]
        ) == EXIT_OK
        capsys.readouterr()
        status = cspbatch_main([batch_manifest, "--jobs", "2", "--quiet"])
        replayed = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        assert status == EXIT_VIOLATION
        assert replayed == direct


class TestBadInputs:
    def test_missing_manifest_path(self):
        with pytest.raises(SystemExit) as error:
            main([])
        assert error.value.code == EXIT_USAGE

    def test_unreadable_manifest(self, tmp_path):
        with pytest.raises(SystemExit) as error:
            main([str(tmp_path / "absent.json")])
        assert error.value.code == EXIT_USAGE

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": 99, "logs": [], "spec": "x", "dbc": "y"}')
        with pytest.raises(SystemExit) as error:
            main([str(path)])
        assert error.value.code == EXIT_USAGE

    def test_malformed_log_is_a_usage_error(self, tmp_path):
        (tmp_path / "bad.log").write_text("(broken\n")
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "dbc": "builtin:ota",
                    "spec": "ota-session",
                    "logs": ["bad.log"],
                }
            )
        )
        with pytest.raises(SystemExit) as error:
            main([str(path)])
        assert error.value.code == EXIT_USAGE

    def test_nesting_bomb_is_a_bad_manifest(self, tmp_path, capsys, nested_term_json):
        path = tmp_path / "m.json"
        path.write_text(
            '{"format": 1, "dbc": "builtin:ota", "logs": [], "spec": '
            + nested_term_json(3000)
            + "}"
        )
        with pytest.raises(SystemExit) as error:
            main([str(path)])
        assert error.value.code == EXIT_USAGE
        assert "bad manifest" in capsys.readouterr().err

    def test_term_a_constructor_refuses_is_a_bad_manifest(self, tmp_path, capsys):
        # ProcessRef("") raises a plain ValueError while the term decodes
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "dbc": "builtin:ota",
                    "logs": [],
                    "spec": {"op": "ref", "name": ""},
                }
            )
        )
        line = self.usage_error(capsys, [str(path)])
        assert line.startswith("csprv: bad manifest: undecodable rv manifest spec: ")

    def usage_error(self, capsys, argv):
        """The one stderr line of a run that must exit 2."""
        with pytest.raises(SystemExit) as error:
            main(argv)
        assert error.value.code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return lines[0]

    def manifest_for(self, tmp_path, log):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "dbc": "builtin:ota",
                    "spec": "ota-session",
                    "logs": [log],
                }
            )
        )
        return str(path)

    def test_mistyped_tracelog_field_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "v.jsonl").write_text(
            '{"t": 1, "sender": "VMG", "id": 257, "data": [0]}\n'
            '{"t": 2, "sender": "VMG", "id": 257, "data": [0], "remote": "no"}\n'
        )
        line = self.usage_error(capsys, [self.manifest_for(tmp_path, "v.jsonl")])
        assert line.startswith("csprv: ")
        assert "v.jsonl:2: bad remote flag 'no'" in line

    def test_log_path_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "drive.log").mkdir()
        line = self.usage_error(capsys, [self.manifest_for(tmp_path, "drive.log")])
        assert line.startswith("csprv: cannot read input: ")
        assert "drive.log" in line

    def test_non_utf8_log(self, tmp_path, capsys):
        (tmp_path / "drive.log").write_bytes(b"(1.0) can0 101#00\n\xff\xfe\n")
        line = self.usage_error(capsys, [self.manifest_for(tmp_path, "drive.log")])
        assert "drive.log: log is not UTF-8 text" in line

    def test_non_utf8_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format": 1, "dbc": "\xff"}')
        line = self.usage_error(capsys, [str(path)])
        assert line.startswith("csprv: bad manifest: ")
        assert "can't decode byte 0xff" in line

    def test_unknown_builtin_spec_and_dbc(self, tmp_path):
        for spec, dbc in (("no-such-spec", "builtin:ota"), ("ota-session", "builtin:nope")):
            path = tmp_path / "m.json"
            path.write_text(
                json.dumps(
                    {"format": 1, "dbc": dbc, "spec": spec, "logs": []}
                )
            )
            with pytest.raises(SystemExit) as error:
                main([str(path)])
            assert error.value.code == EXIT_USAGE


class TestManifestHelpers:
    def test_load_validates(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": 1, "dbc": "builtin:ota", "spec": "ota-session"}')
        with pytest.raises(ManifestError):
            load_rv_manifest(str(path))

    def test_nesting_bomb_spec_is_a_manifest_error(self, nested_term_doc):
        doc = {"format": 1, "dbc": "builtin:ota", "logs": [], "spec": nested_term_doc(3000)}
        with pytest.raises(ManifestError, match="undecodable"):
            specs_from_manifest(doc)

    def test_specs_resolve_relative_to_base_dir(self, fleet_dir):
        doc = load_rv_manifest(manifest_of(fleet_dir))
        specs = specs_from_manifest(doc, str(fleet_dir))
        assert len(specs) == 10
        assert all(spec.kind == "trace" for spec in specs)
        assert specs[0].check_id == "vehicle-00001.jsonl"
