"""The synthetic fleet generator: determinism, faults, round-trips."""

import hashlib
import json
import pathlib

import pytest

from repro.csp import Environment
from repro.rv import check_trace_membership
from repro.rv.fleetgen import (
    FAULTS,
    generate_fleet,
    generate_vehicle,
    write_fleet,
)
from repro.rv.ingest import iter_records
from repro.rv.mapping import EventMapping
from repro.rv.specs import OTA_MAPPING_DOC, ota_database, ota_session_spec


def ota_env(bindings):
    env = Environment()
    for name, body in bindings.items():
        env.bind(name, body)
    return env


def check_log(log):
    database = ota_database()
    mapping = EventMapping.from_doc(database, OTA_MAPPING_DOC)
    spec, bindings = ota_session_spec()
    records = load_log_from_text(log.to_jsonl())
    events, lines = [], []
    for event, line in mapping.stream(records):
        events.append(event)
        lines.append(line)
    return check_trace_membership(
        spec, events, env=ota_env(bindings), lines=lines
    )


def load_log_from_text(text):
    return list(iter_records(text.splitlines()))


class TestDeterminism:
    def test_same_seed_same_frames(self):
        first = generate_vehicle(11).to_jsonl()
        second = generate_vehicle(11).to_jsonl()
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_vehicle(1).to_jsonl() != generate_vehicle(2).to_jsonl()

    def test_fleet_reproducible(self):
        one = generate_fleet(8, seed=3, fault_rate=0.5)
        two = generate_fleet(8, seed=3, fault_rate=0.5)
        assert [v.fault for v in one] == [v.fault for v in two]
        assert [v.log.to_jsonl() for v in one] == [v.log.to_jsonl() for v in two]


class TestFaultsCauseViolations:
    def test_clean_vehicle_conforms(self):
        assert check_log(generate_vehicle(4)).passed

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_violates(self, fault):
        for seed in (1, 2, 3):
            result = check_log(generate_vehicle(seed, fault=fault))
            assert not result.passed, (fault, seed)
            assert result.counterexample.line is not None

    def test_fault_iff_violation_across_a_fleet(self):
        for vehicle in generate_fleet(25, seed=9, fault_rate=0.4):
            assert check_log(vehicle.log).passed == (vehicle.fault is None)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            generate_vehicle(1, fault="teleport")


class TestTracelogRoundTrip:
    def test_every_frame_parses_back_to_the_same_event_sequence(self):
        # the satellite round-trip: simulator TraceLog -> JSONL -> ingest
        # -> mapping must reproduce to_csp_events' channel convention
        database = ota_database()
        mapping = EventMapping.from_doc(database, OTA_MAPPING_DOC)
        for seed in range(6):
            log = generate_vehicle(seed)
            records = load_log_from_text(log.to_jsonl())
            assert len(records) == len(log.entries)
            reparsed = list(mapping.events(records))
            # same frames, same order, same channel.message rendering
            expected = [
                "{}.{}".format(
                    {"VMG": "send", "ECU": "rec"}[entry.sender],
                    entry.frame.name,
                )
                for entry in log.entries
            ]
            assert [str(event) for event in reparsed] == expected

    def test_round_trip_preserves_frame_fields(self):
        log = generate_vehicle(8)
        records = load_log_from_text(log.to_jsonl())
        for entry, record in zip(log.entries, records):
            assert record.time_us == entry.time
            assert record.can_id == entry.frame.can_id
            assert record.data == bytes(entry.frame.data)
            assert record.sender == entry.sender
            assert record.name == entry.frame.name


class TestWriteFleet:
    def test_writes_logs_and_manifest(self, tmp_path):
        directory = tmp_path / "fleet"
        manifest_path = write_fleet(str(directory), 5, seed=2, fault_rate=0.2)
        manifest = json.loads(pathlib.Path(manifest_path).read_text())
        assert manifest["format"] == 1
        assert manifest["dbc"] == "builtin:ota"
        assert manifest["spec"] == "ota-session"
        assert manifest["mapping"] == OTA_MAPPING_DOC
        assert len(manifest["logs"]) == 5
        for name in manifest["logs"]:
            assert load_log_from_text((directory / name).read_text())

    def test_seeded_fleet_bytes_are_pinned(self, tmp_path):
        # every payload goes through the CANdb codec, so this pins its
        # packing too: a codec change must leave the written fleet alone
        directory = tmp_path / "fleet"
        write_fleet(str(directory), 40, seed=7, fault_rate=0.25)
        digest = hashlib.sha256()
        for path in sorted(directory.iterdir()):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert (
            digest.hexdigest()
            == "5ec7fec36a2bbb4944d17650ee04cc4ce713af06a50bd46c731d7c733a373cdc"
        )
