"""Unit tests for the .dbc parser."""

import pathlib

import pytest

from repro.candb import Database, DbcParseError, parse_dbc, parse_dbc_file

SAMPLE = """\
VERSION "demo network"

BU_: VMG ECU GW

BO_ 257 reqSw: 1 VMG
 SG_ RequestType : 0|8@1+ (1,0) [0|3] "" ECU

BO_ 258 rptSw: 2 ECU
 SG_ SwVersion : 0|8@1+ (1,0) [0|255] "" VMG
 SG_ Temperature : 8|8@1- (0.5,-40) [-40|87.5] "degC" VMG GW

VAL_ 257 RequestType 0 "full" 1 "delta";

CM_ BO_ 257 "Request diagnose software status";
CM_ SG_ 258 SwVersion "installed software version";
"""

DATA_DBC = pathlib.Path(__file__).parents[2] / "src/repro/ota/data/ota_update.dbc"


class TestParsing:
    def test_version(self):
        assert parse_dbc(SAMPLE).version == "demo network"

    def test_nodes(self):
        assert parse_dbc(SAMPLE).nodes == ["VMG", "ECU", "GW"]

    def test_messages(self):
        database = parse_dbc(SAMPLE)
        assert len(database.messages) == 2
        message = database.message_by_id(257)
        assert message.name == "reqSw"
        assert message.dlc == 1
        assert message.sender == "VMG"

    def test_message_by_name(self):
        database = parse_dbc(SAMPLE)
        assert database.message_by_name("rptSw").can_id == 258
        assert "rptSw" in database

    def test_signals(self):
        signal = parse_dbc(SAMPLE).message_by_id(258).signal("Temperature")
        assert signal.start_bit == 8
        assert signal.length == 8
        assert signal.signed
        assert signal.factor == 0.5
        assert signal.offset == -40
        assert signal.unit == "degC"
        assert signal.receivers == ("VMG", "GW")

    def test_value_table(self):
        signal = parse_dbc(SAMPLE).message_by_id(257).signal("RequestType")
        assert signal.value_table == {0: "full", 1: "delta"}

    def test_comments(self):
        database = parse_dbc(SAMPLE)
        assert database.message_by_id(257).comment.startswith("Request diagnose")
        assert database.message_by_id(258).signal("SwVersion").comment is not None

    def test_receivers_aggregate(self):
        message = parse_dbc(SAMPLE).message_by_id(258)
        assert message.receivers() == ("VMG", "GW")

    def test_directional_queries(self):
        database = parse_dbc(SAMPLE)
        assert [m.name for m in database.messages_sent_by("VMG")] == ["reqSw"]
        assert [m.name for m in database.messages_received_by("GW")] == ["rptSw"]

    def test_unknown_lookups_raise(self):
        database = parse_dbc(SAMPLE)
        with pytest.raises(KeyError):
            database.message_by_id(999)
        with pytest.raises(KeyError):
            database.message_by_name("nope")
        with pytest.raises(KeyError):
            database.message_by_id(257).signal("nope")

    def test_unknown_sections_ignored(self):
        source = SAMPLE + "\nBA_DEF_ \"GenMsgCycleTime\" INT 0 65535;\nNS_ :\n"
        parse_dbc(source)  # must not raise


class TestErrors:
    def test_signal_outside_message(self):
        with pytest.raises(DbcParseError, match="line 1"):
            parse_dbc('SG_ X : 0|8@1+ (1,0) [0|1] "" N')

    def test_duplicate_message_id(self):
        bad = SAMPLE + "\nBO_ 257 dup: 1 ECU\n"
        with pytest.raises(DbcParseError):
            parse_dbc(bad)

    def test_duplicate_signal_name(self):
        bad = (
            "BO_ 1 m: 1 N\n"
            ' SG_ X : 0|4@1+ (1,0) [0|1] "" N\n'
            ' SG_ X : 4|4@1+ (1,0) [0|1] "" N\n'
        )
        with pytest.raises(DbcParseError):
            parse_dbc(bad)

    def test_value_table_for_unknown_message(self):
        with pytest.raises(DbcParseError):
            parse_dbc('VAL_ 9 X 0 "a";')

    def test_oversized_message_id_is_located(self):
        # past Python's int-conversion digit limit, not a bare ValueError
        bad = "VERSION \"\"\nBO_ " + "1" * 5000 + " m: 8 N\n"
        with pytest.raises(DbcParseError, match="5000 digits is too long") as info:
            parse_dbc(bad)
        assert info.value.line_number == 2


class TestShippedDatabase:
    def test_ota_dbc_parses(self):
        database = parse_dbc_file(str(DATA_DBC))
        assert [m.name for m in database.messages] == [
            "reqSw",
            "rptSw",
            "reqApp",
            "rptUpd",
        ]
        assert database.nodes == ["VMG", "ECU"]

    def test_message_specs_for_interpreter(self):
        database = parse_dbc_file(str(DATA_DBC))
        specs = database.message_specs()
        assert specs["reqSw"].can_id == 0x101
        assert specs["reqApp"].dlc == 4
