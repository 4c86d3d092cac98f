"""Log ingestion: both wire formats, and the malformed-log fault matrix."""

import io

import pytest

from repro.rv.ingest import (
    LogParseError,
    fleet_logs,
    iter_records,
    load_log,
    parse_candump_line,
    parse_tracelog_line,
    read_log,
)

CANDUMP = "(1564834.105657) can0 101#DEADBEEF"


class TestCandump:
    def test_basic_line(self):
        record = parse_candump_line(CANDUMP)
        assert record.time_us == 1564834105657
        assert record.can_id == 0x101
        assert record.data == bytes([0xDE, 0xAD, 0xBE, 0xEF])
        assert not record.extended
        assert not record.remote
        assert record.sender is None

    def test_extended_identifier(self):
        record = parse_candump_line("(1.0) can0 18DAF110#01")
        assert record.can_id == 0x18DAF110
        assert record.extended

    def test_remote_frame(self):
        record = parse_candump_line("(1.0) can0 101#R")
        assert record.remote
        assert record.data == b""

    def test_empty_payload(self):
        assert parse_candump_line("(1.0) can0 101#").data == b""

    def test_node_extension_carries_sender(self):
        record = parse_candump_line("(1.0) can0 101#00 node:VMG")
        assert record.sender == "VMG"

    def test_line_number_recorded(self):
        assert parse_candump_line(CANDUMP, line=7).line == 7


class TestCandumpFaults:
    """The malformed-log fault matrix of the candump parser."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1.0) can0", "truncated candump line"),
            ("101#00 can0 x", "bad timestamp"),
            ("(yesterday) can0 101#00", "not a number"),
            ("(-1.0) can0 101#00", "negative timestamp"),
            ("(1.0) can0 10100", "expected ID#DATA"),
            ("(1.0) can0 zz#00", "not hex"),
            ("(1.0) can0 101#0", "odd-length payload"),
            ("(1.0) can0 101#GG", "bad payload"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(LogParseError) as error:
            parse_candump_line(text, line=3, path="fleet.log")
        assert message in str(error.value)
        assert "fleet.log:3" in str(error.value)
        assert error.value.line == 3


class TestTracelog:
    def test_basic_line(self):
        record = parse_tracelog_line(
            '{"t": 1105, "sender": "VMG", "id": 257, "data": [0], '
            '"name": "reqSw"}'
        )
        assert record.time_us == 1105
        assert record.can_id == 257
        assert record.data == bytes([0])
        assert record.sender == "VMG"
        assert record.name == "reqSw"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"t": 1, "id":', "bad JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"id": 257}', "missing 't'"),
            ('{"t": 1}', "missing 'id'"),
            ('{"t": -5, "id": 257}', "bad timestamp"),
            ('{"t": 1.5, "id": 257}', "bad timestamp"),
            ('{"t": 1, "id": "reqSw"}', "bad identifier"),
            ('{"t": 1, "id": 257, "data": [300]}', "bad payload"),
            ('{"t": 1, "id": 257, "data": "00"}', "bad payload"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(LogParseError) as error:
            parse_tracelog_line(text, line=2)
        assert message in str(error.value)
        assert "line 2" in str(error.value)


class TestTracelogFieldTypes:
    """Each field has the JSON type ``TraceEntry.to_doc`` writes, exactly."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"t": true, "id": 257}', "bad timestamp True"),
            ('{"t": 1, "id": true}', "bad identifier True"),
            ('{"t": 1, "id": 257, "data": [true, false]}', "bad payload [True, False]"),
            ('{"t": 1, "id": 257, "remote": "no"}', "bad remote flag 'no'"),
            ('{"t": 1, "id": 257, "extended": "false"}', "bad extended flag 'false'"),
            ('{"t": 1, "id": 257, "sender": 7}', "bad sender 7"),
        ],
    )
    def test_mistyped_fields_are_rejected_at_their_line(self, text, message):
        with pytest.raises(LogParseError) as error:
            parse_tracelog_line(text, line=9, path="vehicle.jsonl")
        assert "vehicle.jsonl:9: " + message in str(error.value)
        assert error.value.line == 9


class TestAutoDetect:
    def test_candump_detected(self):
        records = list(iter_records([CANDUMP, "(2.0) can0 102#01"]))
        assert [r.can_id for r in records] == [0x101, 0x102]

    def test_tracelog_detected(self):
        records = list(iter_records(['{"t": 1, "id": 257}']))
        assert records[0].can_id == 257

    def test_blank_and_comment_lines_skipped(self):
        lines = ["# fleet capture", "", "  ", CANDUMP]
        records = list(iter_records(lines))
        assert len(records) == 1
        assert records[0].line == 4  # 1-based position in the source

    def test_parse_error_carries_source_line(self):
        with pytest.raises(LogParseError) as error:
            list(iter_records(["# header", CANDUMP, "(broken"]))
        assert error.value.line == 3

    def test_streaming_is_lazy(self):
        # the bad second line must not fail until it is reached
        stream = iter_records([CANDUMP, "(broken"])
        assert next(stream).can_id == 0x101
        with pytest.raises(LogParseError):
            next(stream)


class TestReadLog:
    def test_from_path_and_handle(self, tmp_path):
        path = tmp_path / "drive.log"
        path.write_text(CANDUMP + "\n", encoding="utf-8")
        from_path = load_log(str(path))
        from_handle = list(read_log(io.StringIO(CANDUMP + "\n")))
        assert from_path[0].can_id == from_handle[0].can_id == 0x101

    def test_fleet_logs_sorted(self, tmp_path):
        for name in ("b.jsonl", "a.log", "c.txt", ".hidden.log"):
            (tmp_path / name).write_text("", encoding="utf-8")
        names = [p.rsplit("/", 1)[-1] for p in fleet_logs(str(tmp_path))]
        assert names == ["a.log", "b.jsonl"]


class TestBinaryRejection:
    def test_blf_container_is_rejected_by_magic(self, tmp_path):
        path = tmp_path / "trace.log"
        # a minimal Vector BLF header: the LOGG magic plus junk
        path.write_bytes(b"LOGG" + bytes(range(32)))
        with pytest.raises(LogParseError, match="BLF binary logs are not supported"):
            load_log(str(path))

    def test_blf_error_names_the_file_and_has_no_line(self, tmp_path):
        path = tmp_path / "export.log"
        path.write_bytes(b"LOGG\x00\x00\x00\x00")
        with pytest.raises(LogParseError) as error:
            load_log(str(path))
        assert error.value.path == str(path)
        assert error.value.line is None
        assert str(path) in str(error.value)

    def test_other_binary_blobs_fail_as_log_parse_errors(self, tmp_path):
        path = tmp_path / "random.log"
        path.write_bytes(b"\xff\xfe\x00\x01binary soup\x80\x80")
        with pytest.raises(LogParseError, match="not UTF-8"):
            load_log(str(path))

    def test_text_logs_still_stream_from_paths(self, tmp_path):
        path = tmp_path / "ok.log"
        path.write_text(CANDUMP + "\n", encoding="utf-8")
        assert load_log(str(path))[0].can_id == 0x101
