"""Tests for the dbc2cspm command-line extractor."""

import pathlib

import pytest

from repro.candb.cli import main as dbc2cspm_main

DATA_DBC = pathlib.Path(__file__).parents[2] / "src/repro/ota/data/ota_update.dbc"


def test_database_exports_cspm(capsys):
    assert dbc2cspm_main([str(DATA_DBC)]) == 0
    assert "channel" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content,expected",
    [
        (None, "cannot read input: [Errno 2] No such file or directory: '{path}'"),
        (
            b"BO_ 1 m: 8 N\n\xff\n",
            "cannot read input: 'utf-8' codec can't decode byte 0xff in "
            "position 13: invalid start byte",
        ),
        (
            b' SG_ s : 0|8@1+ (1,0) [0|255] "" N\nBO_ 1 m: 8 N\n',
            "{path}: SG_ outside a BO_ block (line 1)",
        ),
    ],
    ids=["missing", "non-utf8", "signal-before-message"],
)
def test_bad_database_exits_two_with_one_line(tmp_path, capsys, content, expected):
    path = tmp_path / "bad.dbc"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as info:
        dbc2cspm_main([str(path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err == "dbc2cspm: {}\n".format(expected.format(path=path))
    assert captured.out == ""
