"""CAN log ingestion: candump-style text and tracelog JSONL, streamed.

Two wire formats, auto-detected per file:

* **candump** -- the classic ``candump -l`` line format emitted by
  SocketCAN tooling (and close enough to a BLF export's text rendering)::

      (1564834.105657) can0 101#DEADBEEF

  Timestamp seconds in parentheses, interface, then ``ID#DATA`` with a hex
  identifier (extended ids are written with more than 3 hex digits) and a
  hex payload.  A trailing ``R`` marks a remote frame.  An optional
  ``node:NAME`` token after the payload carries a sender name -- our
  extension, so the sender-aware event mappings can read a textual log.
  Nothing in this repository writes it (:mod:`repro.rv.fleetgen` writes
  tracelog JSONL); the parser still accepts it.

* **tracelog JSONL** -- one JSON object per line, the canonical export of
  :meth:`repro.canbus.tracelog.TraceLog.to_jsonl`::

      {"t": 1105, "sender": "VMG", "id": 257, "data": [0], "name": "reqSw"}

Both parse into :class:`LogRecord` values *lazily* -- :func:`read_log`
yields records as the file is read, so million-frame logs stream straight
into the membership checker without ever being held in memory.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Iterator, List, Optional, Union


class LogParseError(ValueError):
    """A log line is outside both supported formats.

    Carries the source path (when known) and 1-based line number, so a bad
    line in trace 731 of a million-log fleet manifest is findable.  Errors
    about the file as a whole (a binary container, a non-UTF-8 blob) have
    no meaningful line and carry ``line=None``.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        if line is None:
            where = path if path else "log"
        elif path:
            where = "{}:{}".format(path, line)
        else:
            where = "line {}".format(line)
        super().__init__("{}: {}".format(where, message))
        self.line = line
        self.path = path


class LogRecord:
    """One logged frame transfer, format-independent.

    *time_us* is the timestamp in microseconds, *sender* the transmitting
    node when the format recorded one, *name* the symbolic message name
    when known (tracelog JSONL carries it; candump does not -- the .dbc
    mapping resolves it), and *line* the 1-based source line number for
    counterexample provenance.
    """

    __slots__ = ("time_us", "can_id", "data", "extended", "remote", "sender", "name", "line")

    def __init__(
        self,
        time_us: int,
        can_id: int,
        data: bytes,
        *,
        extended: bool = False,
        remote: bool = False,
        sender: Optional[str] = None,
        name: Optional[str] = None,
        line: int = 0,
    ) -> None:
        self.time_us = time_us
        self.can_id = can_id
        self.data = bytes(data)
        self.extended = extended
        self.remote = remote
        self.sender = sender
        self.name = name
        self.line = line

    def __repr__(self) -> str:
        return "LogRecord(t={}, 0x{:X}, {} bytes)".format(
            self.time_us, self.can_id, len(self.data)
        )


def parse_candump_line(text: str, line: int = 1, path: Optional[str] = None) -> LogRecord:
    """Parse one candump-style line into a :class:`LogRecord`."""
    tokens = text.split()
    if len(tokens) < 3:
        raise LogParseError(
            "truncated candump line (need '(TIME) IFACE ID#DATA')", line, path
        )
    stamp = tokens[0]
    if not (stamp.startswith("(") and stamp.endswith(")")):
        raise LogParseError(
            "bad timestamp {!r} (expected '(seconds.micros)')".format(stamp),
            line,
            path,
        )
    try:
        seconds = float(stamp[1:-1])
    except ValueError:
        raise LogParseError(
            "bad timestamp {!r} (not a number)".format(stamp), line, path
        ) from None
    if seconds < 0:
        raise LogParseError("negative timestamp {!r}".format(stamp), line, path)
    frame_text = tokens[2]
    id_text, sep, payload = frame_text.partition("#")
    if not sep:
        raise LogParseError(
            "bad frame {!r} (expected ID#DATA)".format(frame_text), line, path
        )
    try:
        can_id = int(id_text, 16)
    except ValueError:
        raise LogParseError(
            "bad identifier {!r} (not hex)".format(id_text), line, path
        ) from None
    remote = False
    if payload in ("R", "r"):
        remote = True
        data = b""
    else:
        if len(payload) % 2 != 0:
            raise LogParseError(
                "odd-length payload {!r}".format(payload), line, path
            )
        try:
            data = bytes.fromhex(payload)
        except ValueError:
            raise LogParseError(
                "bad payload {!r} (not hex)".format(payload), line, path
            ) from None
    sender = None
    for extra in tokens[3:]:
        if extra.startswith("node:"):
            sender = extra[len("node:"):]
    return LogRecord(
        int(round(seconds * 1_000_000)),
        can_id,
        data,
        extended=len(id_text) > 3,
        remote=remote,
        sender=sender,
        line=line,
    )


def _bad_field(
    field: str, value: object, expected: str, line: int, path: Optional[str]
) -> LogParseError:
    return LogParseError(
        "bad {} {!r} (expected {})".format(field, value, expected), line, path
    )


def parse_tracelog_line(text: str, line: int = 1, path: Optional[str] = None) -> LogRecord:
    """Parse one tracelog-JSONL object into a :class:`LogRecord`.

    Field types are those :meth:`repro.canbus.tracelog.TraceEntry.to_doc`
    writes, checked exactly: ``t`` and ``id`` non-negative integers,
    ``data`` a list of integer bytes, ``extended`` and ``remote`` JSON
    booleans, ``sender`` and ``name`` strings (the optional ones may be
    absent; null counts as absent for ``sender`` and ``name``).
    """
    try:
        doc = json.loads(text)
    except ValueError as error:
        raise LogParseError(
            "bad JSON: {}".format(error), line, path
        ) from None
    if not isinstance(doc, dict):
        raise LogParseError("tracelog line is not a JSON object", line, path)
    try:
        time_us = doc["t"]
        can_id = doc["id"]
        data = doc.get("data", [])
    except KeyError as error:
        raise LogParseError(
            "tracelog line is missing {}".format(error), line, path
        ) from None
    # exact type tests: a JSON true is a Python int subclass, and would
    # otherwise pass as timestamp, identifier or payload byte 1
    if type(time_us) is not int or time_us < 0:
        raise LogParseError(
            "bad timestamp {!r} (expected non-negative microseconds)".format(time_us),
            line,
            path,
        )
    if type(can_id) is not int or can_id < 0:
        raise LogParseError("bad identifier {!r}".format(can_id), line, path)
    if not (
        type(data) is list
        and all(type(b) is int and 0 <= b <= 255 for b in data)
    ):
        raise LogParseError(
            "bad payload {!r} (expected a byte list)".format(data), line, path
        )
    extended = doc.get("extended", False)
    if type(extended) is not bool:
        raise _bad_field("extended flag", extended, "true or false", line, path)
    remote = doc.get("remote", False)
    if type(remote) is not bool:
        raise _bad_field("remote flag", remote, "true or false", line, path)
    sender = doc.get("sender")
    if sender is not None and type(sender) is not str:
        raise _bad_field("sender", sender, "a string", line, path)
    name = doc.get("name")
    if name is not None and type(name) is not str:
        raise _bad_field("name", name, "a string", line, path)
    return LogRecord(
        time_us,
        can_id,
        bytes(data),
        extended=extended,
        remote=remote,
        sender=sender,
        name=name,
        line=line,
    )


def iter_records(
    lines: Iterable[str], path: Optional[str] = None
) -> Iterator[LogRecord]:
    """Lazily parse an iterable of log lines, auto-detecting the format.

    The first non-blank, non-comment line decides: ``{`` means tracelog
    JSONL, anything else candump.  Blank lines and ``#`` comments are
    skipped in both formats.
    """
    parse = None
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if parse is None:
            parse = parse_tracelog_line if text.startswith("{") else parse_candump_line
        yield parse(text, number, path)


#: magic bytes of Vector's binary BLF container -- a format CANoe exports
#: alongside the textual logs; the textual parsers would otherwise trip
#: over it with a baffling per-line error deep into the decode
_BLF_MAGIC = b"LOGG"


def _reject_binary(path: str) -> None:
    """Fail fast, and clearly, on binary log containers."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_BLF_MAGIC))
    except OSError:
        return  # let the text open() report the real I/O problem
    if head == _BLF_MAGIC:
        raise LogParseError(
            "BLF binary logs are not supported; export the trace as "
            "candump text or tracelog JSONL",
            path=path,
        )


def read_log(source: Union[str, IO[str]]) -> Iterator[LogRecord]:
    """Stream the records of a log file (or open handle), format-detected.

    Binary inputs are rejected up front with a :class:`LogParseError`:
    BLF containers by their ``LOGG`` magic, anything else binary when the
    UTF-8 decode fails.
    """
    if isinstance(source, str):
        _reject_binary(source)
        with open(source, "r", encoding="utf-8") as handle:
            try:
                for record in iter_records(handle, source):
                    yield record
            except UnicodeDecodeError as error:
                raise LogParseError(
                    "log is not UTF-8 text (binary container?): "
                    "{}".format(error),
                    path=source,
                ) from error
    else:
        for record in iter_records(source, getattr(source, "name", None)):
            yield record


def load_log(source: Union[str, IO[str]]) -> List[LogRecord]:
    """:func:`read_log`, materialised (for small logs and tests)."""
    return list(read_log(source))


def fleet_logs(directory: str) -> List[str]:
    """The log files of a fleet directory, in deterministic (sorted) order."""
    names = [
        name
        for name in sorted(os.listdir(directory))
        if name.endswith((".log", ".jsonl")) and not name.startswith(".")
    ]
    return [os.path.join(directory, name) for name in names]
