"""Parser for the de-facto-standard .dbc file format.

Handles the declarations the paper's toolchain relies on: ``VERSION``,
``BU_`` (nodes), ``BO_`` (messages), ``SG_`` (signals), ``VAL_`` (value
tables) and ``CM_`` (comments).  Other sections (``BA_``, ``NS_`` ...) are
skipped, as most open-source DBC tooling does.
"""

from __future__ import annotations

import re
from typing import Optional

from .model import Database, Message, Signal


class DbcParseError(ValueError):
    """A malformed .dbc construct, with the offending line number."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__("{} (line {})".format(message, line_number))
        self.line_number = line_number


_VERSION_RE = re.compile(r'^VERSION\s+"(?P<version>[^"]*)"')
_NODES_RE = re.compile(r"^BU_\s*:\s*(?P<nodes>.*)$")
_MESSAGE_RE = re.compile(
    r"^BO_\s+(?P<id>\d+)\s+(?P<name>\w+)\s*:\s*(?P<dlc>\d+)\s+(?P<sender>\w+)"
)
_SIGNAL_RE = re.compile(
    r"^SG_\s+(?P<name>\w+)\s*:\s*"
    r"(?P<start>\d+)\|(?P<length>\d+)@(?P<order>[01])(?P<sign>[+-])\s*"
    r"\(\s*(?P<factor>[-+0-9.eE]+)\s*,\s*(?P<offset>[-+0-9.eE]+)\s*\)\s*"
    r"\[\s*(?P<min>[-+0-9.eE]+)\s*\|\s*(?P<max>[-+0-9.eE]+)\s*\]\s*"
    r'"(?P<unit>[^"]*)"\s*'
    r"(?P<receivers>.*)$"
)
_VALUE_RE = re.compile(r"^VAL_\s+(?P<id>\d+)\s+(?P<signal>\w+)\s+(?P<pairs>.*);")
_VALUE_PAIR_RE = re.compile(r'(?P<raw>-?\d+)\s+"(?P<label>[^"]*)"')
_COMMENT_MSG_RE = re.compile(r'^CM_\s+BO_\s+(?P<id>\d+)\s+"(?P<text>[^"]*)"\s*;')
_COMMENT_SIG_RE = re.compile(
    r'^CM_\s+SG_\s+(?P<id>\d+)\s+(?P<signal>\w+)\s+"(?P<text>[^"]*)"\s*;'
)


def _number(text: str) -> float:
    return float(text)


def _integer(text: str, line_number: int) -> int:
    """A decimal literal, or a located error past Python's digit limit."""
    try:
        return int(text)
    except ValueError:
        message = "integer literal of {} digits is too long".format(len(text))
        raise DbcParseError(message, line_number) from None


def parse_dbc(source: str) -> Database:
    """Parse .dbc text into a :class:`Database`."""
    database = Database()
    current_message: Optional[Message] = None
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            current_message = None
            continue

        version = _VERSION_RE.match(line)
        if version:
            database.version = version.group("version")
            continue

        nodes = _NODES_RE.match(line)
        if nodes:
            for node in nodes.group("nodes").split():
                database.add_node(node)
            continue

        message = _MESSAGE_RE.match(line)
        if message:
            current_message = Message(
                can_id=_integer(message.group("id"), line_number),
                name=message.group("name"),
                dlc=_integer(message.group("dlc"), line_number),
                sender=message.group("sender"),
            )
            try:
                database.add_message(current_message)
            except ValueError as error:
                raise DbcParseError(str(error), line_number) from None
            continue

        signal = _SIGNAL_RE.match(line)
        if signal:
            if current_message is None:
                raise DbcParseError("SG_ outside a BO_ block", line_number)
            receivers = [
                receiver.strip()
                for receiver in signal.group("receivers").replace(",", " ").split()
                if receiver.strip()
            ]
            start_bit = _integer(signal.group("start"), line_number)
            length = _integer(signal.group("length"), line_number)
            try:
                current_message.add_signal(
                    Signal(
                        name=signal.group("name"),
                        start_bit=start_bit,
                        length=length,
                        byte_order="little" if signal.group("order") == "1" else "big",
                        signed=signal.group("sign") == "-",
                        factor=_number(signal.group("factor")),
                        offset=_number(signal.group("offset")),
                        minimum=_number(signal.group("min")),
                        maximum=_number(signal.group("max")),
                        unit=signal.group("unit"),
                        receivers=receivers,
                    )
                )
            except ValueError as error:
                raise DbcParseError(str(error), line_number) from None
            continue

        value_table = _VALUE_RE.match(line)
        if value_table:
            can_id = _integer(value_table.group("id"), line_number)
            try:
                message_def = database.message_by_id(can_id)
                signal_def = message_def.signal(value_table.group("signal"))
            except KeyError as error:
                raise DbcParseError(str(error), line_number) from None
            for pair in _VALUE_PAIR_RE.finditer(value_table.group("pairs")):
                raw = _integer(pair.group("raw"), line_number)
                signal_def.value_table[raw] = pair.group("label")
            continue

        message_comment = _COMMENT_MSG_RE.match(line)
        if message_comment:
            can_id = _integer(message_comment.group("id"), line_number)
            try:
                database.message_by_id(can_id).comment = message_comment.group("text")
            except KeyError:
                pass
            continue

        signal_comment = _COMMENT_SIG_RE.match(line)
        if signal_comment:
            can_id = _integer(signal_comment.group("id"), line_number)
            try:
                message_def = database.message_by_id(can_id)
                message_def.signal(signal_comment.group("signal")).comment = (
                    signal_comment.group("text")
                )
            except KeyError:
                pass
            continue

        # every other section (NS_, BS_, BA_DEF_, ...) is ignored
    return database


def parse_dbc_file(path: str) -> Database:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dbc(handle.read())
