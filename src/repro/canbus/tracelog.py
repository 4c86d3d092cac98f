"""Simulation trace logging.

Every frame transfer is logged as a :class:`TraceEntry`.  The log renders in
a CANoe-trace-window style and writes tracelog JSONL (:meth:`TraceLog.to_jsonl`),
the interchange format :mod:`repro.rv.ingest` reads; frames become CSP events
through :class:`repro.rv.mapping.EventMapping`, so simulation runs can be
replayed against the extracted CSP models -- closing the loop of the paper's
Fig. 1 workflow.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .frame import CanFrame


class TraceEntry:
    """One bus transfer: timestamp, transmitting node and the frame."""

    __slots__ = ("time", "sender", "frame")

    def __init__(self, time: int, sender: str, frame: CanFrame) -> None:
        self.time = time
        self.sender = sender
        self.frame = frame

    def to_doc(self) -> Dict[str, Any]:
        """The JSON-object form of one transfer (tracelog JSONL line)."""
        doc: Dict[str, Any] = {
            "t": self.time,
            "sender": self.sender,
            "id": self.frame.can_id,
            "data": list(self.frame.data),
        }
        if self.frame.name is not None:
            doc["name"] = self.frame.name
        if self.frame.extended:
            doc["extended"] = True
        if self.frame.remote:
            doc["remote"] = True
        return doc

    def __repr__(self) -> str:
        return "TraceEntry(t={}, {} -> {!r})".format(self.time, self.sender, self.frame)


class TraceLog:
    """An append-only log of bus transfers."""

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []

    def record(self, time: int, sender: str, frame: CanFrame) -> None:
        self.entries.append(TraceEntry(time, sender, frame))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def frames(self) -> List[CanFrame]:
        return [entry.frame for entry in self.entries]

    def names(self) -> List[str]:
        """Symbolic message names in transfer order (id in hex when unnamed)."""
        return [
            entry.frame.name or "0x{:X}".format(entry.frame.can_id)
            for entry in self.entries
        ]

    def render(self) -> str:
        """A CANoe-trace-window-style textual rendering."""
        lines = ["{:>10}  {:<12} {:<10} {}".format("time(us)", "node", "id", "data")]
        for entry in self.entries:
            payload = " ".join("{:02X}".format(b) for b in entry.frame.data)
            label = entry.frame.name or ""
            lines.append(
                "{:>10}  {:<12} 0x{:<8X} {}  {}".format(
                    entry.time, entry.sender, entry.frame.can_id, payload, label
                )
            )
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        """The log as tracelog JSONL -- the canonical rv interchange format.

        One sorted-key JSON object per transfer (see
        :meth:`TraceEntry.to_doc`), newline-terminated; byte-deterministic
        for a given log.  :mod:`repro.rv.ingest` parses this format (and
        round-trips every field the CSP event mappings depend on).
        """
        return "".join(
            json.dumps(entry.to_doc(), sort_keys=True) + "\n"
            for entry in self.entries
        )

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
