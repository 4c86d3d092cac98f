"""A content-addressed on-disk store for compiled LTSs.

The in-memory :class:`~repro.engine.cache.CompilationCache` dies with its
process, which wastes exactly the work a batch run repeats most: every
worker of :mod:`repro.batch` (and every ``cspbatch`` invocation) recompiles
the same specification automata from scratch.  This module persists compiled
LTSs under a content address -- the SHA-256 of the structural cache key plus
the applied pass configuration -- so compilation results survive across
processes and sessions and can be shared by concurrently running workers.

Format version 2 serialises the kernel's CSR arrays directly.  An entry
(``<digest>.ltsb``) is one JSON header line -- format version, the full
stored key, the initial state, array lengths, and the event list -- followed
by the raw little-endian int64 bytes of the three flat arrays (offsets,
local event ids, targets).  A warm read parses one line of JSON, then
``array.frombytes`` adopts each array without touching individual elements;
the only per-edge work is translating local event ids to the reading
table's interned ids.

Design constraints, in order:

* **Soundness over availability.**  Every read validates the format version
  and the full stored key before trusting an entry; a file that is missing,
  truncated, garbage, version-skewed, or a digest collision is treated as a
  cache miss (and quarantined), never as data.  Workers therefore tolerate
  a sibling crashing mid-write or an operator truncating files at random.
  Entries written by older format versions (the v1 ``.json`` layout) are
  swept out when the cache directory is opened and counted as *stale*.
* **Atomic writes.**  Entries are written to a temporary file in the cache
  directory and published with ``os.replace``, so concurrent readers see
  either the complete entry or nothing.  Two workers racing to publish the
  same key both write identical bytes; last rename wins harmlessly.
* **Table independence.**  An LTS's transition labels are dense ids from
  the compiling pipeline's :class:`~repro.csp.events.AlphabetTable`.  Ids
  are private to a process, so entries store the *events themselves*
  (channel + field values) and re-intern them into the reading pipeline's
  table on load.  State numbering and per-state transition order are
  preserved exactly, which keeps BFS exploration order -- and therefore
  verdicts, counterexample traces and states-explored counts -- identical
  between a cold compile and a warm read.

What is *not* stored: the per-state source terms (``LTS.terms``).  They
exist only for diagnostics (counterexample provenance) and are not part of
any verdict or trace; a warm-read LTS carries ``None`` terms, and the
in-memory cache layered above keeps the term-full LTS for the process that
compiled it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..csp.events import AlphabetTable, Event, event_from_json, fields_to_json
from ..csp.kernel import CompactLTS
from ..csp.lts import LTS

# the layout version and key digest live with every other structural key in
# repro.exec.keys
from ..exec.keys import DISKCACHE_FORMAT_VERSION, lts_key_digest

#: on-disk entry suffix (v2 binary layout); v1 used ``.json``
ENTRY_SUFFIX = ".ltsb"

_ITEM_SIZE = array("q").itemsize

def _encode_event(event: Event) -> List[object]:
    return [event.channel, fields_to_json(event.fields)]


def _decode_event(doc: Sequence[object]) -> Event:
    channel, fields = doc
    return event_from_json(channel, fields)


def _le_bytes(arr: array) -> bytes:
    """The array's raw bytes, normalised to little-endian."""
    if sys.byteorder == "big":
        arr = array("q", arr)
        arr.byteswap()
    return arr.tobytes()


def _array_from_le(raw: bytes) -> array:
    arr = array("q")
    arr.frombytes(raw)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _entry_bytes(key, passes: Tuple[str, ...], lts: LTS) -> bytes:
    offsets, events, targets = lts.csr_arrays()
    used: List[int] = []
    seen = set()
    for eid in events:
        if eid not in seen:
            seen.add(eid)
            used.append(eid)
    # ascending original id = the order the compiler first interned them,
    # so a fresh table re-interns in the same sequence as a cold compile
    used.sort()
    local_of = {eid: index for index, eid in enumerate(used)}
    local_events = array("q", [local_of[eid] for eid in events])
    event_of = lts.table.event_of
    header = {
        "format": DISKCACHE_FORMAT_VERSION,
        "key": repr((key, tuple(passes))),
        "initial": lts.initial,
        "states": lts.state_count,
        "transitions": len(events),
        "events": [_encode_event(event_of(eid)) for eid in used],
    }
    return b"".join(
        (
            json.dumps(header, separators=(",", ":")).encode("utf-8"),
            b"\n",
            _le_bytes(offsets),
            _le_bytes(local_events),
            _le_bytes(targets),
        )
    )


def _lts_of(
    header: Dict[str, object], body: bytes, table: Optional[AlphabetTable]
) -> LTS:
    states = header["states"]
    transitions = header["transitions"]
    if not isinstance(states, int) or not isinstance(transitions, int):
        raise ValueError("non-integer array lengths")
    if states < 0 or transitions < 0:
        raise ValueError("negative array lengths")
    offsets_size = (states + 1) * _ITEM_SIZE
    edges_size = transitions * _ITEM_SIZE
    if len(body) != offsets_size + 2 * edges_size:
        raise ValueError("body size mismatch")
    offsets = _array_from_le(body[:offsets_size])
    local_events = _array_from_le(
        body[offsets_size : offsets_size + edges_size]
    )
    targets = _array_from_le(body[offsets_size + edges_size :])
    if table is None:
        table = AlphabetTable()
    ids = [table.intern(_decode_event(entry)) for entry in header["events"]]
    if local_events:
        if min(local_events) < 0 or max(local_events) >= len(ids):
            raise ValueError("local event id out of range")
        # translate local ids in place; identical local/interned maps (the
        # common same-process warm read) skip the per-edge rewrite entirely
        if ids != list(range(len(ids))):
            for i, local in enumerate(local_events):
                local_events[i] = ids[local]
    initial = header["initial"]
    if not isinstance(initial, int) or not 0 <= initial < max(states, 1):
        raise ValueError("initial state out of range")
    if offsets[0] != 0 or offsets[-1] != transitions:
        raise ValueError("offsets do not cover the edge arrays")
    for position in range(states):
        if offsets[position] > offsets[position + 1]:
            raise ValueError("offsets are not monotone")
    for target in targets:
        if not 0 <= target < states:
            raise ValueError("target state out of range")
    return CompactLTS(table, initial, offsets, local_events, targets)


class DiskCache:
    """Content-addressed LTS store shared across workers and sessions."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: entries rejected by validation (and quarantined) on read
        self.corrupt = 0
        self.writes = 0
        #: entries from older format versions swept out when opening
        self.stale = self._sweep_stale()

    def _sweep_stale(self) -> int:
        """Remove v1 ``.json`` entries; their digests differ under v2 anyway."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return removed
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- paths ---------------------------------------------------------------

    def path_of(self, key, passes: Tuple[str, ...] = ()) -> str:
        return os.path.join(
            self.directory, lts_key_digest(key, passes) + ENTRY_SUFFIX
        )

    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(ENTRY_SUFFIX))

    # -- reads ---------------------------------------------------------------

    def get_lts(
        self,
        key,
        passes: Tuple[str, ...] = (),
        table: Optional[AlphabetTable] = None,
    ) -> Optional[LTS]:
        """The stored LTS for *key*, re-interned into *table*, or None.

        Any defect in the entry -- unreadable file, bad header, version
        skew, stored-key mismatch, truncated or inconsistent arrays --
        counts as a miss; the offending file is removed so it cannot fail
        every future read.
        """
        path = self.path_of(key, passes)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            newline = raw.index(b"\n")
            header = json.loads(raw[:newline].decode("utf-8"))
            if header["format"] != DISKCACHE_FORMAT_VERSION:
                raise ValueError("format version skew")
            if header["key"] != repr((key, tuple(passes))):
                raise ValueError("stored key mismatch")
            lts = _lts_of(header, raw[newline + 1 :], table)
        except (KeyError, IndexError, TypeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return lts

    def _quarantine(self, path: str) -> None:
        self.corrupt += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # -- writes --------------------------------------------------------------

    def put_lts(self, key, lts: LTS, passes: Tuple[str, ...] = ()) -> bool:
        """Persist *lts* under *key*; returns False if the write failed.

        The entry is staged in a temporary file in the cache directory and
        published atomically, so a concurrent reader (or a crash mid-write)
        never observes a partial entry.  Failures are swallowed: the disk
        layer is an accelerator, never a correctness dependency.
        """
        payload = _entry_bytes(key, tuple(passes), lts)
        path = self.path_of(key, passes)
        try:
            fd, staged = tempfile.mkstemp(
                prefix=".staged-", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(staged, path)
            except BaseException:
                try:
                    os.remove(staged)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.writes += 1
        return True

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith((ENTRY_SUFFIX, ".json", ".tmp")):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

    def stats(self) -> Dict[str, int]:
        return {
            "disk_entries": len(self),
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "disk_corrupt": self.corrupt,
            "disk_writes": self.writes,
            "disk_stale": self.stale,
        }

    def __repr__(self) -> str:
        return "DiskCache({!r}, {} entries)".format(self.directory, len(self))
