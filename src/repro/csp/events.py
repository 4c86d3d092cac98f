"""Events, channels and alphabets for the CSP process algebra.

The paper (Sec. IV-A2) works with a set of events ``Sigma`` plus the special
termination event (tick).  Channel communications such as ``send.reqSw`` are
compound events: a channel name followed by zero or more data values.  This
module provides:

* :class:`Event` -- an immutable, hashable event value.
* :data:`TICK` / :data:`TAU` -- the special termination and internal events.
* :class:`Channel` -- a typed channel that manufactures events and can
  enumerate the finite set of events it carries.
* :class:`Alphabet` -- a finite set of events with set-algebra helpers, used
  as the synchronisation set of generalised parallel composition.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple, Union

Value = Union[str, int, bool, Tuple["Value", ...]]

_TICK_NAME = "✓"  # the paper's checkmark
_TAU_NAME = "τ"


def _format_value(value: Value) -> str:
    """Render a single event field the way CSPm prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_value(v) for v in value) + ")"
    return str(value)


class Event:
    """An immutable CSP event.

    An event is a channel name plus a (possibly empty) tuple of field values.
    Plain events such as ``tick_tock`` are events whose field tuple is empty.
    Events compare and hash structurally, so they can be stored in the
    alphabets and transition tables used by the refinement checker.
    """

    __slots__ = ("_channel", "_fields", "_hash")

    def __init__(self, channel: str, fields: Sequence[Value] = ()) -> None:
        if not channel:
            raise ValueError("event channel name must be non-empty")
        self._channel = channel
        self._fields = tuple(fields)
        self._hash = hash((self._channel, self._fields))

    @property
    def channel(self) -> str:
        """The channel (or bare event) name."""
        return self._channel

    @property
    def fields(self) -> Tuple[Value, ...]:
        """The data fields carried on the channel."""
        return self._fields

    def is_tick(self) -> bool:
        """True for the distinguished termination event."""
        return self._channel == _TICK_NAME

    def is_tau(self) -> bool:
        """True for the internal (invisible) event."""
        return self._channel == _TAU_NAME

    def is_visible(self) -> bool:
        """True for ordinary events drawn from Sigma (not tick, not tau)."""
        return not self.is_tick() and not self.is_tau()

    def dot(self, *fields: Value) -> "Event":
        """Extend this event with more fields: ``send.dot('reqSw')``."""
        return Event(self._channel, self._fields + tuple(fields))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._channel == other._channel and self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Event({!r})".format(str(self))

    def __str__(self) -> str:
        if not self._fields:
            return self._channel
        parts = ".".join(_format_value(f) for f in self._fields)
        return "{}.{}".format(self._channel, parts)


#: The distinguished successful-termination event (the paper's checkmark).
TICK = Event(_TICK_NAME)

#: The internal, invisible event produced by hiding and internal choice.
TAU = Event(_TAU_NAME)


# -- JSON form, shared by the spec wire format and the disk cache --------------


def fields_to_json(fields: Tuple[Value, ...]) -> list:
    """An event's fields as JSON: a tuple field becomes ``{"t": [...]}``."""
    for value in fields:
        if isinstance(value, tuple):
            return [
                {"t": fields_to_json(item)} if isinstance(item, tuple) else item
                for item in fields
            ]
    return list(fields)


def event_from_json(channel: object, fields: object) -> Event:
    """The event a JSON channel and field list stand for.

    Raises :class:`ValueError` unless *channel* is a non-empty string and
    every field is a string, an integer, a boolean or a tagged tuple.
    """
    if isinstance(channel, str) and isinstance(fields, list):
        # the common case, scalar fields: one type check each (bool is an int)
        for value in fields:
            if not isinstance(value, (str, int)):
                break
        else:
            return Event(channel, fields)
    if not isinstance(channel, str):
        raise ValueError("event channel {!r} is not a string".format(channel))
    return Event(channel, _fields_from_json(fields))


def _fields_from_json(doc: object) -> Tuple[Value, ...]:
    if not isinstance(doc, list):
        raise ValueError("event fields {!r} are not a list".format(doc))
    return tuple(_field_from_json(value) for value in doc)


def _field_from_json(doc: object) -> Value:
    if isinstance(doc, (str, int)):
        return doc
    if isinstance(doc, dict) and len(doc) == 1 and "t" in doc:
        return _fields_from_json(doc["t"])
    raise ValueError(
        "event field {!r} is not a string, an integer, a boolean or a "
        "tagged tuple".format(doc)
    )


class Channel:
    """A typed CSP channel declaration.

    Mirrors the CSPm declaration ``channel send, rec : msgs`` from the paper's
    Sec. V-B.  A channel knows the finite domain of each of its fields, so the
    full set of events it can carry is enumerable -- which is what makes the
    models finite-state and checkable.
    """

    def __init__(self, name: str, *field_domains: Sequence[Value]) -> None:
        if not name:
            raise ValueError("channel name must be non-empty")
        if name in (_TICK_NAME, _TAU_NAME):
            raise ValueError("channel name collides with a reserved event")
        self.name = name
        self.field_domains: Tuple[Tuple[Value, ...], ...] = tuple(
            tuple(domain) for domain in field_domains
        )
        for index, domain in enumerate(self.field_domains):
            if not domain:
                raise ValueError(
                    "field {} of channel {!r} has an empty domain".format(index, name)
                )
        #: one set per field for membership; the tuples keep enumeration order
        self._members: Tuple[FrozenSet[Value], ...] = tuple(
            frozenset(domain) for domain in self.field_domains
        )

    @property
    def arity(self) -> int:
        """Number of data fields the channel carries."""
        return len(self.field_domains)

    def __call__(self, *fields: Value) -> Event:
        """Build the event ``name.f1.f2...`` after validating the fields."""
        if len(fields) != self.arity:
            raise ValueError(
                "channel {!r} carries {} field(s), got {}".format(
                    self.name, self.arity, len(fields)
                )
            )
        for index, (field, members) in enumerate(zip(fields, self._members)):
            try:
                known = field in members
            except TypeError:  # unhashable: compare as before, by equality
                known = field in self.field_domains[index]
            if not known:
                raise ValueError(
                    "value {!r} not in domain of field {} of channel {!r}".format(
                        field, index, self.name
                    )
                )
        return Event(self.name, fields)

    def event(self, *fields: Value) -> Event:
        """Alias of :meth:`__call__` for readability at call sites."""
        return self(*fields)

    def events(self) -> Iterator[Event]:
        """Enumerate every event this channel can carry (the channel's extensions)."""
        name = self.name
        for fields in itertools.product(*self.field_domains):
            yield Event(name, fields)

    def alphabet(self) -> "Alphabet":
        """The set of all events on this channel as an :class:`Alphabet`."""
        return Alphabet(self.events())

    def matches(self, event: Event) -> bool:
        """True if *event* is carried by this channel."""
        return event.channel == self.name

    def __repr__(self) -> str:
        return "Channel({!r}, arity={})".format(self.name, self.arity)


class Alphabet:
    """A finite set of events, used as a synchronisation or hiding set."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = ()) -> None:
        frozen = frozenset(events)
        for event in frozen:
            if not isinstance(event, Event):
                raise TypeError("alphabet members must be Event, got {!r}".format(event))
            if event.is_tau():
                raise ValueError("tau may not appear in an alphabet")
        self._events = frozen

    @classmethod
    def of(cls, *events: Event) -> "Alphabet":
        """Convenience constructor: ``Alphabet.of(a, b, c)``."""
        return cls(events)

    @classmethod
    def from_channels(cls, *channels: Channel) -> "Alphabet":
        """The union of the extensions of several channels."""
        collected = []
        for channel in channels:
            collected.extend(channel.events())
        return cls(collected)

    @property
    def events(self) -> frozenset:
        return self._events

    def union(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self._events | other._events)

    def intersection(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self._events & other._events)

    def difference(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self._events - other._events)

    def __or__(self, other: "Alphabet") -> "Alphabet":
        return self.union(other)

    def __and__(self, other: "Alphabet") -> "Alphabet":
        return self.intersection(other)

    def __sub__(self, other: "Alphabet") -> "Alphabet":
        return self.difference(other)

    def __contains__(self, event: Event) -> bool:
        return event in self._events

    def __iter__(self) -> Iterator[Event]:
        return iter(sorted(self._events, key=str))

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return "Alphabet({{{}}})".format(", ".join(str(e) for e in self))


#: Dense ids reserved by every :class:`AlphabetTable`.
TAU_ID = 0
TICK_ID = 1


class AlphabetTable:
    """Interns events to dense integer ids for the verification engine.

    A table is shared by every automaton of one verification pipeline, so a
    transition label is a single small int: comparable with ``==``, usable
    as a list index, and packable into refusal-set bitsets (bit *i* of a
    bitset stands for the event with id *i*).  Tau and tick always get ids
    0 and 1; visible events are numbered in interning order.  The table
    renders ids back to :class:`Event` at API boundaries (counterexamples,
    trace reports), so callers never see the ids unless they ask.
    """

    __slots__ = ("_ids", "_events", "_sort_keys")

    def __init__(self) -> None:
        self._ids = {TAU: TAU_ID, TICK: TICK_ID}
        self._events = [TAU, TICK]
        self._sort_keys = [str(TAU), str(TICK)]

    def __len__(self) -> int:
        return len(self._events)

    def intern(self, event: Event) -> int:
        """The id of *event*, allocating the next dense id on first sight."""
        eid = self._ids.get(event)
        if eid is None:
            eid = len(self._events)
            self._ids[event] = eid
            self._events.append(event)
            self._sort_keys.append(str(event))
        return eid

    def id_of(self, event: Event) -> Optional[int]:
        """The id of *event* if already interned, else ``None`` (no allocation)."""
        return self._ids.get(event)

    def event_of(self, eid: int) -> Event:
        """Render an id back to its event."""
        return self._events[eid]

    def sort_key(self, eid: int) -> str:
        """The event's display string -- the deterministic ordering key."""
        return self._sort_keys[eid]

    def events(self) -> Tuple[Event, ...]:
        """Every interned event, in id order (tau and tick first)."""
        return tuple(self._events)

    # -- bitset helpers ------------------------------------------------------

    def encode_set(self, events: Iterable[Event]) -> int:
        """Pack a set of events into an int bitset, interning as needed."""
        bits = 0
        for event in events:
            bits |= 1 << self.intern(event)
        return bits

    def encode_known(self, events: Iterable[Event]) -> int:
        """Pack only the already-interned members of *events* into a bitset."""
        bits = 0
        for event in events:
            eid = self._ids.get(event)
            if eid is not None:
                bits |= 1 << eid
        return bits

    def decode_bits(self, bits: int) -> frozenset:
        """Unpack a bitset into the frozenset of events it stands for."""
        events = []
        while bits:
            low = bits & -bits
            events.append(self._events[low.bit_length() - 1])
            bits ^= low
        return frozenset(events)


def event(name: str, *fields: Value) -> Event:
    """Build an event directly: ``event('send', 'reqSw')`` is ``send.reqSw``."""
    return Event(name, fields)


def parse_event(text: str, domains: Optional[dict] = None) -> Event:
    """Parse a dotted event string such as ``"send.reqSw.1"``.

    Numeric fields become ints, ``true``/``false`` become bools, everything
    else stays a string.  *domains* optionally maps channel name -> Channel
    for validation.
    """
    parts = text.split(".")
    name = parts[0]
    fields = []
    for raw in parts[1:]:
        if raw == "true":
            fields.append(True)
        elif raw == "false":
            fields.append(False)
        else:
            try:
                fields.append(int(raw))
            except ValueError:
                fields.append(raw)
    if domains is not None and name in domains:
        return domains[name](*fields)
    return Event(name, tuple(fields))
