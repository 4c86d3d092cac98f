"""Signal packing and unpacking (the CANdb codec).

Implements the two DBC bit layouts: Intel/little-endian (``@1``), where the
start bit is the least-significant bit of the signal, and Motorola/big-endian
(``@0``), where the start bit is the most-significant and bit positions walk
the Motorola sawtooth.  Physical values go through each signal's
factor/offset scaling; symbolic labels resolve through the value table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Tuple, Union

from .model import Message, Signal

SignalValue = Union[int, float, str]


@lru_cache(maxsize=1024)
def _layout(start_bit: int, length: int, byte_order: str) -> Tuple[int, int]:
    """``(span, mask)`` of one bit-field, computed once per layout.

    Read the payload as one integer in the signal's byte order and the
    field is contiguous in it.  *span* counts the payload bits from where
    that reading starts through the field: from bit 0 for Intel, from the
    top bit of byte 0 for Motorola (whose start bit is the field's most
    significant).  The field fits an n-byte payload iff ``span <= 8 * n``.
    """
    if byte_order == "little":
        span = start_bit + length
    else:
        byte, bit = divmod(start_bit, 8)
        span = byte * 8 + (7 - bit) + length
    return span, (1 << length) - 1


def _shift(signal: Signal, span: int, size: int) -> int:
    """Where the field's least significant bit sits in the payload integer
    (negative when a Motorola field runs past the end of the payload)."""
    if signal.byte_order == "little":
        return signal.start_bit
    return 8 * size - span


def encode_raw(signal: Signal, raw: int, data: bytearray) -> None:
    """Pack a raw integer into *data* (modified in place)."""
    low, high = signal.raw_range()
    if not low <= raw <= high:
        raise ValueError(
            "raw value {} out of range {}..{} for signal {!r}".format(
                raw, low, high, signal.name
            )
        )
    size = len(data)
    span, mask = _layout(signal.start_bit, signal.length, signal.byte_order)
    if span > 8 * size:
        raise ValueError(
            "signal {!r} does not fit in a {}-byte payload".format(
                signal.name, size
            )
        )
    shift = _shift(signal, span, size)
    order = signal.byte_order
    payload = int.from_bytes(data, order) & ~(mask << shift)
    data[:] = (payload | (raw & mask) << shift).to_bytes(size, order)


def decode_raw(signal: Signal, data: bytes) -> int:
    """Extract the raw integer of *signal* from a payload.

    Bits past the end of a short payload read as zero.
    """
    span, mask = _layout(signal.start_bit, signal.length, signal.byte_order)
    shift = _shift(signal, span, len(data))
    payload = int.from_bytes(data, signal.byte_order)
    raw = (payload >> shift if shift >= 0 else payload << -shift) & mask
    if signal.signed and raw >> (signal.length - 1):
        raw -= mask + 1
    return raw


def _resolve_value(signal: Signal, value: SignalValue) -> int:
    if isinstance(value, str):
        for raw, label in signal.value_table.items():
            if label == value:
                return raw
        raise ValueError(
            "label {!r} not in value table of signal {!r}".format(value, signal.name)
        )
    return signal.physical_to_raw(float(value))


def encode_message(message: Message, values: Mapping[str, SignalValue]) -> bytes:
    """Build the payload of *message* from signal values.

    Values may be physical numbers or value-table labels.  Unmentioned
    signals encode as raw zero.
    """
    data = bytearray(message.dlc)
    for name in values:
        message.signal(name)  # raises KeyError for unknown signals
    for signal in message.signals:
        if signal.name in values:
            encode_raw(signal, _resolve_value(signal, values[signal.name]), data)
    return bytes(data)


def decode_message(message: Message, data: bytes) -> Dict[str, SignalValue]:
    """Decode a payload into physical values (labels when a table matches)."""
    decoded: Dict[str, SignalValue] = {}
    for signal in message.signals:
        raw = decode_raw(signal, data)
        label = signal.label_for(raw)
        if label is not None:
            decoded[signal.name] = label
        else:
            physical = signal.raw_to_physical(raw)
            if float(physical).is_integer():
                decoded[signal.name] = int(physical)
            else:
                decoded[signal.name] = physical
    return decoded
