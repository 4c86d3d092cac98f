"""Unit and property tests for the signal codec (pack/unpack)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.candb import (
    Message,
    Signal,
    decode_message,
    decode_raw,
    encode_message,
    encode_raw,
)


def little(start, length, signed=False, factor=1.0, offset=0.0):
    return Signal("s", start, length, "little", signed, factor, offset)


def big(start, length, signed=False):
    return Signal("s", start, length, "big", signed)


class TestLittleEndian:
    def test_byte_aligned(self):
        data = bytearray(2)
        encode_raw(little(0, 8), 0xAB, data)
        assert data == bytearray([0xAB, 0x00])
        assert decode_raw(little(0, 8), bytes(data)) == 0xAB

    def test_second_byte(self):
        data = bytearray(2)
        encode_raw(little(8, 8), 0xCD, data)
        assert data == bytearray([0x00, 0xCD])

    def test_sub_byte_field(self):
        data = bytearray(1)
        encode_raw(little(4, 4), 0x9, data)
        assert data[0] == 0x90
        assert decode_raw(little(4, 4), bytes(data)) == 0x9

    def test_cross_byte_field(self):
        data = bytearray(2)
        encode_raw(little(4, 8), 0xFF, data)
        assert data == bytearray([0xF0, 0x0F])

    def test_16_bit(self):
        data = bytearray(2)
        encode_raw(little(0, 16), 0x1234, data)
        # little-endian: LSB first
        assert data == bytearray([0x34, 0x12])


class TestBigEndian:
    def test_byte_aligned_msb(self):
        data = bytearray(2)
        encode_raw(big(7, 8), 0xAB, data)
        assert data == bytearray([0xAB, 0x00])
        assert decode_raw(big(7, 8), bytes(data)) == 0xAB

    def test_motorola_16_bit(self):
        data = bytearray(2)
        encode_raw(big(7, 16), 0x1234, data)
        # big-endian: MSB first
        assert data == bytearray([0x12, 0x34])
        assert decode_raw(big(7, 16), bytes(data)) == 0x1234


class TestSigned:
    def test_negative_roundtrip(self):
        data = bytearray(1)
        encode_raw(little(0, 8, signed=True), -5, data)
        assert decode_raw(little(0, 8, signed=True), bytes(data)) == -5

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            encode_raw(little(0, 8, signed=True), 200, bytearray(1))
        with pytest.raises(ValueError):
            encode_raw(little(0, 8), 256, bytearray(1))

    def test_raw_range(self):
        assert little(0, 8).raw_range() == (0, 255)
        assert little(0, 8, signed=True).raw_range() == (-128, 127)


class TestScaling:
    def test_factor_offset(self):
        signal = little(0, 8, factor=0.5, offset=-40.0)
        assert signal.physical_to_raw(-40.0) == 0
        assert signal.physical_to_raw(0.0) == 80
        assert signal.raw_to_physical(80) == 0.0

    def test_out_of_range_physical(self):
        signal = little(0, 4)
        with pytest.raises(ValueError):
            signal.physical_to_raw(100)


class TestMessageCodec:
    def make_message(self):
        message = Message(0x101, "status", 3)
        message.add_signal(Signal("speed", 0, 12, "little", factor=0.1))
        gear = Signal("gear", 12, 3, "little")
        gear.value_table = {0: "park", 1: "reverse", 2: "drive"}
        message.add_signal(gear)
        return message

    def test_encode_decode_roundtrip(self):
        message = self.make_message()
        payload = encode_message(message, {"speed": 88.8, "gear": "drive"})
        decoded = decode_message(message, payload)
        assert decoded["gear"] == "drive"
        assert abs(decoded["speed"] - 88.8) < 0.1

    def test_unknown_signal_rejected(self):
        with pytest.raises(KeyError):
            encode_message(self.make_message(), {"boost": 1})

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            encode_message(self.make_message(), {"gear": "warp"})

    def test_unmentioned_signals_zero(self):
        message = self.make_message()
        payload = encode_message(message, {})
        decoded = decode_message(message, payload)
        assert decoded["gear"] == "park"  # raw 0 labelled

    def test_signal_overflowing_payload_rejected(self):
        message = Message(1, "tiny", 1)
        message.add_signal(Signal("wide", 0, 16, "little"))
        with pytest.raises(ValueError):
            encode_message(message, {"wide": 1000})


@settings(max_examples=200, deadline=None)
@given(
    start_byte=st.integers(0, 6),
    length=st.integers(1, 16),
    order=st.sampled_from(["little", "big"]),
    data=st.data(),
)
def test_property_roundtrip(start_byte, length, order, data):
    """encode then decode returns the original raw value, both byte orders."""
    if order == "little":
        start_bit = start_byte * 8
    else:
        start_bit = start_byte * 8 + 7  # MSB of the byte
    signal = Signal("s", start_bit, length, order)
    raw = data.draw(st.integers(0, (1 << length) - 1))
    payload = bytearray(8)
    encode_raw(signal, raw, payload)
    assert decode_raw(signal, bytes(payload)) == raw


@settings(max_examples=100, deadline=None)
@given(raw=st.integers(-128, 127))
def test_property_signed_roundtrip(raw):
    signal = Signal("s", 0, 8, "little", signed=True)
    payload = bytearray(1)
    encode_raw(signal, raw, payload)
    assert decode_raw(signal, bytes(payload)) == raw


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(0, 15),
    b=st.integers(0, 15),
)
def test_property_disjoint_fields_independent(a, b):
    """Two non-overlapping fields encode without interference."""
    low = Signal("low", 0, 4, "little")
    high = Signal("high", 4, 4, "little")
    payload = bytearray(1)
    encode_raw(low, a, payload)
    encode_raw(high, b, payload)
    assert decode_raw(low, bytes(payload)) == a
    assert decode_raw(high, bytes(payload)) == b


# -- differential test against the bit-by-bit reference -----------------------


def _reference_positions(signal):
    """Absolute bit positions, MSB of the signal first (the original walk)."""
    if signal.byte_order == "little":
        return [signal.start_bit + i for i in reversed(range(signal.length))]
    positions = []
    position = signal.start_bit
    for _ in range(signal.length):
        positions.append(position)
        position += 15 if position % 8 == 0 else -1
    return positions


def reference_encode_raw(signal, raw, data):
    """The codec's original bit loop, kept as the differential reference."""
    low, high = signal.raw_range()
    if not low <= raw <= high:
        raise ValueError(
            "raw value {} out of range {}..{} for signal {!r}".format(
                raw, low, high, signal.name
            )
        )
    if raw < 0:
        raw += 1 << signal.length
    for index, position in enumerate(_reference_positions(signal)):
        bit = (raw >> (signal.length - 1 - index)) & 1
        byte_index, bit_index = divmod(position, 8)
        if byte_index >= len(data):
            raise ValueError(
                "signal {!r} does not fit in a {}-byte payload".format(
                    signal.name, len(data)
                )
            )
        if bit:
            data[byte_index] |= 1 << bit_index
        else:
            data[byte_index] &= ~(1 << bit_index)


def reference_decode_raw(signal, data):
    raw = 0
    for position in _reference_positions(signal):
        byte_index, bit_index = divmod(position, 8)
        bit = (data[byte_index] >> bit_index) & 1 if byte_index < len(data) else 0
        raw = (raw << 1) | bit
    if signal.signed and raw >= 1 << (signal.length - 1):
        raw -= 1 << signal.length
    return raw


def _outcome(encode, signal, raw, data):
    """The packed payload, or the error text (the payload is then moot)."""
    try:
        encode(signal, raw, data)
    except ValueError as error:
        return "error: {}".format(error)
    return bytes(data)


def _random_case(rng):
    dlc = rng.randint(0, 8)
    order = rng.choice(("little", "big"))
    if dlc and rng.random() < 0.75:
        # a field that fits: its first bit in reading order within reach
        length = rng.randint(1, min(64, 8 * dlc))
        first = rng.randint(0, 8 * dlc - length)
        if order == "little":
            start = first
        else:
            # Motorola start bits count the first bit from the top of its byte
            start = first - first % 8 + 7 - first % 8
    else:
        # anywhere up to two bytes past the payload: mostly does not fit
        length = rng.randint(1, 64)
        start = rng.randrange(8 * dlc + 16)
    signal = Signal("s", start, length, order, rng.random() < 0.5)
    low, high = signal.raw_range()
    # mostly in range, some just outside it
    raw = rng.choice(
        (rng.randint(low, high), rng.randint(low, high), low, high, low - 1, high + 1)
    )
    payload = bytes(rng.randrange(256) for _ in range(dlc))
    return signal, raw, payload


def test_codec_matches_the_bit_loop_reference():
    import random

    rng = random.Random(20190624)
    outcomes = {"packed": 0, "out of range": 0, "does not fit": 0}
    for _ in range(20_000):
        signal, raw, payload = _random_case(rng)
        expected = _outcome(reference_encode_raw, signal, raw, bytearray(payload))
        assert _outcome(encode_raw, signal, raw, bytearray(payload)) == expected, (
            signal,
            raw,
            payload,
        )
        if isinstance(expected, bytes):
            outcomes["packed"] += 1
        elif "out of range" in expected:
            outcomes["out of range"] += 1
        else:
            outcomes["does not fit"] += 1
        # decoding never fails: bits past a short payload read as zero
        assert decode_raw(signal, payload) == reference_decode_raw(signal, payload)
    # the sample exercises both error paths as well as the packing
    assert min(outcomes.values()) > 1_000, outcomes


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("signed", [False, True])
def test_every_length_round_trips_in_an_eight_byte_payload(order, signed):
    for length in range(1, 65):
        start = 0 if order == "little" else 7
        signal = Signal("s", start, length, order, signed)
        low, high = signal.raw_range()
        for raw in (low, high, (low + high) // 2):
            data = bytearray(b"\xa5" * 8)
            expected = bytearray(data)
            reference_encode_raw(signal, raw, expected)
            encode_raw(signal, raw, data)
            assert data == expected
            assert decode_raw(signal, bytes(data)) == raw


def test_a_failed_encode_leaves_the_payload_untouched():
    data = bytearray(b"\x12\x34")
    with pytest.raises(ValueError, match="does not fit in a 2-byte payload"):
        encode_raw(big(7, 24), 1, data)
    with pytest.raises(ValueError, match="out of range"):
        encode_raw(little(0, 4), 16, data)
    assert data == bytearray(b"\x12\x34")
