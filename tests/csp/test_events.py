"""Unit tests for events, channels and alphabets."""

import pytest

from repro.csp import Alphabet, Channel, Event, TAU, TICK, event, parse_event


class TestEvent:
    def test_plain_event_str(self):
        assert str(event("open_door")) == "open_door"

    def test_dotted_event_str(self):
        assert str(event("send", "reqSw")) == "send.reqSw"

    def test_multi_field_event_str(self):
        assert str(event("c", "x", 3)) == "c.x.3"

    def test_bool_field_renders_cspm_style(self):
        assert str(event("c", True)) == "c.true"
        assert str(event("c", False)) == "c.false"

    def test_equality_is_structural(self):
        assert event("a", 1) == event("a", 1)
        assert event("a", 1) != event("a", 2)
        assert event("a") != event("b")

    def test_hashable_and_usable_in_sets(self):
        assert len({event("a"), event("a"), event("b")}) == 2

    def test_empty_channel_name_rejected(self):
        with pytest.raises(ValueError):
            Event("")

    def test_dot_extension(self):
        assert event("send").dot("reqSw") == event("send", "reqSw")

    def test_tick_and_tau_classification(self):
        assert TICK.is_tick() and not TICK.is_visible()
        assert TAU.is_tau() and not TAU.is_visible()
        assert event("a").is_visible()

    def test_fields_tuple(self):
        assert event("c", 1, "x").fields == (1, "x")


class TestParseEvent:
    def test_plain(self):
        assert parse_event("a") == event("a")

    def test_dotted_string_field(self):
        assert parse_event("send.reqSw") == event("send", "reqSw")

    def test_numeric_field(self):
        assert parse_event("c.42") == event("c", 42)

    def test_boolean_fields(self):
        assert parse_event("c.true") == event("c", True)
        assert parse_event("c.false") == event("c", False)

    def test_validation_against_domains(self):
        channel = Channel("send", ["reqSw"])
        assert parse_event("send.reqSw", {"send": channel}) == channel("reqSw")
        with pytest.raises(ValueError):
            parse_event("send.bogus", {"send": channel})


class TestChannel:
    def test_event_construction(self):
        send = Channel("send", ["reqSw", "rptSw"])
        assert send("reqSw") == event("send", "reqSw")

    def test_arity_mismatch_rejected(self):
        send = Channel("send", ["reqSw"])
        with pytest.raises(ValueError):
            send()
        with pytest.raises(ValueError):
            send("reqSw", "extra")

    def test_out_of_domain_rejected(self):
        send = Channel("send", ["reqSw"])
        message = "value {!r} not in domain of field 0 of channel 'send'"
        for value in ("nope", ["reqSw"]):  # an unhashable value too
            with pytest.raises(ValueError) as raised:
                send(value)
            assert str(raised.value) == message.format(value)

    def test_zero_arity_channel(self):
        tick_tock = Channel("tock")
        assert tick_tock() == event("tock")
        assert list(tick_tock.events()) == [event("tock")]

    def test_events_enumeration(self):
        channel = Channel("c", [0, 1], ["x", "y"])
        assert len(list(channel.events())) == 4

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Channel("c", [])

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Channel("τ")

    def test_matches(self):
        send = Channel("send", ["a"])
        assert send.matches(event("send", "a"))
        assert not send.matches(event("rec", "a"))


class TestAlphabet:
    def test_set_operations(self):
        a, b, c = event("a"), event("b"), event("c")
        left = Alphabet.of(a, b)
        right = Alphabet.of(b, c)
        assert set((left | right).events) == {a, b, c}
        assert set((left & right).events) == {b}
        assert set((left - right).events) == {a}

    def test_contains_and_len(self):
        a, b = event("a"), event("b")
        alphabet = Alphabet.of(a, b)
        assert a in alphabet and len(alphabet) == 2

    def test_from_channels(self):
        send = Channel("send", ["x", "y"])
        rec = Channel("rec", ["x"])
        assert len(Alphabet.from_channels(send, rec)) == 3

    def test_tau_rejected(self):
        with pytest.raises(ValueError):
            Alphabet([TAU])

    def test_tick_allowed(self):
        assert TICK in Alphabet([TICK])

    def test_iteration_is_sorted_and_deterministic(self):
        alphabet = Alphabet.of(event("b"), event("a"), event("c"))
        assert [str(e) for e in alphabet] == ["a", "b", "c"]

    def test_equality_and_hash(self):
        assert Alphabet.of(event("a")) == Alphabet.of(event("a"))
        assert hash(Alphabet.of(event("a"))) == hash(Alphabet.of(event("a")))
