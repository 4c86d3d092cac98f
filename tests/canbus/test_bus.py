"""Unit tests for the bus: arbitration, delivery, logging, fault injection."""

import pytest

from repro.canbus import (
    CanBus,
    CanFrame,
    CanNode,
    FunctionNode,
    Scheduler,
    ScriptedNode,
)


def make_bus(bitrate=500_000):
    scheduler = Scheduler()
    return CanBus(scheduler, bitrate=bitrate), scheduler


class Recorder(CanNode):
    def __init__(self, name, bus):
        super().__init__(name, bus)
        self.heard = []

    def on_message(self, frame):
        self.heard.append(frame)


class TestMembership:
    def test_attach_and_detach(self):
        bus, _ = make_bus()
        node = Recorder("A", bus)
        assert node in bus.nodes
        bus.detach(node)
        assert node not in bus.nodes

    def test_double_attach_rejected(self):
        bus, _ = make_bus()
        node = Recorder("A", bus)
        with pytest.raises(ValueError):
            bus.attach(node)


class TestDelivery:
    def test_broadcast_to_all_but_sender(self):
        bus, _ = make_bus()
        alice = Recorder("A", bus)
        bob = Recorder("B", bus)
        carol = Recorder("C", bus)
        alice.output(CanFrame(0x10, [1]))
        bus.run()
        assert len(bob.heard) == 1 and len(carol.heard) == 1
        assert alice.heard == []

    def test_log_records_transfer(self):
        bus, scheduler = make_bus()
        alice = Recorder("A", bus)
        Recorder("B", bus)
        alice.output(CanFrame(0x10, [1], name="ping"))
        bus.run()
        assert len(bus.log) == 1
        entry = bus.log.entries[0]
        assert entry.sender == "A"
        assert entry.time == scheduler.now

    def test_frame_time_depends_on_bitrate(self):
        fast_bus, _ = make_bus(bitrate=1_000_000)
        slow_bus, _ = make_bus(bitrate=125_000)
        frame = CanFrame(1, [0] * 8)
        assert slow_bus.frame_time_us(frame) > fast_bus.frame_time_us(frame)

    def test_invalid_bitrate_rejected(self):
        with pytest.raises(ValueError):
            CanBus(Scheduler(), bitrate=0)


class TestArbitration:
    def test_lowest_id_transmits_first(self):
        bus, _ = make_bus()
        sender = Recorder("S", bus)
        Recorder("R", bus)
        # queue both while bus is busy with a first frame
        sender.output(CanFrame(0x700))
        sender.output(CanFrame(0x300))
        sender.output(CanFrame(0x100))
        bus.run()
        ids = [entry.frame.can_id for entry in bus.log]
        assert ids == [0x700, 0x100, 0x300]  # first grabs the idle bus; then priority

    def test_fifo_among_equal_ids(self):
        bus, _ = make_bus()
        sender = Recorder("S", bus)
        Recorder("R", bus)
        sender.output(CanFrame(0x500, [1]))
        sender.output(CanFrame(0x100, [1]))
        sender.output(CanFrame(0x100, [2]))
        bus.run()
        payloads = [entry.frame.byte(0) for entry in bus.log if entry.frame.can_id == 0x100]
        assert payloads == [1, 2]

    def test_bus_occupancy_serialises_transfers(self):
        bus, scheduler = make_bus()
        sender = Recorder("S", bus)
        Recorder("R", bus)
        frame = CanFrame(0x100, [0] * 8)
        sender.output(frame)
        sender.output(frame)
        bus.run()
        t1, t2 = (entry.time for entry in bus.log)
        assert t2 - t1 >= bus.frame_time_us(frame)


class TestFaultInjection:
    def test_delivery_filter_drops_frames(self):
        bus, _ = make_bus()
        alice = Recorder("A", bus)
        bob = Recorder("B", bus)
        bus.delivery_filter = lambda sender, frame: frame.can_id != 0x666
        alice.output(CanFrame(0x666))
        alice.output(CanFrame(0x100))
        bus.run()
        assert [f.can_id for f in bob.heard] == [0x100]
        assert len(bus.log) == 1  # dropped frame never completed


class TestNodes:
    def test_function_node_handlers(self):
        bus, _ = make_bus()
        events = []
        node = FunctionNode(
            "F",
            bus,
            on_start=lambda n: events.append("start"),
            on_message=lambda n, f: events.append(("msg", f.can_id)),
        )
        other = Recorder("O", bus)
        bus.start()
        other.output(CanFrame(0x42))
        bus.run()
        assert events == ["start", ("msg", 0x42)]

    def test_scripted_node_schedule(self):
        bus, _ = make_bus()
        ScriptedNode("INJ", bus, [(100, CanFrame(0x1)), (200, CanFrame(0x2))])
        sink = Recorder("SINK", bus)
        bus.simulate(until=1_000_000)
        assert [f.can_id for f in sink.heard] == [0x1, 0x2]

    def test_node_timers(self):
        bus, scheduler = make_bus()
        fired = []

        node = FunctionNode("T", bus, on_timer=lambda n, t: fired.append(t.name))
        node.create_timer("heartbeat")
        node.set_timer("heartbeat", 3)
        bus.run()
        assert fired == ["heartbeat"]

    def test_cancel_timer_via_node(self):
        bus, _ = make_bus()
        fired = []
        node = FunctionNode("T", bus, on_timer=lambda n, t: fired.append(1))
        node.create_timer("x")
        node.set_timer("x", 3)
        node.cancel_timer("x")
        bus.run()
        assert fired == []


class TestTraceLog:
    def test_render_contains_columns(self):
        bus, _ = make_bus()
        alice = Recorder("A", bus)
        Recorder("B", bus)
        alice.output(CanFrame(0x101, [0xAB], name="reqSw"))
        bus.run()
        text = bus.log.render()
        assert "0x101" in text and "AB" in text and "reqSw" in text

    def test_names_fall_back_to_hex(self):
        bus, _ = make_bus()
        alice = Recorder("A", bus)
        Recorder("B", bus)
        alice.output(CanFrame(0x123))
        bus.run()
        assert bus.log.names() == ["0x123"]


class TestArbitrationProperty:
    def test_priority_order_property(self):
        """Whatever frames queue while the bus is busy, they complete in
        (identifier, FIFO) order -- CAN's defining arbitration rule."""
        import hypothesis.strategies as st
        from hypothesis import given, settings

        @settings(max_examples=50, deadline=None)
        @given(ids=st.lists(st.integers(0, 0x7FF), min_size=1, max_size=8))
        def run(ids):
            bus, _ = make_bus()
            sender = Recorder("S", bus)
            Recorder("R", bus)
            for can_id in ids:
                sender.output(CanFrame(can_id))
            bus.run()
            observed = [entry.frame.can_id for entry in bus.log]
            # the first frame grabbed the idle bus; the rest are the
            # remaining ids sorted (stable for duplicates)
            expected = [ids[0]] + sorted(ids[1:])
            assert observed == expected

        run()
