"""The CAPL builtins the model-extraction corpora never call.

``timeNow``, ``elCount``, ``abs``, ``random``, ``mkExtId`` and
``isTimerActive`` run only when a simulated node calls them, so each is
pinned here on a node of its own.
"""

import pytest

from repro.canbus import CanBus, Scheduler
from repro.capl import CaplNode, CaplRuntimeError

SOURCE = """
variables {
  msTimer t;
  byte buf[4];
  int x;
  long seen = -1;
  int before = -1;
  int armed = -1;
  int expired = -1;
}
on start { before = isTimerActive(t); setTimer(t, 5); armed = isTimerActive(t); }
on timer t { seen = timeNow(); expired = isTimerActive(t); }
long now() { return timeNow(); }
int count() { return elCount(buf); }
int countScalar() { return elCount(x); }
int magnitude(int v) { return abs(v); }
int draw(int ceiling) { return random(ceiling); }
long extended(long raw) { return mkExtId(raw); }
int cancelled() { setTimer(t, 5); cancelTimer(t); return isTimerActive(t); }
"""


def make_node():
    bus = CanBus(Scheduler())
    return CaplNode("N1", bus, SOURCE, {}), bus


def test_time_now_counts_in_ten_microsecond_units():
    node, bus = make_node()
    assert node.call_function("now") == 0
    bus.simulate(until=100_000)
    # the 5 ms timer fired at 5,000 us; the run ended at 100,000 us
    assert node.globals["seen"] == 500
    assert node.call_function("now") == 10_000


def test_el_count_is_the_array_length():
    node, _ = make_node()
    assert node.call_function("count") == 4
    with pytest.raises(CaplRuntimeError, match="elCount\\(\\) expects an array"):
        node.call_function("countScalar")


@pytest.mark.parametrize("value, expected", [(-3, 3), (3, 3), (0, 0)])
def test_abs(value, expected):
    node, _ = make_node()
    assert node.call_function("magnitude", value) == expected


def test_random_is_a_seeded_sequence():
    # every node starts from the same seed, so a simulation replays
    first, _ = make_node()
    second, _ = make_node()
    draws = [first.call_function("draw", 10) for _ in range(5)]
    assert draws == [8, 9, 6, 5, 4]
    assert [second.call_function("draw", 10) for _ in range(5)] == draws


@pytest.mark.parametrize("ceiling", [0, -4])
def test_random_below_one_is_zero(ceiling):
    node, _ = make_node()
    assert node.call_function("draw", ceiling) == 0
    # the draw still advanced the generator
    assert node.call_function("draw", 10) == 9


def test_mk_ext_id_sets_bit_31():
    node, _ = make_node()
    assert node.call_function("extended", 0x100) == 0x80000100 == 2147483904
    assert node.call_function("extended", 0x80000100) == 0x80000100


def test_is_timer_active_follows_set_cancel_and_expiry():
    node, bus = make_node()
    bus.simulate(until=100_000)
    assert node.globals["before"] == 0
    assert node.globals["armed"] == 1
    # by the time its handler runs, the timer has expired
    assert node.globals["expired"] == 0
    assert node.call_function("cancelled") == 0
