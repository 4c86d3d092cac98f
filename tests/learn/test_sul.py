"""Unit tests for the systems under learning (membership oracles)."""

import pytest

from repro.capl.interpreter import MessageSpec
from repro.csp import AlphabetTable, event
from repro.csp.kernel import CompactLTS
from repro.learn import CaplSimulatorSUL, LearnError, LtsSUL, derive_message_specs

PING = """\
variables {
  message rspX msgX;
}
on message reqA {
  output(msgX);
}
"""

BURST = """\
variables {
  message rspX msgX;
  message rspY msgY;
}
on message reqA {
  output(msgX);
  output(msgY);
  output(msgX);
}
"""

STARTUP = """\
variables {
  message rspX msgX;
}
on start {
  output(msgX);
}
on message reqA {
}
"""


def test_derive_message_specs_assigns_sorted_stable_ids():
    specs = derive_message_specs(BURST)
    assert sorted(specs) == ["reqA", "rspX", "rspY"]
    # sorted-name order: reqA < rspX < rspY
    assert specs["reqA"].can_id == 0x200
    assert specs["rspX"].can_id == 0x201
    assert specs["rspY"].can_id == 0x202
    assert derive_message_specs(BURST) == specs


def test_alphabet_is_send_inputs_then_rec_outputs():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    assert [str(e) for e in sul.alphabet] == ["send.reqA", "rec.rspX"]


def test_membership_of_simple_request_response():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    send, rec = event("send", "reqA"), event("rec", "rspX")
    assert sul.membership(())
    assert sul.membership((send,))
    assert sul.membership((send, rec))
    assert sul.membership((send, rec, send))
    # no response is pending before a stimulus
    assert not sul.membership((rec,))
    # one activation produces exactly one rspX
    assert not sul.membership((send, rec, rec))


def test_pending_responses_form_a_multiset_and_block_new_stimuli():
    sul = CaplSimulatorSUL(BURST, derive_message_specs(BURST))
    send = event("send", "reqA")
    x, y = event("rec", "rspX"), event("rec", "rspY")
    # any interleaving of {rspX, rspX, rspY} drains the activation
    assert sul.membership((send, x, x, y))
    assert sul.membership((send, y, x, x))
    assert sul.membership((send, x, y, x, send))
    # a third rspX is not pending
    assert not sul.membership((send, x, x, x))
    # the next stimulus is refused until the multiset drains
    assert not sul.membership((send, x, send))


def test_on_start_outputs_are_pending_initially():
    sul = CaplSimulatorSUL(STARTUP, derive_message_specs(STARTUP))
    send, rec = event("send", "reqA"), event("rec", "rspX")
    assert sul.membership((rec,))
    assert not sul.membership((send,))  # startup burst must drain first
    assert sul.membership((rec, send))


def test_unhandled_or_foreign_symbols_are_rejected():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    assert not sul.membership((event("send", "reqZ"),))
    assert not sul.membership((event("timer", "t"),))


def test_program_without_handlers_is_not_learnable():
    with pytest.raises(LearnError, match="handles no messages"):
        CaplSimulatorSUL("variables { }\non start { }\n", {})


def test_handled_message_without_spec_is_reported():
    with pytest.raises(LearnError, match="no message spec"):
        CaplSimulatorSUL(PING, {"rspX": MessageSpec(0x300, 8)})


def test_lts_sul_membership_is_walk():
    a = event("send", "reqA")
    table = AlphabetTable()
    lts = CompactLTS.from_edges(table, 0, [[(table.intern(a), 1)], []])
    sul = LtsSUL(lts, (a,))
    assert sul.membership(())
    assert sul.membership((a,))
    assert not sul.membership((a, a))
    assert sul.runs == 3
