"""Unit tests for the L* loop, the learned-result surface and divergence."""

import pytest

import repro.translator.extractor as extractor_module
from repro.csp import AlphabetTable, event
from repro.csp.kernel import CompactLTS
from repro.csp.lts import compile_lts
from repro.learn import (
    CaplSimulatorSUL,
    DivergenceError,
    LearnError,
    LtsSUL,
    ReferenceTeacher,
    derive_message_specs,
    learn,
)
from repro.obs.trace import Tracer
from repro.translator import ModelExtractor

A = event("send", "reqA")

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
}
"""


def _chain(length):
    table = AlphabetTable()
    eid = table.intern(A)
    edges = [[(eid, state + 1)] for state in range(length)] + [[]]
    return CompactLTS.from_edges(table, 0, edges)


def _reference_of(source, node="ECU"):
    model = ModelExtractor().extract(source, node).load()
    return compile_lts(model.process(node), model.env, max_states=100_000)


def test_learning_a_capl_program_end_to_end():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    result = learn(sul, teacher=ReferenceTeacher(_reference_of(PING)))
    assert result.state_count == 2
    assert result.transition_count == 2
    assert [str(e) for e in result.alphabet] == ["rec.rspX", "send.reqA"]
    assert result.fingerprint().startswith("sha256:")
    stats = result.stats
    assert stats.rounds >= 1
    assert stats.sul_runs <= stats.membership_queries
    assert stats.states == 2


def test_learned_canonical_lines_are_a_complete_description():
    result = learn(LtsSUL(_chain(2), (A,)), depth=4)
    lines = result.canonical_lines()
    assert lines[0] == "states 3"
    assert lines[1:] == ["0 --send.reqA--> 1", "1 --send.reqA--> 2"]


def test_to_process_maps_states_to_equations():
    result = learn(LtsSUL(_chain(1), (A,)), depth=4)
    entry, bindings = result.to_process("M")
    assert entry.name == "M_0"
    assert sorted(bindings) == ["M_0", "M_1"]
    # the terminal state is STOP (external choice over no branches)
    assert repr(bindings["M_1"]) in ("STOP", "Stop()")


def test_divergent_reference_is_detected_with_a_witness(monkeypatch):
    # un-widen the extraction: multi-output activations become order-rigid,
    # so the simulator's arbitration order is a behaviour the reference
    # forbids -- the learner must say so rather than "converge"
    monkeypatch.setattr(extractor_module, "relax_bus_order", lambda b: b)
    sul = CaplSimulatorSUL(BURST, derive_message_specs(BURST))
    with pytest.raises(DivergenceError) as caught:
        learn(sul, teacher=ReferenceTeacher(_reference_of(BURST)))
    assert not caught.value.reference_admits
    assert len(caught.value.word) >= 2


def test_non_convergence_within_max_rounds_raises():
    with pytest.raises(LearnError, match="no convergence"):
        learn(LtsSUL(_chain(5), (A,)), depth=8, max_rounds=2)


def test_observability_counters_record_the_run():
    tracer = Tracer()
    learn(LtsSUL(_chain(2), (A,)), depth=4, obs=tracer)
    counters = tracer.metrics.snapshot()
    assert counters["learn.membership_queries"] > 0
    assert counters["learn.sul_runs"] > 0
    assert counters["learn.rounds"] >= 1
    assert counters["learn.equivalence_queries"] >= counters["learn.rounds"] - 1


def test_seed_changes_query_order_not_the_automaton():
    baseline = learn(LtsSUL(_chain(3), (A,)), depth=6)
    for seed in (0, 1, 7):
        shuffled = learn(LtsSUL(_chain(3), (A,)), depth=6, seed=seed)
        assert shuffled.fingerprint() == baseline.fingerprint()
        assert shuffled.canonical_lines() == baseline.canonical_lines()
