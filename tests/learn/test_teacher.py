"""Unit tests for the equivalence teachers and divergence reporting."""

import pytest

from repro.csp import AlphabetTable, event
from repro.csp.kernel import CompactLTS
from repro.learn import (
    BoundedTeacher,
    DivergenceError,
    LearnError,
    LtsSUL,
    MembershipCache,
    ObservationTable,
    ReferenceTeacher,
    learn,
)

A, B = event("send", "reqA"), event("send", "reqB")


def _chain(length, symbol=A):
    table = AlphabetTable()
    eid = table.intern(symbol)
    edges = [[(eid, state + 1)] for state in range(length)] + [[]]
    return CompactLTS.from_edges(table, 0, edges)


def _first_hypothesis(lts, alphabet):
    """The initial (suffix set = {eps}) hypothesis for a white-box system."""
    oracle = MembershipCache(LtsSUL(lts, alphabet).membership)
    table = ObservationTable(alphabet, oracle)
    table.close()
    return table.hypothesis(), oracle


def test_reference_teacher_accepts_an_equivalent_hypothesis():
    reference = _chain(2)
    result = learn(
        LtsSUL(reference, (A,)), teacher=ReferenceTeacher(reference)
    )
    assert ReferenceTeacher(_chain(2)).counterexample(result.hypothesis) is None


def test_reference_teacher_reports_excess_behaviour_as_hypothesis_only():
    # with only the eps suffix, a 1-chain's first hypothesis is an A-loop
    hypothesis, _ = _first_hypothesis(_chain(1), (A,))
    assert hypothesis.accepts((A, A))
    found = ReferenceTeacher(_chain(1)).counterexample(hypothesis)
    assert found is not None
    assert not found.reference_admits
    assert found.word == (A, A)  # the shortest hypothesis-only trace


def test_reference_teacher_reports_missing_behaviour_as_reference_admits():
    # a 0-chain's hypothesis is the single state with no transitions
    hypothesis, _ = _first_hypothesis(_chain(0), (A,))
    found = ReferenceTeacher(_chain(2)).counterexample(hypothesis)
    assert found is not None
    assert found.reference_admits
    assert found.word == (A,)  # the shortest reference-only trace


def test_bounded_teacher_finds_the_shortest_disagreement():
    hypothesis, _ = _first_hypothesis(_chain(0), (A,))
    oracle = MembershipCache(LtsSUL(_chain(3), (A,)).membership)
    found = BoundedTeacher(oracle, (A,), depth=5).counterexample(hypothesis)
    assert found is not None
    assert found.word == (A,)
    assert found.reference_admits  # the system accepts what the guess lacks


def test_bounded_teacher_accepts_an_equivalent_hypothesis():
    reference = _chain(2)
    result = learn(LtsSUL(reference, (A,)), depth=6)
    oracle = MembershipCache(LtsSUL(_chain(2), (A,)).membership)
    teacher = BoundedTeacher(oracle, (A,), depth=6)
    assert teacher.counterexample(result.hypothesis) is None


def test_bounded_teacher_budget_exhaustion_raises():
    hypothesis, oracle = _first_hypothesis(_chain(6), (A,))
    teacher = BoundedTeacher(oracle, (A,), depth=6, max_tests=2)
    with pytest.raises(LearnError, match="budget"):
        teacher.counterexample(hypothesis)


def test_bounded_teacher_rejects_degenerate_depth():
    oracle = MembershipCache(LtsSUL(_chain(1), (A,)).membership)
    with pytest.raises(ValueError):
        BoundedTeacher(oracle, (A,), depth=0)


def test_divergence_error_message_names_the_direction():
    exhibit = DivergenceError((A,), reference_admits=False)
    assert "reference forbids" in str(exhibit)
    missing = DivergenceError((A, B), reference_admits=True)
    assert "cannot produce" in str(missing)
    assert missing.word == (A, B)
