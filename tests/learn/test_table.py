"""Unit tests for the membership cache and the observation table."""

import pytest

from repro.csp import AlphabetTable, event
from repro.csp.kernel import CompactLTS
from repro.learn import LtsSUL, MembershipCache, ObservationTable

A, B = event("send", "reqA"), event("send", "reqB")


def _chain_lts(length):
    """A single path s0 -A-> s1 -A-> ... of the given length."""
    table = AlphabetTable()
    eid = table.intern(A)
    edges = [[(eid, state + 1)] for state in range(length)] + [[]]
    return CompactLTS.from_edges(table, 0, edges)


def test_cache_counts_queries_separately_from_runs():
    sul = LtsSUL(_chain_lts(2), (A,))
    cache = MembershipCache(sul.membership)
    assert cache.ask((A,))
    assert cache.ask((A,))  # a hit: no second run
    assert cache.membership_queries == 2
    assert cache.sul_runs == 1
    assert sul.runs == 1


def test_empty_word_is_free():
    sul = LtsSUL(_chain_lts(1), (A,))
    cache = MembershipCache(sul.membership)
    assert cache.ask(())
    assert cache.sul_runs == 0


def test_rejected_prefix_settles_extensions_without_a_run():
    sul = LtsSUL(_chain_lts(2), (A,))
    cache = MembershipCache(sul.membership)
    assert not cache.ask((A, A, A))
    runs = cache.sul_runs
    # prefix-closed: every extension of a rejected word is rejected free
    assert not cache.ask((A, A, A, A))
    assert cache.sul_runs == runs


def test_accepted_word_backfills_its_prefixes():
    sul = LtsSUL(_chain_lts(3), (A,))
    cache = MembershipCache(sul.membership)
    assert cache.ask((A, A, A))
    runs = cache.sul_runs
    assert cache.ask((A,))
    assert cache.ask((A, A))
    assert cache.sul_runs == runs


def test_initial_hypothesis_generalises_to_a_loop():
    # with only the eps suffix every accepting row looks alike: the first
    # hypothesis of a bounded chain is the one-state loop (counterexample
    # processing, not closing, is what splits states)
    table = ObservationTable((A,), MembershipCache(LtsSUL(_chain_lts(2), (A,)).membership))
    table.close()
    hypothesis = table.hypothesis()
    assert hypothesis.state_count == 1
    assert hypothesis.accepts((A, A, A, A))


def test_distinguishing_suffixes_split_states_into_the_minimal_acceptor():
    lts = _chain_lts(2)
    table = ObservationTable((A,), MembershipCache(LtsSUL(lts, (A,)).membership))
    table.add_suffix((A,))
    table.add_suffix((A, A))
    table.close()
    hypothesis = table.hypothesis()
    # 3 live states; the dead sink stays implicit
    assert hypothesis.state_count == 3
    assert hypothesis.accepts((A, A))
    assert not hypothesis.accepts((A, A, A))


def test_hypothesis_run_reports_the_death_index():
    lts = _chain_lts(1)
    table = ObservationTable((A, B), MembershipCache(LtsSUL(lts, (A, B)).membership))
    table.close()
    hypothesis = table.hypothesis()
    path, died = hypothesis.run((A, B, A))
    assert died == 1  # B from state 1 falls off the automaton
    assert len(path) == died + 1


def test_hypothesis_requires_a_closed_table():
    table = ObservationTable((A,), MembershipCache(LtsSUL(_chain_lts(1), (A,)).membership))
    # with the suffix A the frontier row of (A,) is fresh until promoted
    table.add_suffix((A,))
    with pytest.raises(AssertionError, match="not closed"):
        table.hypothesis()
    table.close()
    assert table.hypothesis().state_count == 2
