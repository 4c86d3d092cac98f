"""The pass framework's plumbing: registry, resolution, provenance, BFS."""

import pytest

from repro.csp import SKIP, STOP, Prefix, compile_lts, event
from repro.csp.events import TAU_ID, AlphabetTable
from repro.csp.lts import LTS
from repro.passes import (
    DEFAULT_PASS_NAMES,
    PASSES,
    StateProvenance,
    apply_passes,
    bfs_renumber,
    passes_for_model,
    resolve_passes,
    terminated_states,
)

A, B = event("a"), event("b")


class TestRegistry:
    def test_builtin_passes_registered(self):
        assert {"dead", "tau_loop", "diamond", "sbisim", "normal"} <= set(PASSES)

    def test_default_names_resolve_and_exclude_normal(self):
        assert "normal" not in DEFAULT_PASS_NAMES
        assert all(name in PASSES for name in DEFAULT_PASS_NAMES)

    def test_every_pass_declares_a_model(self):
        for name, pass_ in PASSES.items():
            assert pass_.name == name
            assert pass_.preserves in ("T", "F", "FD")


class TestResolvePasses:
    def test_none_spellings_resolve_empty(self):
        assert resolve_passes(None) == ()
        assert resolve_passes("") == ()
        assert resolve_passes("none") == ()

    def test_default_resolves_the_default_list(self):
        names = tuple(p.name for p in resolve_passes("default"))
        assert names == DEFAULT_PASS_NAMES

    def test_comma_list_preserves_order(self):
        names = tuple(p.name for p in resolve_passes("sbisim,dead"))
        assert names == ("sbisim", "dead")

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="sbisim"):
            resolve_passes("no-such-pass")


class TestModelGating:
    def test_normal_is_trace_only(self):
        passes = resolve_passes("normal,sbisim")
        assert [p.name for p in passes_for_model(passes, "T")] == [
            "normal",
            "sbisim",
        ]
        assert [p.name for p in passes_for_model(passes, "F")] == ["sbisim"]
        assert [p.name for p in passes_for_model(passes, "FD")] == ["sbisim"]

    def test_default_passes_survive_every_model(self):
        passes = resolve_passes("default")
        for model in ("T", "F", "FD"):
            assert passes_for_model(passes, model) == passes


class TestStateProvenance:
    def test_identity(self):
        identity = StateProvenance.identity(3)
        assert [identity.original_of(s) for s in range(3)] == [0, 1, 2]

    def test_then_composes(self):
        first = StateProvenance((2, 0, 1))
        second = StateProvenance((1, 2))
        composed = first.then(second)
        # second's state 0 is first's state 1, which is original state 0
        assert composed.original_of(0) == 0
        assert composed.original_of(1) == 1


def _tau_chain_lts():
    """0 --tau--> 1 --a--> 2, plus an unreachable state 3."""
    table = AlphabetTable()
    a_id = table.intern(A)
    lts = LTS.from_edges(table, 0, [[(TAU_ID, 1)], [(a_id, 2)], [], [(a_id, 0)]])
    return lts, a_id


class TestBfsRenumber:
    def test_unreachable_states_dropped(self):
        lts, _ = _tau_chain_lts()
        renumbered, new_to_old = bfs_renumber(lts)
        assert renumbered.state_count == 3
        assert new_to_old == (0, 1, 2)

    def test_deterministic_across_calls(self):
        lts, _ = _tau_chain_lts()
        first, _ = bfs_renumber(lts)
        second, _ = bfs_renumber(lts)
        assert first.initial == second.initial
        assert [first.successors_ids(s) for s in range(first.state_count)] == [
            second.successors_ids(s) for s in range(second.state_count)
        ]

    def test_rep_of_quotients_through_the_representative(self):
        lts, a_id = _tau_chain_lts()
        # merge 0 into its tau successor 1 (the diamond direction): the
        # quotient state keeps the representative's edges, not the source's
        quotiented, new_to_old = bfs_renumber(lts, [1, 1, 2, 3])
        assert quotiented.state_count == 2
        assert new_to_old == (1, 2)
        assert quotiented.successors_ids(0) == [(a_id, 1)]


class TestTerminatedStates:
    def test_tick_target_found(self):
        lts = compile_lts(Prefix(A, SKIP))
        terminated = terminated_states(lts)
        assert len(terminated) == 1

    def test_stop_has_none(self):
        lts = compile_lts(Prefix(A, STOP))
        assert terminated_states(lts) == frozenset()


class TestApplyPasses:
    def test_stats_follow_pass_order(self):
        lts = compile_lts(Prefix(A, Prefix(B, STOP)))
        passes = resolve_passes("default")
        compressed, provenance, stats = apply_passes(lts, passes)
        assert tuple(stat.name for stat in stats) == DEFAULT_PASS_NAMES
        assert all(stat.wall_ms >= 0 for stat in stats)
        assert stats[0].states_before == lts.state_count
        assert stats[-1].states_after == compressed.state_count
        # provenance covers every output state with a valid input state
        for state in range(compressed.state_count):
            assert 0 <= provenance.original_of(state) < lts.state_count

    def test_no_passes_is_identity(self):
        lts = compile_lts(Prefix(A, STOP))
        compressed, provenance, stats = apply_passes(lts, ())
        assert compressed is lts
        assert stats == ()
