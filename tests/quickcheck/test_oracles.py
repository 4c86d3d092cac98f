"""The oracle registry: completeness, green smoke runs, and Discard semantics."""

import random

import pytest

from repro.csp.process import STOP, Prefix
from repro.csp.events import event
from repro.quickcheck import (
    CaplProgram,
    Discard,
    ORACLES,
    OracleViolation,
    get_oracles,
)
from repro.quickcheck.oracles import check_extractor, check_laws

EXPECTED_ORACLES = {
    "laws",
    "semantics",
    "normalise",
    "refinement",
    "lazy-eager",
    "kernel",
    "spine",
    "cache",
    "compression",
    "batch",
    "result_cache",
    "roundtrip",
    "extractor",
    "learned_vs_extracted",
}


def test_registry_contains_exactly_the_documented_oracles():
    assert set(ORACLES) == EXPECTED_ORACLES


def test_every_oracle_is_fully_described():
    for oracle in ORACLES.values():
        assert oracle.description
        assert oracle.guards.startswith("repro.")
        assert callable(oracle.check)


def test_get_oracles_resolves_all_and_lists():
    assert [o.name for o in get_oracles("all")] == sorted(EXPECTED_ORACLES)
    assert [o.name for o in get_oracles("cache,laws")] == ["cache", "laws"]
    assert [o.name for o in get_oracles(" semantics ")] == ["semantics"]
    with pytest.raises(KeyError):
        get_oracles("no-such-oracle")


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLES))
def test_oracle_smoke_runs_green_on_seeded_cases(name, repro_seed):
    """Every oracle passes a handful of its own generated inputs.

    This is the cheap inline version of the CI ``cspfuzz`` smoke job: the
    toolchain on main must not disagree with itself.
    """
    oracle = ORACLES[name]
    rng = random.Random(repro_seed)
    for _ in range(10):
        message = oracle.run_one(rng)
        assert message is None, message


def test_violation_reports_disagreements_without_raising():
    oracle = ORACLES["laws"]
    # a malformed input is Discarded, which counts as a pass
    assert oracle.violation(("choice-commutative", (STOP,))) is None
    # a well-formed law instance passes
    a = event("a")
    assert oracle.violation(("choice-commutative", (STOP, Prefix(a, STOP)))) is None


def test_fails_on_swallows_toolchain_crashes():
    oracle = ORACLES["semantics"]
    # a non-process input would crash compile_lts; the shrinking predicate
    # must report "not this failure" rather than propagate
    assert oracle.fails_on("not a process") is False


def test_check_laws_surfaces_a_broken_law(monkeypatch):
    # the violation path itself: make one law lie and the checker must say so
    import repro.quickcheck.oracles as oracles_module

    monkeypatch.setattr(
        oracles_module, "check_law", lambda name, *ops, **kw: False
    )
    a = event("a")
    with pytest.raises(OracleViolation):
        check_laws(("choice-idempotent", (Prefix(a, STOP),)))


def test_extractor_oracle_discards_unhandled_stimuli():
    program = CaplProgram([("reqA", (("output", "rspX"),))])
    with pytest.raises(Discard):
        check_extractor((program, ["reqB"]))  # reqB handler was shrunk away
    with pytest.raises(Discard):
        check_extractor(("not a program", ["reqA"]))


def test_extractor_oracle_accepts_a_real_behaviour():
    program = CaplProgram([("reqA", (("output", "rspX"),))])
    assert ORACLES["extractor"].violation((program, ["reqA"])) is None
