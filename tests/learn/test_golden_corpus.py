"""The golden learn corpus: pinned fingerprints and query budgets.

Each corpus program has a pinned canonical fingerprint (the learned
automaton up to isomorphism) and ceiling query budgets.  A behaviour
change in the learner, the SUL abstraction, the interpreter or the
extractor shows up here as a fingerprint mismatch; a query-efficiency
regression trips the budgets.
"""

import json
import os

import pytest

from repro.capl import Parser, parse
from repro.csp.lts import compile_lts
from repro.learn import CaplSimulatorSUL, ReferenceTeacher, derive_message_specs, learn
from repro.ota.capl_sources import ECU_SECURITY_ACCESS_SOURCE
from repro.translator import ModelExtractor

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

with open(os.path.join(CORPUS_DIR, "corpus.json"), "r", encoding="utf-8") as fh:
    MANIFEST = json.load(fh)

ENTRIES = MANIFEST["entries"]


def _source(entry):
    path = os.path.join(CORPUS_DIR, entry["file"])
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _teacher(entry, source):
    if entry["teacher"] != "reference":
        return None  # bounded conformance testing inside learn()
    model = ModelExtractor().extract(source, entry["node"]).load()
    reference = compile_lts(
        model.process(entry["node"]), model.env, max_states=100_000
    )
    return ReferenceTeacher(reference)


def _learn_entry(entry):
    source = _source(entry)
    sul = CaplSimulatorSUL(source, derive_message_specs(source), node=entry["node"])
    teacher = _teacher(entry, source)
    return learn(sul, teacher=teacher, depth=entry["depth"], max_rounds=64)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry["file"] for entry in ENTRIES]
)
def test_corpus_entry_learns_to_its_pinned_fingerprint(entry):
    result = _learn_entry(entry)
    assert result.state_count == entry["states"]
    assert result.transition_count == entry["transitions"]
    assert result.fingerprint() == entry["fingerprint"]


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry["file"] for entry in ENTRIES]
)
def test_corpus_learn_parses_its_program_once(entry, monkeypatch):
    source = _source(entry)
    specs = derive_message_specs(source)
    teacher = _teacher(entry, source)
    parsed = []
    parse_program = Parser.parse_program

    def counting_parse_program(parser):
        parsed.append(parser)
        return parse_program(parser)

    monkeypatch.setattr(Parser, "parse_program", counting_parse_program)
    sul = CaplSimulatorSUL(source, specs, node=entry["node"])
    result = learn(sul, teacher=teacher, depth=entry["depth"], max_rounds=64)
    monkeypatch.undo()
    assert result.fingerprint() == entry["fingerprint"]
    assert result.stats.sul_runs > 1
    assert len(parsed) == 1
    # every query's interpreter shared the program and left it as parsed
    assert sul.program == parse(source)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry["file"] for entry in ENTRIES]
)
def test_corpus_entry_stays_within_its_query_budget(entry):
    stats = _learn_entry(entry).stats
    assert stats.membership_queries <= entry["max_membership_queries"]
    assert stats.sul_runs <= entry["max_sul_runs"]
    assert stats.rounds <= entry["max_rounds"]


def test_corpus_covers_both_teacher_modes_and_enough_programs():
    assert len(ENTRIES) >= 5
    modes = {entry["teacher"] for entry in ENTRIES}
    assert modes == {"reference", "bounded"}
    files = {entry["file"] for entry in ENTRIES}
    assert files == {
        os.path.basename(name)
        for name in os.listdir(CORPUS_DIR)
        if name.endswith(".can")
    }


def test_security_access_source_is_the_ota_constant():
    # the corpus copy must track the OTA scenario source verbatim
    path = os.path.join(CORPUS_DIR, "security_access.can")
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == ECU_SECURITY_ACCESS_SOURCE


def test_identical_languages_share_a_fingerprint():
    # ping and silent_branch differ as programs (one mutates bus-invisible
    # state) but define the same trace language -- the canonical form is
    # blind to the difference, by design
    by_file = {entry["file"]: entry["fingerprint"] for entry in ENTRIES}
    assert by_file["ping.can"] == by_file["silent_branch.can"]
