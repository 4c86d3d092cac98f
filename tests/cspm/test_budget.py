"""The declared-event budget: oversized declarations fail before anything is built.

Each hostile script runs through ``cspcheck`` in a child process under an
address-space limit and a timeout, so a regression fails the test instead
of exhausting the machine.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cspm import CspmEvaluationError, load
from repro.cspm import evaluator
from repro.cspm.evaluator import DECLARATION_BUDGET

#: the child's address-space limit: ample for loading the toolchain, far
#: below what a hundred million events would take
ADDRESS_SPACE = 1 << 30

TIMEOUT_S = 60

_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from repro.fdr.cli import main
sys.exit(main([sys.argv[1]]))
"""

HOSTILE = {
    "wide-channel": "channel c : {0..100000000}\nP = c?x -> P\nassert P :[deadlock free]\n",
    "wide-replication": (
        "channel c\nP = |~| x : {0..100000000} @ c -> P\nassert P :[deadlock free]\n"
    ),
    "channels-in-sum": (
        "channel c : {{0..{half}}}\nchannel d : {{0..{half}}}\n"
        "P = c?x -> P\nassert P :[deadlock free]\n"
    ).format(half=DECLARATION_BUDGET // 2),
    "ranges-in-union": (
        "channel c\nP = ||| i : union({0..1000000}, {1000001..2000000}) @ STOP\n"
        "assert P :[deadlock free]\n"
    ),
}

EXPECTED = {
    "wide-channel": "set {{0..100000000}} has 100000001 values, more than the "
    "budget of {}".format(DECLARATION_BUDGET),
    "wide-replication": "set {{0..100000000}} has 100000001 values, more than the "
    "budget of {}".format(DECLARATION_BUDGET),
    "channels-in-sum": "channel d declares {} events ({} in all), more than the "
    "budget of {}".format(
        DECLARATION_BUDGET // 2 + 1, DECLARATION_BUDGET + 2, DECLARATION_BUDGET
    ),
    "ranges-in-union": "set union({{0..1000000}}, {{1000001..2000000}}) has "
    "2000001 values, more than the budget of {}".format(DECLARATION_BUDGET),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_cspcheck_rejects_an_oversized_declaration(name, tmp_path):
    path = tmp_path / (name + ".csp")
    path.write_text(HOSTILE[name])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD.format(limit=ADDRESS_SPACE), str(path)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=env,
    )
    assert child.returncode == 2, child.stderr
    assert child.stdout == ""
    assert child.stderr == "cspcheck: {}: {}\n".format(path, EXPECTED[name])


def test_the_budget_admits_a_wide_domain():
    assert 20_001 < DECLARATION_BUDGET
    assert len(load("channel c : {0..20000}").events()) == 20_001


def test_a_declaration_at_the_budget_loads(monkeypatch):
    monkeypatch.setattr(evaluator, "DECLARATION_BUDGET", 12)
    model = load("channel c : {1..3}.{0..1}\nchannel d, e : {0..2}")
    assert len(model.events()) == 12
    with pytest.raises(CspmEvaluationError, match=r"\{0\.\.12\} has 13 values"):
        load("channel c : {0..12}")
    load("P = ||| i : union({0..5}, {6..11}) @ STOP")
    with pytest.raises(
        CspmEvaluationError,
        match=r"^set union\(\{0\.\.5\}, \{6\.\.12\}\) has 13 values",
    ):
        load("P = ||| i : union({0..5}, {6..12}) @ STOP")
    with pytest.raises(
        CspmEvaluationError,
        match=r"^channel e declares 1 events \(13 in all\), more than the budget of 12$",
    ):
        load("channel c : {1..3}.{0..1}\nchannel d : {0..5}\nchannel e")
