"""Regenerate the golden conformance corpus.

Run from the repository root::

    PYTHONPATH=src python tests/conformance/generate.py

Produces ``cases/*.json`` (one golden case each: a batch
:class:`~repro.exec.spec.CheckSpec` document plus the canonical result
the sequential reference executor produced when the case was minted) and
``manifest.json`` (all case specs as one ``cspbatch`` manifest, in case
order).  The corpus is checked in; ``test_conformance.py`` replays it on
every run and CI additionally replays it through ``cspbatch --jobs 4``.

Cases come from the seeded :mod:`repro.quickcheck` generators -- the same
term distribution the fuzzer explores -- filtered to keep the verdict mix
informative (passing and failing refinements in both T and F, property
checks that hold and that produce deadlock counterexamples) plus the five
Table III requirement checks.  Regenerating with the same seed is a
no-op; bump SEED only when the corpus schema itself changes.
"""

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.batch import CheckSpec, dump_manifest  # noqa: E402
from repro.csp import event  # noqa: E402
from repro.exec.runtime import execute_spec  # noqa: E402
from repro.quickcheck import process_terms, sampled_from, tuples  # noqa: E402

SEED = 20190624  # the paper's DSN-W publication date
CASE_COUNT = 30
FORMAT = 1

HERE = os.path.dirname(os.path.abspath(__file__))
CASES_DIR = os.path.join(HERE, "cases")
MANIFEST = os.path.join(HERE, "manifest.json")

EVENTS = (event("a"), event("b"))
PROCESSES = process_terms(EVENTS)
REFINEMENT_INPUT = tuples(PROCESSES, PROCESSES, sampled_from(["T", "F"]))
PROPERTY_INPUT = tuples(
    PROCESSES, sampled_from(["deadlock free", "divergence free", "deterministic"])
)


def generated_specs(rng):
    """~25 generated checks with a balanced verdict mix, then Table III."""
    specs = []
    verdict_quota = {"PASS": 9, "FAIL": 9}  # refinement cases per verdict
    while sum(verdict_quota.values()) > 0:
        spec_term, impl_term, model = REFINEMENT_INPUT(rng)
        candidate = CheckSpec.refinement(
            spec_term,
            impl_term,
            model,
            check_id="gen-{:02d}".format(len(specs)),
        )
        verdict = execute_spec(candidate).verdict
        if verdict_quota.get(verdict, 0) > 0:
            verdict_quota[verdict] -= 1
            specs.append(candidate)
    property_quota = {"PASS": 4, "FAIL": 3}
    while sum(property_quota.values()) > 0:
        term, prop = PROPERTY_INPUT(rng)
        candidate = CheckSpec.property_check(
            term, prop, check_id="gen-{:02d}".format(len(specs))
        )
        verdict = execute_spec(candidate).verdict
        if property_quota.get(verdict, 0) > 0:
            property_quota[verdict] -= 1
            specs.append(candidate)
    for req_id in ("R01", "R02", "R03", "R04", "R05"):
        specs.append(CheckSpec.requirement(req_id))
    assert len(specs) == CASE_COUNT, len(specs)
    return specs


def main():
    rng = random.Random(SEED)
    specs = generated_specs(rng)
    os.makedirs(CASES_DIR, exist_ok=True)
    for name in os.listdir(CASES_DIR):
        if name.endswith(".json"):
            os.remove(os.path.join(CASES_DIR, name))
    for index, spec in enumerate(specs):
        expected = execute_spec(spec, index).canonical()
        case = {"format": FORMAT, "spec": spec.to_doc(), "expected": expected}
        path = os.path.join(
            CASES_DIR, "case-{:02d}-{}.json".format(index, spec.check_id)
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case, handle, indent=2, sort_keys=True)
            handle.write("\n")
    dump_manifest(specs, MANIFEST)
    print("wrote {} cases to {}".format(len(specs), CASES_DIR))
    print("wrote manifest to {}".format(MANIFEST))


if __name__ == "__main__":
    main()
