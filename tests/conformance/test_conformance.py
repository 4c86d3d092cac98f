"""Replay the golden conformance corpus, sequentially and batched.

Each checked-in case pins a batch spec to the canonical result the
sequential reference executor produced when the corpus was minted
(``generate.py``).  The suite replays every case through

* :func:`~repro.exec.runtime.execute_spec` (the sequential reference),
* the inline batch path, and
* one pooled run over the whole corpus with real worker processes,

asserting byte-identical canonical documents each time -- the executor,
the wire format, the disk cache and the engine must all reproduce the
golden verdicts, counterexample traces, and search statistics exactly.
"""

import json
import os

import pytest

from repro.batch import CheckSpec, load_manifest, run_batch
from repro.exec.runtime import execute_spec

HERE = os.path.dirname(os.path.abspath(__file__))
CASES_DIR = os.path.join(HERE, "cases")
MANIFEST = os.path.join(HERE, "manifest.json")

CASE_FILES = sorted(
    name for name in os.listdir(CASES_DIR) if name.endswith(".json")
)


def load_case(name):
    with open(os.path.join(CASES_DIR, name), encoding="utf-8") as handle:
        case = json.load(handle)
    assert case["format"] == 1
    return CheckSpec.from_doc(case["spec"]), case["expected"]


def canonical_bytes(result):
    return json.dumps(result.canonical(), sort_keys=True)


def expected_bytes(expected):
    return json.dumps(expected, sort_keys=True)


def test_corpus_is_present_and_sized():
    assert len(CASE_FILES) == 30
    kinds = {load_case(name)[0].kind for name in CASE_FILES}
    assert kinds == {"refinement", "property", "requirement"}


def test_manifest_matches_the_case_files():
    specs = load_manifest(MANIFEST)
    assert [spec.to_doc() for spec in specs] == [
        load_case(name)[0].to_doc() for name in CASE_FILES
    ]


@pytest.mark.parametrize("name", CASE_FILES)
def test_sequential_reference_reproduces_golden(name):
    spec, expected = load_case(name)
    result = execute_spec(spec)
    assert canonical_bytes(result) == expected_bytes(expected)


def test_inline_batch_reproduces_golden():
    specs, expectations = zip(*(load_case(name) for name in CASE_FILES))
    report = run_batch(specs, inline=True)
    for result, expected in zip(report.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_pooled_batch_reproduces_golden():
    specs, expectations = zip(*(load_case(name) for name in CASE_FILES))
    report = run_batch(specs, jobs=2, timeout=120)
    for result, expected in zip(report.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_warm_disk_cache_reproduces_golden(tmp_path):
    specs, expectations = zip(*(load_case(name) for name in CASE_FILES))
    cache_dir = str(tmp_path / "cache")
    run_batch(specs, inline=True, cache_dir=cache_dir)  # populate
    warm = run_batch(specs, inline=True, cache_dir=cache_dir)
    for result, expected in zip(warm.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)


def test_corrupted_cache_entry_does_not_change_results(tmp_path):
    specs, expectations = zip(*(load_case(name) for name in CASE_FILES))
    cache_dir = str(tmp_path / "cache")
    run_batch(specs, inline=True, cache_dir=cache_dir)
    entries = sorted(
        name for name in os.listdir(cache_dir) if name.endswith(".ltsb")
    )
    assert entries, "populating the corpus should write cache entries"
    # vandalise every other entry: truncate one, fill the next with garbage
    for index, name in enumerate(entries[::2]):
        path = os.path.join(cache_dir, name)
        with open(path, "r+b") as handle:
            if index % 2:
                handle.truncate(10)
            else:
                handle.seek(0)
                handle.write(b"garbage")
                handle.truncate()
    report = run_batch(specs, inline=True, cache_dir=cache_dir)
    for result, expected in zip(report.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)
