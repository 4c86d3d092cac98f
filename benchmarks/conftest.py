"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md
section 4) and, besides timing the underlying operation with
pytest-benchmark, writes the regenerated artefact out so the reproduction
can be inspected and diffed against the paper.

Machine-readable ``BENCH_*.json`` files live only at the repository root
-- that is where CI gates and cross-PR trend tooling read them.  Text
tables live in ``benchmarks/out/``.
"""

import json
import pathlib

import pytest

ROOT_DIR = pathlib.Path(__file__).parent.parent
OUT_DIR = pathlib.Path(__file__).parent / "out"


def bench_json_path(name):
    """The canonical (repo root) path of one BENCH_*.json file."""
    return ROOT_DIR / "{}.json".format(name)


def write_bench_json(name, payload):
    """Write one BENCH_*.json at the repo root."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    bench_json_path(name).write_text(text, encoding="utf-8")


def merge_bench_json(name, section, payload):
    """Fold one section into a BENCH_*.json shared by several benches."""
    canonical = bench_json_path(name)
    data = {}
    if canonical.exists():
        data = json.loads(canonical.read_text(encoding="utf-8"))
    data[section] = payload
    write_bench_json(name, data)


def merge_bench_profile(section, payload):
    """Fold one bench's per-stage profile data into BENCH_profile.json.

    Shared by the profile bench and the scalability/compression benches,
    which re-emit their traced runs here so the perf trajectory stays
    attributable per pipeline stage across PRs.
    """
    merge_bench_json("BENCH_profile", section, payload)


@pytest.fixture
def artifact():
    """Write a regenerated table/figure to benchmarks/out/<name>.txt."""

    def write(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "{}.txt".format(name)
        path.write_text(text, encoding="utf-8")
        print("\n--- {} ---".format(name))
        print(text)

    return write


@pytest.fixture
def json_artifact():
    """Write machine-readable benchmark data (at the repo root)."""

    def write(name: str, payload) -> None:
        write_bench_json(name, payload)
        print("\n--- {}.json written ---".format(name))

    return write
