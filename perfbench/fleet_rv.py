"""fleet-rv: ``csprv`` inline over a seeded fleet, cold and then memoised.

The deployment workload.  Set-up generates a ``repro.rv.fleetgen`` fleet
(one tracelog JSONL per vehicle plus its rv manifest).  A unit runs
``csprv``'s inline path twice: ``specs_from_manifest`` (log ingest and
event mapping) and ``run_batch(jobs=0)`` into an empty ResultCache, then
the same fleet again against the cache the first pass filled.  A vehicle
must fail if and only if fleetgen injected a fault into it, and the
memoised pass must repeat the cold verdicts byte for byte.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

from repro.batch import FAIL, PASS, run_batch
from repro.rv.cli import load_rv_manifest, specs_from_manifest
from repro.rv.fleetgen import RV_MANIFEST_FORMAT, generate_fleet
from repro.rv.specs import OTA_MAPPING_DOC

from perfbench.common import Unit, cpu_seconds, fresh_dir

#: 1500 vehicles keep a cold pass plus a memoised pass near 2 CPU seconds,
#: so one run holds the many units its median needs
VEHICLES = {"full": 1_500, "tiny": 40}
FAULT_RATE = 0.25


def write_fleet(directory: str, count: int, seed: int):
    """Write a fleet and its rv manifest; returns (manifest path, faulty flags).

    ``fleetgen.write_fleet`` writes the same files but does not say which
    vehicles carry a fault, and that is the expected result here.
    """
    os.makedirs(directory)
    vehicles = generate_fleet(count, seed=seed, fault_rate=FAULT_RATE)
    logs = []
    for vehicle in vehicles:
        logs.append(vehicle.name + ".jsonl")
        vehicle.log.write_jsonl(os.path.join(directory, logs[-1]))
    manifest = {
        "format": RV_MANIFEST_FORMAT,
        "dbc": "builtin:ota",
        "mapping": dict(OTA_MAPPING_DOC),
        "spec": "ota-session",
        "logs": logs,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return path, [vehicle.fault is not None for vehicle in vehicles]


def setup(seed: int, directory: str, size: str) -> SimpleNamespace:
    manifest, faulty = write_fleet(os.path.join(directory, "fleet"), VEHICLES[size], seed)
    return SimpleNamespace(
        manifest=manifest,
        faulty=faulty,
        results=os.path.join(directory, "results"),
    )


def _csprv(state):
    specs = specs_from_manifest(load_rv_manifest(state.manifest), os.path.dirname(state.manifest))
    return run_batch(specs, jobs=0, inline=True, result_cache_dir=state.results).results


def unit(state, tally, recorder) -> Unit:
    fresh_dir(state.results)
    started = cpu_seconds()
    cold = _csprv(state)
    cold_s = cpu_seconds() - started
    started = cpu_seconds()
    warm = _csprv(state)
    warm_s = cpu_seconds() - started
    for faulty, first, again in zip(state.faulty, cold, warm):
        tally.check(
            first.verdict == (FAIL if faulty else PASS),
            "{}: {} but fault injected = {}".format(first.check_id, first.verdict, faulty),
        )
        tally.check(
            again.canonical_line() == first.canonical_line(),
            "{}: memoised verdict differs from the cold one".format(first.check_id),
        )
    return Unit(cold_s, warm_s, {})


def teardown(state) -> None:
    """Nothing to release: the fleet lives in the run's work directory."""


def named(state, e2e):
    vehicles = len(state.faulty)
    return [
        ("traces_per_cpu_s", vehicles / e2e["cold_cpu_s"], "1/s"),
        ("memo_traces_per_cpu_s", vehicles / e2e["warm_cpu_s"], "1/s"),
    ]
