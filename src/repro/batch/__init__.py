"""repro.batch -- process-pool batch verification.

The paper's workflow checks one assertion at a time in FDR; real audits
discharge dozens (every Table III requirement, every extracted ECU model
against every specification).  This package runs a list of
:class:`CheckSpec` values on a pool of persistent worker processes -- the
``cspserve`` daemon's scheduler, :class:`~repro.server.core.VerificationServer`,
run in-process:

* **Crash isolation** -- a crashing, looping, or exiting check fails *its*
  job (``ERROR``/``TIMEOUT``); its worker is killed and respawned while
  the rest of the batch completes.
* **Determinism** -- results come back in input order and each job runs in
  a fresh pipeline; a parallel run's canonical results are byte-identical
  to the sequential reference (:func:`~repro.exec.runtime.execute_spec`),
  which the conformance corpus under ``tests/conformance`` enforces.
* **Shared compilation** -- workers layer the in-memory cache over a
  content-addressed on-disk store (:mod:`repro.engine.diskcache`), so one
  worker's compiled automaton warms every sibling and every later session.

The package sits above :mod:`repro.exec` (the wire format, execution and
the result cache) and :mod:`repro.server` (the pool), and holds what is
batch-specific: :func:`run_batch` (:mod:`repro.batch.executor`), manifest
files (:mod:`repro.batch.spec`) and the one run-and-emit path that
``cspbatch`` and ``csprv`` share (:mod:`repro.batch.cli`).  The wire format
names are re-exported here for callers that think in batches.

Surfaced on the command line as ``cspbatch`` (manifest in, JSONL out) and
programmatically as :func:`repro.api.verify_requirements`.
"""

from ..exec.spec import (
    BATCH_FORMAT_VERSION,
    CANCELLED,
    CheckSpec,
    ERROR,
    FAIL,
    JobResult,
    ManifestError,
    PASS,
    TIMEOUT,
    VERDICTS,
    manifest_document,
    parse_manifest,
)
from .executor import BatchReport, run_batch
from .spec import dump_manifest, load_manifest, requirement_specs

__all__ = [
    "BATCH_FORMAT_VERSION",
    "BatchReport",
    "CANCELLED",
    "CheckSpec",
    "ERROR",
    "FAIL",
    "JobResult",
    "ManifestError",
    "PASS",
    "TIMEOUT",
    "VERDICTS",
    "dump_manifest",
    "load_manifest",
    "manifest_document",
    "parse_manifest",
    "requirement_specs",
    "run_batch",
]
