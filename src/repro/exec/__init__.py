"""repro.exec -- the unified execution runtime.

Before this package existed, the three ways of running a check -- the
inline :mod:`repro.api` pipeline, the :mod:`repro.batch` process pool and
the :mod:`repro.server` daemon -- each carried their own copy of the
submit → execute → cache → result plumbing, and a *completed* check was
thrown away the moment its requester was answered.  ``repro.exec`` is the
one layer every mode now routes through (pooled batches and the daemon
share one scheduler, :class:`~repro.server.core.VerificationServer`):

* :mod:`repro.exec.spec` is the wire format every mode speaks: the
  :class:`~repro.exec.spec.CheckSpec` a check is described by, the
  :class:`~repro.exec.spec.JobResult` it comes back as, the verdicts and
  the ``{"format": 1, "checks": [...]}`` manifest document.
* :mod:`repro.exec.keys` computes every structural identity in the system
  -- the server's dedup key, the LTS disk-cache digest and the
  result-cache digest all come from one module, versioned together.
  Every spec key is :meth:`~repro.exec.spec.CheckSpec.material` of the
  decoded check, whatever the spelling of the document it came from.
* :mod:`repro.exec.resultcache` persists a completed check's canonical
  :class:`~repro.exec.spec.JobResult` bytes content-addressed by that
  key, one sqlite row per verdict, so a later identical request in *any*
  mode answers without re-verifying.  The server's in-flight dedup table
  is the first tier of the same cache (same key, lifetime = one
  execution); the disk store is the second (lifetime = until
  invalidated).
* :mod:`repro.exec.runtime` owns spec execution: :func:`execute_spec` is
  the sequential reference semantics every mode is held to, and
  :func:`execute_cached` is the memoised flavour layered on a
  :class:`ResultCache`.
* :mod:`repro.exec.workers` owns the process boundary: the persistent
  warm worker the server pool runs, and the failure-verdict constructor
  (worker death → ``ERROR``, deadline → ``TIMEOUT``, cancellation →
  ``CANCELLED``).

The package is the bottom of the execution stack: :mod:`repro.server`
builds on it, :mod:`repro.batch` on both, and :mod:`repro.rv` on
:mod:`repro.batch`.  Nothing here imports those layers back, so any
submodule can be imported first.  Import the submodule that defines a
name; this package module re-exports nothing.

Soundness before availability, exactly like the LTS
:class:`~repro.engine.diskcache.DiskCache`: cache keys include the result
format version, the engine semantics version and the full pass
configuration; entries are validated on read and quarantined on any
defect; and only deterministic verdicts (``PASS``/``FAIL``) are ever
persisted.
"""
