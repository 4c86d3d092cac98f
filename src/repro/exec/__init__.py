"""repro.exec -- the unified execution runtime.

Before this package existed, the three ways of running a check -- the
inline :mod:`repro.api` pipeline, the :mod:`repro.batch` process pool and
the :mod:`repro.server` daemon -- each carried their own copy of the
submit → execute → cache → result plumbing, and a *completed* check was
thrown away the moment its requester was answered.  ``repro.exec`` is the
one layer every mode now routes through (pooled batches and the daemon
share one scheduler, :class:`~repro.server.core.VerificationServer`):

* :mod:`repro.exec.keys` computes every structural identity in the system
  -- the server's id-stripped dedup key, the LTS disk-cache digest and the
  result-cache digest all come from one module, versioned together.
* :mod:`repro.exec.resultcache` persists a completed check's canonical
  :class:`~repro.batch.spec.JobResult` bytes content-addressed by that
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

Soundness before availability, exactly like the LTS
:class:`~repro.engine.diskcache.DiskCache`: cache keys include the result
format version, the engine semantics version and the full pass
configuration; entries are validated on read and quarantined on any
defect; and only deterministic verdicts (``PASS``/``FAIL``) are ever
persisted.
"""

from importlib import import_module

# keys is dependency-free (stdlib only), so it loads eagerly: the engine's
# disk cache imports its digest while this package initialises.  The other
# submodules depend on repro.batch -- whose executor depends back on
# .runtime -- so their facade names resolve lazily (PEP 562) to keep the
# import graph acyclic in either entry order.
from .keys import (
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    lts_key_digest,
    result_key_digest,
    strip_label,
    structural_key,
)

_LAZY = {
    "ResultCache": "resultcache",
    "execute_cached": "runtime",
    "execute_spec": "runtime",
    "open_result_cache": "runtime",
    "resolve_result_cache_dir": "runtime",
    "failure_result": "workers",
    "persistent_worker_main": "workers",
}


def __getattr__(name):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)
        ) from None
    value = getattr(import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ENGINE_SEMANTICS_VERSION",
    "RESULT_FORMAT_VERSION",
    "ResultCache",
    "execute_cached",
    "execute_spec",
    "failure_result",
    "lts_key_digest",
    "open_result_cache",
    "persistent_worker_main",
    "resolve_result_cache_dir",
    "result_key_digest",
    "strip_label",
    "structural_key",
]
