"""The process boundary: the worker entry point and failure verdicts.

:func:`persistent_worker_main` is the one worker shape in the system: the
warm worker of :class:`~repro.server.core.VerificationServer`, which both
the ``cspserve`` daemon and pooled ``cspbatch`` runs schedule onto.  It
loops over ``(spec JSON text, profile?)`` requests on a duplex pipe, so the
interpreter, the imported toolchain and both cache directories stay hot
across requests; ``None`` is the shutdown sentinel.  A worker that crashes
or overruns its deadline is killed and respawned by the server.

It is a top-level function (not a closure) so it works under the
``spawn`` start method as well as ``fork``, and it receives the spec as
the canonical JSON text of a ``cspbatch`` manifest entry
(:func:`~repro.exec.keys.spec_material`) -- so workers never unpickle
code, and a deeply nested spec crosses the pipe as one flat string.

With a result-cache directory it runs requests through
:func:`~repro.exec.runtime.execute_cached`: the server probes the store at
submit (a hit never costs a queue slot or a worker), and the worker probes
again around execution -- catching entries another worker promoted
meanwhile -- then writes its own verdict through.

:func:`failure_result` builds the verdicts that exist *because* there is a
process boundary: worker death -> ``ERROR``, deadline -> ``TIMEOUT``,
shutdown -> ``CANCELLED``.  They are never cached (see
:func:`~repro.exec.resultcache.cacheable`) -- a crash describes this run's
environment, not the check.
"""

from __future__ import annotations

import json
import signal
from typing import Optional

from ..batch.spec import CheckSpec, ERROR, JobResult, ManifestError
from .runtime import execute_cached, open_result_cache


def failure_result(
    verdict: str,
    error: str,
    *,
    index: int = 0,
    check_id: Optional[str] = None,
    name: Optional[str] = None,
) -> JobResult:
    """A process-boundary verdict (``ERROR``/``TIMEOUT``/``CANCELLED``)."""
    return JobResult(index, check_id, verdict, name=name, error=error)


def persistent_worker_main(
    conn,
    cache_dir: Optional[str],
    result_cache_dir: Optional[str] = None,
) -> None:
    """One warm worker: loop over (spec JSON text, profile?) requests."""
    # a terminal Ctrl-C reaches the whole process group; interruption is the
    # parent's to handle, and it kills or shuts down its workers itself
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    result_cache = open_result_cache(result_cache_dir)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            material, want_profile = message
            try:
                spec_doc = json.loads(material)
                spec = CheckSpec.from_doc(spec_doc)
            except (ManifestError, RecursionError) as error:
                # unlabelled: the server stamps each requester's labels
                result = failure_result(ERROR, "undecodable spec: {}".format(error))
            else:
                result = execute_cached(
                    spec,
                    0,
                    cache_dir=cache_dir,
                    profile=want_profile,
                    result_cache=result_cache,
                    spec_doc=spec_doc,
                )
            try:
                conn.send(result.to_doc())
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass
