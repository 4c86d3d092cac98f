"""The process boundary: the worker entry point and failure verdicts.

:func:`persistent_worker_main` is the one worker shape in the system: the
warm worker of :class:`~repro.server.core.VerificationServer`, which both
the ``cspserve`` daemon and pooled ``cspbatch`` runs schedule onto.  It
loops over ``(chunk of spec JSON texts, profile?)`` messages on a duplex
pipe, so the interpreter, the imported toolchain and both cache
directories stay hot across requests; ``None`` is the shutdown sentinel.
A chunk runs in order, and each result goes back on the pipe as soon as
its execution finishes: the server starts the next member's deadline when
the previous result arrives, and a crash or overrun costs only the member
that was running (the server requeues the rest).  A worker that crashes
or overruns its deadline is killed and respawned by the server.

It is a top-level function (not a closure) so it works under the
``spawn`` start method as well as ``fork``, and it receives each spec as
the canonical JSON text of a ``cspbatch`` manifest entry
(:func:`~repro.exec.keys.spec_material`) -- so workers never unpickle
code, and a deeply nested spec crosses the pipe as one flat string.

Two steps make a forked worker independent of the process that forked
it.  ``SIGTERM`` goes back to its default action: a worker forked after
``cspserve --http`` installed its stop handler would otherwise inherit
that handler, and the server's ``terminate()`` of an overrunning worker
would only set an event.  And the worker closes its copy of the server's
end of its own pipe, so it reads EOF -- and exits -- once the server is
gone, even after a ``SIGKILL``.  It then drops every other socket it
inherited: under ``cspserve --http`` a fork copies the frontend's listening
socket and each HTTP connection open at that moment, which would keep the
port bound after the daemon stops, and its older siblings' pipe ends.
Pipes stay open: the ``multiprocessing`` sentinel the server joins on is
one.

With a result-cache directory, :func:`execute_material` writes each
verdict through to the :class:`~repro.exec.resultcache.ResultCache` on
the worker's own connection.  It does not probe the store first: the
server probed it at submit, and a hit never reaches a worker.  The text
the worker received is the spec's canonical text, so it keys the write
without encoding the spec again.

:func:`failure_result` builds the verdicts that exist *because* there is a
process boundary: worker death -> ``ERROR``, deadline -> ``TIMEOUT``,
shutdown -> ``CANCELLED``.  They are never cached (see
:func:`~repro.exec.resultcache.cacheable`) -- a crash describes this run's
environment, not the check.
"""

from __future__ import annotations

import json
import os
import signal
import stat
from typing import Optional

from .resultcache import ResultCache
from .runtime import execute_spec, open_result_cache
from .spec import CheckSpec, ERROR, JobResult, ManifestError


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


def execute_material(
    material: str,
    *,
    cache_dir: Optional[str] = None,
    profile: bool = False,
    result_cache: Optional[ResultCache] = None,
) -> JobResult:
    """Run the spec whose canonical text is *material*; write it through.

    The result is unlabelled (index 0, the label-stripped spec's id): the
    server stamps each requester's own labels on it.
    """
    try:
        spec_doc = json.loads(material)
        spec = CheckSpec.from_doc(spec_doc)
    except (ManifestError, RecursionError) as error:
        return failure_result(ERROR, "undecodable spec: {}".format(error))
    result = execute_spec(spec, 0, cache_dir=cache_dir, profile=profile)
    if result_cache is not None:
        result_cache.put(spec_doc, result, material=material)
    return result


def _drop_inherited_sockets(keep: int) -> None:
    """Close every socket above fd 2 but *keep* (Linux: reads ``/proc``).

    Each one is pointed at ``/dev/null`` rather than closed outright: the
    fork also copied the Python objects that own those descriptors, and
    one of them that is collected later would close whatever file had
    reused its number.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return
    null = None
    for fd in map(int, names):
        if fd <= 2 or fd == keep:
            continue
        try:
            if not stat.S_ISSOCK(os.fstat(fd).st_mode):
                continue
        except OSError:
            continue  # the listing's own descriptor, closed by now
        if null is None:
            null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, fd, inheritable=False)
    if null is not None:
        os.close(null)


def persistent_worker_main(
    conn,
    cache_dir: Optional[str],
    result_cache_dir: Optional[str] = None,
    server_end=None,
) -> None:
    """One warm worker: loop over (spec JSON texts, profile?) chunks.

    *server_end* is the server's end of this worker's pipe, as a forked
    child inherits it; the worker closes its copy before anything else.
    """
    # a terminal Ctrl-C reaches the whole process group; interruption is the
    # parent's to handle, and it kills or shuts down its workers itself
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if server_end is not None:
        server_end.close()
    _drop_inherited_sockets(conn.fileno())
    result_cache = open_result_cache(result_cache_dir)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            materials, want_profile = message
            for material in materials:
                result = execute_material(
                    material,
                    cache_dir=cache_dir,
                    profile=want_profile,
                    result_cache=result_cache,
                )
                try:
                    conn.send(result.to_doc())
                except (BrokenPipeError, OSError):
                    return
    finally:
        if result_cache is not None:
            result_cache.close()
        try:
            conn.close()
        except OSError:
            pass
