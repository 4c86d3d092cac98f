"""Every structural key in the system, computed in one place.

Three caches identify work structurally, and before this module each
computed its key with its own copy of the code:

* the server's **in-flight dedup table** coalesces identical requests;
* the **LTS disk cache** digests ``(format_version, structural key,
  passes)`` in :mod:`repro.engine.diskcache`;
* the **result cache** needs a key that is exactly the dedup table's --
  a completed check answers precisely the requests that would have
  coalesced with it in flight -- plus the version material that bounds
  how long a stored verdict stays trustworthy.

They now all call here.  A spec's identity starts from its canonical
text, which has one producer: :meth:`~repro.exec.spec.CheckSpec.material`,
the label-stripped, sorted-key, compact JSON of the decoded check,
assembled from JSON fragments cached on its hash-consed terms (each term
is encoded once per process however many specs share it -- a fleet
checks every log against one spec).  A document that arrives from
outside -- an HTTP or stdio request, a ``POST /batch`` manifest -- is
decoded once with :meth:`~repro.exec.spec.CheckSpec.from_doc` and keyed
by that same method, so every key is ``material()`` of the decoded
check, whatever the document's spelling: an omitted ``model`` and
``"T"``, a written-out default ``passes`` or null ``max_states``, an
unknown field all key alike, inline, pooled and served.  The client's
``id`` label never participates; the ``name`` does, since it flows into
result labels.  Two identity layers derive from that text:

:func:`material_key`
    SHA-256 of the canonical text: the structural key the server
    coalesces in-flight requests on.

:func:`result_key_digest`
    The content address of a persisted verdict: the structural key wrapped
    with :data:`RESULT_FORMAT_VERSION` (the entry layout) and
    :data:`ENGINE_SEMANTICS_VERSION` (the verdict semantics).  Bumping
    either version changes every digest, so a whole generation of entries
    becomes unreachable -- invalidation by construction, no sweep needed
    for correctness (readers still compare the stored text, so a
    colliding or hand-edited row degrades to a miss, never to data).

A caller computes the text once and hands it on: the server hashes it
into the dedup key, ships it to a worker as the spec itself, and the
result cache stores it as the key material it compares on read.  Every
canonical text goes through one encoder, :data:`canonical_json`.

The LTS digest (:func:`lts_key_digest`) keeps its historical shape --
``repr`` of ``(format version, compilation cache key, passes)`` -- so
existing ``.ltsb`` stores stay warm across this refactor.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

#: bump when the meaning of a verdict changes: refinement semantics, search
#: order (states-explored counts), counterexample selection or description
#: text.  Every result-cache entry written under the old semantics becomes
#: unreachable.  The LTS disk cache has its own version below; they move
#: independently (a new entry layout does not invalidate verdicts, and a
#: semantics change does not invalidate compiled automata).
ENGINE_SEMANTICS_VERSION = 1

#: bump when the result-cache entry layout changes (2: one sqlite row per
#: verdict, keyed by the canonical spec text)
RESULT_FORMAT_VERSION = 2

#: compact, sorted-key JSON: the one encoder behind every canonical text
#: (``json.dumps`` with these arguments builds a new encoder per call)
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: bump when the ``.ltsb`` entry layout changes; readers ignore other
#: versions (moved here from :mod:`repro.engine.diskcache`, which
#: re-exports it -- the key material and the layout version live together)
DISKCACHE_FORMAT_VERSION = 2


# -- the spec identity (server dedup + result cache) --------------------------


def material_key(material: str) -> str:
    """SHA-256 of a spec's canonical text: the structural key."""
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def result_key_digest(material: str) -> str:
    """The content address of the persisted verdict for one canonical text."""
    versioned = "{}:{}:{}".format(
        RESULT_FORMAT_VERSION, ENGINE_SEMANTICS_VERSION, material_key(material)
    )
    return hashlib.sha256(versioned.encode("ascii")).hexdigest()


# -- the compiled-LTS identity (engine disk cache) ----------------------------


def lts_key_digest(key, passes: Tuple[str, ...] = ()) -> str:
    """The content address of one compiled-LTS cache entry.

    *key* is a :data:`~repro.engine.cache.CacheKey` (nested tuples of
    strings), *passes* the applied pass names.  ``repr`` of that structure
    is stable across processes and Python versions for the string/tuple
    shapes involved, and the full key is stored in the entry and compared
    on read, so a digest collision degrades to a miss, not to wrong data.
    """
    material = repr((DISKCACHE_FORMAT_VERSION, key, tuple(passes)))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
