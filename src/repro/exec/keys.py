"""Every structural key in the system, computed in one place.

Three caches identify work structurally, and before this module each
computed its key with its own copy of the code:

* the server's **in-flight dedup table** hashed the id-stripped spec
  document in :mod:`repro.server.protocol`;
* the **LTS disk cache** digested ``(format_version, structural key,
  passes)`` in :mod:`repro.engine.diskcache`;
* the new **result cache** needs a key that is exactly the dedup table's
  -- a completed check answers precisely the requests that would have
  coalesced with it in flight -- plus the version material that bounds
  how long a stored verdict stays trustworthy.

They now all call here.  Two identity layers:

:func:`structural_key`
    SHA-256 of the canonical JSON encoding of a spec document with its
    client-chosen ``id`` label stripped.  Two requests that mean the same
    check -- regardless of who submitted them or what they called it --
    hash identically.  The ``name`` field *does* participate: it flows
    into result labels, so only requests that would produce byte-identical
    canonical results share a key.  The pass configuration and state
    budget live inside the spec document, so they participate too.

:func:`result_key_digest`
    The content address of a persisted verdict: the structural key wrapped
    with :data:`RESULT_FORMAT_VERSION` (the entry layout) and
    :data:`ENGINE_SEMANTICS_VERSION` (the verdict semantics).  Bumping
    either version changes every digest, so a whole generation of entries
    becomes unreachable -- invalidation by construction, no sweep needed
    for correctness (readers still compare the stored text, so a
    colliding or hand-edited row degrades to a miss, never to data).

Both derive from one canonical text per spec: the label-stripped,
sorted-key, compact JSON of its document.  A
:class:`~repro.exec.spec.CheckSpec` assembles that text itself
(:meth:`~repro.exec.spec.CheckSpec.material`) from JSON fragments cached
on its hash-consed terms, so each term is encoded once per process
however many specs share it -- a fleet checks every log against one
spec.  :func:`spec_material` gives the same bytes for a document, and is
kept for the documents that arrive from outside: HTTP and stdio requests
and ``cspcheck``'s memo documents.  A caller computes the text once and
hands it on: the server hashes it into the dedup key, ships it to a
worker as the spec itself, and the result cache stores it as the key
material it compares on read.  Every canonical text goes through one
encoder, :data:`canonical_json`.

The LTS digest (:func:`lts_key_digest`) keeps its historical shape --
``repr`` of ``(format version, compilation cache key, passes)`` -- so
existing ``.ltsb`` stores stay warm across this refactor.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

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


# -- the spec-document identity (server dedup + result cache) -----------------


def strip_label(spec_doc: Dict[str, Any]) -> Dict[str, Any]:
    """The spec document minus its ``id`` -- the identity dedup ignores."""
    return {key: value for key, value in spec_doc.items() if key != "id"}


def spec_material(spec_doc: Dict[str, Any]) -> str:
    """The canonical text of a spec document: label-stripped, sorted-key JSON.

    Everything else in this section derives from this text, so callers
    compute it once per request and pass it on.  A
    :class:`~repro.exec.spec.CheckSpec` builds the same bytes without a
    document (:meth:`~repro.exec.spec.CheckSpec.material`).
    """
    return canonical_json(strip_label(spec_doc))


def material_key(material: str) -> str:
    """SHA-256 of a spec's canonical text: the structural key."""
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def structural_key(spec_doc: Dict[str, Any]) -> str:
    """SHA-256 of the label-stripped canonical encoding of one spec.

    Identical checks from any number of clients map to the same key: the
    server coalesces in-flight requests on it, and the result cache
    answers completed ones from it.
    """
    return material_key(spec_material(spec_doc))


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
