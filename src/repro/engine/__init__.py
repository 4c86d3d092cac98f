"""The shared verification engine.

One :class:`VerificationPipeline` per model-checking session replaces the
hand-wired compile → normalise → refine sequences that used to live in every
caller.  The pipeline owns three pieces of shared state:

* an :class:`~repro.csp.events.AlphabetTable` interning events to dense
  int ids, so every automaton it builds lives in one id space and the
  product search never hashes an :class:`~repro.csp.events.Event` on the
  hot path;
* a :class:`CompilationCache` memoising compiled LTSs and normalised
  specifications by structural fingerprint, so checking one specification
  against many implementations compiles the shared side once -- optionally
  backed by a content-addressed on-disk :class:`DiskCache` shared across
  worker processes and sessions (see :mod:`repro.batch`);
* the check dispatch itself, including the on-the-fly implementation
  expansion that lets trace/failures checks exit on the first violation
  without materialising the full implementation state space;
* a :class:`CompilationPlan` that decomposes composed terms along their
  parallel/hiding/renaming boundaries and compresses each component with
  the configured :mod:`repro.passes` before the product is ever explored
  (compress-before-compose, paper Sec. VII-A).
"""

from .cache import CompilationCache, reachable_bindings, structural_key
from .diskcache import DISKCACHE_FORMAT_VERSION, DiskCache
from .pipeline import VerificationPipeline, shared_cache
from .plan import (
    CompilationPlan,
    CompiledAutomaton,
    ComponentProvenance,
    PreparedTerm,
    component_provenance,
)
from .product import ProductLTS

__all__ = [
    "CompilationCache",
    "CompilationPlan",
    "CompiledAutomaton",
    "ComponentProvenance",
    "DISKCACHE_FORMAT_VERSION",
    "DiskCache",
    "PreparedTerm",
    "ProductLTS",
    "VerificationPipeline",
    "component_provenance",
    "reachable_bindings",
    "shared_cache",
    "structural_key",
]
