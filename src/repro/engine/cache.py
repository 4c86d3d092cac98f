"""The model-compilation cache, keyed by structural fingerprints.

A compiled LTS (or normalised specification) depends on exactly two things:
the structure of the root term and the bodies of the named equations it can
reach through :class:`~repro.csp.process.ProcessRef`.  The cache key captures
both -- ``Process.fingerprint()`` for the root plus the sorted fingerprints
of the reachable bindings -- so a hit is sound even when the environment has
since gained or changed *unrelated* bindings (the mutants sweep binds a new
implementation per iteration while the specification side stays put).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from ..csp.events import AlphabetTable
from ..csp.lts import LTS, StateSpaceLimitExceeded, TermNestingExceeded
from ..csp.process import Environment, Process
from ..fdr.normalise import NormalisedSpec
from ..obs.trace import NULL_TRACER, Tracer
from .diskcache import DiskCache

#: (root fingerprint, sorted (name, body fingerprint) of reachable bindings)
CacheKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: a compressed component: its structural key plus the applied pass names
CompressedKey = Tuple[CacheKey, Tuple[str, ...]]

#: fingerprint stand-in for a reference with no binding (unbound names fail
#: at compile time, but the key must still distinguish them)
_UNBOUND = "<unbound>"


def reachable_bindings(
    process: Process, env: Environment
) -> Tuple[Tuple[str, str], ...]:
    """The named equations reachable from *process*, with body fingerprints.

    A closure over :meth:`Process.refs`, which each hash-consed term caches:
    the environment is read afresh on every call, so a rebound name changes
    the key.
    """
    seen: Dict[str, Optional[Process]] = {}
    pending = list(process.refs())
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        body = env.resolve(name) if name in env else None
        seen[name] = body
        if body is not None:
            pending.extend(body.refs())
    return tuple(
        sorted(
            (name, body.fingerprint() if body is not None else _UNBOUND)
            for name, body in seen.items()
        )
    )


def structural_key(process: Process, env: Environment) -> CacheKey:
    """The cache key of compiling *process* under *env*."""
    return (process.fingerprint(), reachable_bindings(process, env))


class CompilationCache:
    """Memoises compiled LTSs and normalised specifications.

    Entries are keyed structurally (see :func:`structural_key`), so one cache
    may be shared across pipelines, environments, and checks.  A cached LTS
    is complete -- compilation either finished or raised -- so it satisfies
    any state budget at least as large as its own state count; a lookup under
    a smaller budget (of the LTS, its normalised form or a component
    compressed from it) re-raises :class:`StateSpaceLimitExceeded` exactly
    as a fresh compile would.

    An optional :class:`~repro.engine.diskcache.DiskCache` layers beneath
    the in-memory maps: LTS lookups that miss in memory consult the disk
    store (re-interning events into the caller's alphabet table), and every
    stored LTS is written through, so compilation results are shared across
    processes and sessions.  Normalised and compressed entries stay
    memory-only -- both rebuild deterministically from a disk-cached LTS.

    A compile that exceeded its budget is remembered too, per structural
    key and budget and in memory only, so a component that is too large
    on its own is explored once, not once per assertion that prepares it.
    """

    def __init__(self, disk: Optional[DiskCache] = None) -> None:
        self._lts: Dict[CacheKey, LTS] = {}
        self._normalised: Dict[CacheKey, NormalisedSpec] = {}
        #: compressed component automata, keyed by (structural key, pass
        #: config) -- the same component checked under different pass lists
        #: gets distinct entries (see repro.engine.plan.CompilationPlan)
        self._compressed: Dict[CompressedKey, object] = {}
        #: compiles that failed: (key, budget) -> (exception type, limit)
        self._failures: Dict[
            Tuple[CacheKey, int], Tuple[Type[StateSpaceLimitExceeded], Optional[int]]
        ] = {}
        self.lts_hits = 0
        self.lts_misses = 0
        self.normalised_hits = 0
        self.normalised_misses = 0
        self.compressed_hits = 0
        self.compressed_misses = 0
        #: optional on-disk layer consulted below the in-memory maps
        self.disk = disk
        self.disk_hits = 0
        #: tracer whose metrics mirror the hit/miss counters; bound by the
        #: pipeline when observability is enabled, otherwise the null tracer
        self.obs: Tracer = NULL_TRACER

    def _record(self, kind: str, hit: bool) -> None:
        suffix = "hits" if hit else "misses"
        self.obs.metrics.counter("cache.{}_{}".format(kind, suffix)).inc()

    def get_lts(
        self,
        key: CacheKey,
        max_states: int,
        table: Optional[AlphabetTable] = None,
    ) -> Optional[LTS]:
        cached = self._lts.get(key)
        if cached is None and self.disk is not None:
            cached = self.disk.get_lts(key, table=table)
            if cached is not None:
                # promote so repeat lookups skip the filesystem; budget
                # enforcement below applies to disk hits identically
                self._lts[key] = cached
                self.disk_hits += 1
                if self.obs.enabled:
                    self._record("disk", True)
        if cached is None:
            self.lts_misses += 1
            if self.obs.enabled:
                self._record("lts", False)
            return None
        if cached.state_count > max_states:
            raise StateSpaceLimitExceeded(max_states)
        self.lts_hits += 1
        if self.obs.enabled:
            self._record("lts", True)
        return cached

    def put_lts(self, key: CacheKey, lts: LTS) -> None:
        self._lts[key] = lts
        if self.disk is not None:
            self.disk.put_lts(key, lts)

    def put_failure(
        self, key: CacheKey, max_states: int, error: StateSpaceLimitExceeded
    ) -> None:
        """Remember that compiling *key* under *max_states* raised *error*."""
        self._failures[(key, max_states)] = (type(error), error.limit)

    def get_failure(
        self, key: CacheKey, max_states: int
    ) -> Optional[StateSpaceLimitExceeded]:
        """A fresh copy of the failure recorded for *key*, or None.

        Only the type and the limit are kept, never the exception itself,
        so no traceback (and none of the frames it holds) outlives the
        compile that raised it.
        """
        failure = self._failures.get((key, max_states))
        if failure is None:
            return None
        kind, limit = failure
        if issubclass(kind, TermNestingExceeded):
            return kind()
        return kind(limit)

    def get_normalised(
        self, key: CacheKey, max_states: int
    ) -> Optional[NormalisedSpec]:
        cached = self._normalised.get(key)
        if cached is None:
            self.normalised_misses += 1
            if self.obs.enabled:
                self._record("normalised", False)
            return None
        # the source LTS is cached under the same key; let its budget check run
        source = self._lts.get(key)
        if source is not None and source.state_count > max_states:
            raise StateSpaceLimitExceeded(max_states)
        self.normalised_hits += 1
        if self.obs.enabled:
            self._record("normalised", True)
        return cached

    def put_normalised(self, key: CacheKey, spec: NormalisedSpec) -> None:
        self._normalised[key] = spec

    def get_compressed(
        self, key: CacheKey, passes: Tuple[str, ...], max_states: int
    ) -> object:
        cached = self._compressed.get((key, passes))
        if cached is None:
            self.compressed_misses += 1
        else:
            # compressed from a source compiled under some budget; let the
            # same check as get_lts run against this caller's budget
            if cached.source.state_count > max_states:
                raise StateSpaceLimitExceeded(max_states)
            self.compressed_hits += 1
        if self.obs.enabled:
            self._record("compressed", cached is not None)
        return cached

    def put_compressed(
        self, key: CacheKey, passes: Tuple[str, ...], automaton: object
    ) -> None:
        self._compressed[(key, passes)] = automaton

    def clear(self) -> None:
        self._lts.clear()
        self._normalised.clear()
        self._compressed.clear()
        self._failures.clear()

    def stats(self) -> Dict[str, int]:
        stats = {
            "lts_entries": len(self._lts),
            "lts_hits": self.lts_hits,
            "lts_misses": self.lts_misses,
            "normalised_entries": len(self._normalised),
            "normalised_hits": self.normalised_hits,
            "normalised_misses": self.normalised_misses,
            "compressed_entries": len(self._compressed),
            "compressed_hits": self.compressed_hits,
            "compressed_misses": self.compressed_misses,
        }
        if self.disk is not None:
            # lts_hits counts everything served from cache; disk_hits the
            # subset that had to be read (and promoted) from the disk layer
            stats["disk_promotions"] = self.disk_hits
            stats.update(self.disk.stats())
        return stats
