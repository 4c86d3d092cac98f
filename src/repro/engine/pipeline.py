"""The verification pipeline: compile → normalise → refine, shared.

Every check that used to hand-wire ``compile_lts`` + ``normalise`` +
``check_*`` now goes through one :class:`VerificationPipeline`.  The pipeline
owns an interned :class:`AlphabetTable` (one id space for every automaton it
builds), a :class:`CompilationCache` (one compile per distinct term), and the
choice between the on-the-fly search (default for ``[T=`` / ``[F=``: the
implementation is a :class:`~repro.engine.product.ProductLTS` whose states
unfold on demand, and the search exits on the first violation) and the eager
search (the implementation fully compiled; always used for ``[FD=``, which
needs the implementation's complete tau graph).  Every refinement model
takes its specification from :meth:`VerificationPipeline.normalised`, so a
specification is normalised once per pipeline whatever the model.  Eager
compilation materialises the product of a term with a compiled spine or a
bare compiled leaf; any other term goes through the SOS compiler.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..csp.events import AlphabetTable
from ..csp.lts import (
    DEFAULT_STATE_LIMIT,
    LTS,
    StateSpaceLimitExceeded,
    compile_lts,
)
from ..csp.process import Environment, Process
from ..fdr.normalise import NormalisedSpec, normalise
from ..fdr.refine import (
    CheckResult,
    check_deadlock_free,
    check_deterministic,
    check_divergence_free,
    check_failures_refinement_from,
    check_fd_refinement,
    check_trace_refinement_from,
)
from ..obs.profile import profile_of
from ..obs.trace import NULL_TRACER, Tracer, ensure_tracer
from ..passes.base import PassSpec, resolve_passes
from .cache import CompilationCache, structural_key
from .plan import CompilationPlan, PreparedTerm, component_provenance
from .product import ProductLTS

_REFINEMENTS = {
    "T": check_trace_refinement_from,
    "F": check_failures_refinement_from,
    "FD": check_fd_refinement,
}

_PROPERTY_CHECKS = {
    "deadlock free": check_deadlock_free,
    "divergence free": check_divergence_free,
    "deterministic": check_deterministic,
}


def check_label(left: Process, kind: str, right: Optional[Process] = None) -> str:
    """The name a check reports its result under when it is given none.

    ``left [K= right`` for a refinement (*kind* ``T``, ``F`` or ``FD``),
    ``left :[kind]`` for a property check (no *right*).
    """
    if right is None:
        return "{!r} :[{}]".format(left, kind)
    return "{!r} [{}= {!r}".format(left, kind, right)


class VerificationPipeline:
    """A shared compile/normalise/refine pipeline over one environment."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        *,
        table: Optional[AlphabetTable] = None,
        cache: Optional[CompilationCache] = None,
        max_states: int = DEFAULT_STATE_LIMIT,
        on_the_fly: bool = True,
        passes: PassSpec = "default",
        obs: Optional[Tracer] = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.table = table if table is not None else AlphabetTable()
        self.cache = cache if cache is not None else CompilationCache()
        self.max_states = max_states
        self.on_the_fly = on_the_fly
        self.passes = resolve_passes(passes)
        self.checks_run = 0
        #: the observability sink; the null tracer unless the caller opts in
        self.obs: Tracer = ensure_tracer(obs)
        if self.obs.enabled:
            # mirror cache hit/miss counts into the tracer's metrics
            self.cache.obs = self.obs

    @property
    def plan(self) -> CompilationPlan:
        """The compress-before-compose plan over this pipeline.

        Built on each access: a plan holds its pipeline, so a stored one
        would make every pipeline a reference cycle, kept (with its caches,
        compiled automata and terms) until the next full collection.
        """
        return CompilationPlan(self, self.passes)

    # -- compilation ---------------------------------------------------------

    def compile(self, process: Process) -> LTS:
        """Compile *process* through the cache, in the pipeline's id space.

        A compile that exceeded the budget is recorded in the cache, and a
        repeat under the same budget (from any pipeline sharing the cache)
        raises the same error at once.
        """
        key = structural_key(process, self.env)
        cached = self.cache.get_lts(key, self.max_states, table=self.table)
        if cached is not None:
            return cached
        failure = self.cache.get_failure(key, self.max_states)
        if failure is not None:
            raise failure
        obs = self.obs
        try:
            if obs.enabled:
                with obs.span("compile") as span:
                    lts = self._generate(process)
                    span.set_tag("states", lts.state_count)
            else:
                lts = self._generate(process)
        except StateSpaceLimitExceeded as error:
            self.cache.put_failure(key, self.max_states, error)
            raise
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("compile.states").inc(lts.state_count)
            metrics.counter("compile.transitions").inc(lts.transition_count)
        self.cache.put_lts(key, lts)
        return lts

    def _generate(self, process: Process) -> LTS:
        """The full state space of *process*, in the pipeline's id space.

        A composition spine over compiled leaves, or a bare compiled leaf,
        is materialised as its :class:`ProductLTS`.  Any other term is one
        SOS leaf, which ``compile_lts`` expands to the same automaton
        faster.
        """
        product = ProductLTS.for_term(
            process, self.table, self.max_states, self.env
        )
        if product.sos:
            return compile_lts(process, self.env, self.max_states, self.table)
        return product.materialise()

    def normalised(self, process: Process) -> NormalisedSpec:
        """The normalised automaton of *process*, through the cache."""
        key = structural_key(process, self.env)
        cached = self.cache.get_normalised(key, self.max_states)
        if cached is not None:
            return cached
        lts = self.compile(process)
        obs = self.obs
        if obs.enabled:
            with obs.span("normalise", states=lts.state_count) as span:
                spec = normalise(lts, obs=obs)
                span.set_tag("nodes", spec.node_count)
        else:
            spec = normalise(lts)
        self.cache.put_normalised(key, spec)
        return spec

    def lazy(self, process: Process) -> ProductLTS:
        """An on-the-fly expansion of *process* in the pipeline's id space."""
        return ProductLTS.for_term(process, self.table, self.max_states, self.env)

    # -- checks --------------------------------------------------------------

    def refinement(
        self,
        spec: Process,
        impl: Process,
        model: str = "T",
        name: Optional[str] = None,
    ) -> CheckResult:
        """Discharge ``spec [model= impl``.

        ``T`` and ``F`` run on-the-fly unless the pipeline was built with
        ``on_the_fly=False``; ``FD`` always materialises the implementation
        (divergence detection needs its full tau graph).
        """
        if model not in _REFINEMENTS:
            raise ValueError(
                "model must be 'T' (traces), 'F' (failures) or 'FD' "
                "(failures-divergences)"
            )
        label = name or check_label(spec, model, impl)
        self.checks_run += 1
        obs = self.obs
        with obs.span("check", name=label, model=model) as root:
            with obs.span("plan"):
                plan = self.plan
                prepared_spec = plan.prepare(spec, model)
                prepared_impl = plan.prepare(impl, model)
            normalised_spec = self.normalised(prepared_spec.term)
            if model != "FD" and self.on_the_fly:
                implementation = self.lazy(prepared_impl.term)
            else:
                implementation = self.compile(prepared_impl.term)
            with obs.span("refine", model=model):
                result = _REFINEMENTS[model](
                    normalised_spec, implementation, label, obs
                )
        return self._finish(result, root, prepared_spec, prepared_impl)

    def property_check(
        self,
        process: Process,
        property_name: str,
        name: Optional[str] = None,
    ) -> CheckResult:
        """Discharge ``process :[property]`` (deadlock/divergence/determinism)."""
        try:
            checker = _PROPERTY_CHECKS[property_name]
        except KeyError:
            raise ValueError(
                "unknown property {!r}; known: {}".format(
                    property_name, sorted(_PROPERTY_CHECKS)
                )
            ) from None
        label = name or check_label(process, property_name)
        self.checks_run += 1
        obs = self.obs
        with obs.span("check", name=label, property=property_name) as root:
            # property checks observe failures and divergences, so only
            # FD-preserving passes may rewrite the process
            with obs.span("plan"):
                prepared = self.plan.prepare(process, "FD")
            lts = self.compile(prepared.term)
            with obs.span("refine", property=property_name):
                result = checker(lts, label, obs)
        return self._finish(result, root, prepared)

    def _finish(
        self, result: CheckResult, root, *prepared: PreparedTerm
    ) -> CheckResult:
        """Attach pass statistics, provenance and the profile to a result."""
        result.pass_stats = tuple(
            stat for item in prepared for stat in item.pass_stats
        )
        violation = result.counterexample
        if violation is not None and violation.impl_term is not None:
            violation.provenance = component_provenance(violation.impl_term)
        if self.obs.enabled:
            result.profile = profile_of(self.obs, root)
        return result

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cache and table statistics (for ``cspcheck --stats`` and tests)."""
        stats = dict(self.cache.stats())
        stats["interned_events"] = len(self.table)
        stats["checks_run"] = self.checks_run
        return stats


#: Process-wide cache used by callers that have no natural pipeline scope
#: (e.g. the conformance harness compiling one specification per suite run).
_SHARED_CACHE = CompilationCache()


def shared_cache() -> CompilationCache:
    """The process-wide structural compilation cache."""
    return _SHARED_CACHE
