"""repro.api -- the v1 public surface of the verification toolchain.

The paper's workflow (Fig. 1) plus its deployment-side counterpart give the
toolchain five programmatic jobs: check a refinement, check a behavioural
property, extract a CSPm model from ECU source, execute wire-format checks
through the shared runtime, and verify logged traffic against the models.
This module is exactly that surface, versioned as :data:`API_VERSION`::

    from repro import api

    result = api.check_refinement(spec, impl, model="T", env=env)   # design
    result = api.check_deadlock(system, env=env)
    result = api.verify_requirement("R02")          # paper Table III
    extraction = api.extract_model(capl_source)     # CAPL -> CSPm
    result = api.check_trace(spec, events, env=env) # one logged trace
    verdicts = api.verify_traces("fleet/manifest.json", jobs=4)

Two result shapes, by layer:

* the *check* functions return :class:`~repro.fdr.refine.CheckResult` --
  the engine-level object with the live counterexample and pass/profile
  provenance; every one routes through one :class:`~repro.engine.pipeline.
  VerificationPipeline` built the same way, so facade calls and hand-built
  pipelines produce identical results (the facade adds no semantics, only
  defaults);
* the *execute/verify* entry points return :class:`Verdict` (lists of it),
  the canonical wire-shaped outcome whose :meth:`Verdict.to_json` bytes are
  identical across inline, pooled, daemon and cache-warm execution.

Pass ``obs=Tracer()`` to any check to get a per-stage
:class:`~repro.obs.Profile` on the result.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Union

from .batch import requirement_specs, run_batch
from .csp.lts import DEFAULT_STATE_LIMIT, compile_lts
from .csp.process import Environment, Process
from .engine.cache import CompilationCache
from .engine.pipeline import VerificationPipeline
from .exec.runtime import execute_cached, open_result_cache
from .fdr.refine import CheckResult
from .obs.trace import Tracer
from .ota.requirements import check_requirement
from .passes.base import PassSpec
from .rv.check import check_trace_membership
from .server.client import ServerClient
from .translator.extractor import ExtractorConfig, ModelExtractor
from .translator.rules import ChannelConvention

#: version of the public surface declared by ``__all__`` below; bumped only
#: when a documented entry point or :class:`Verdict`'s canonical JSON changes
#: incompatibly
API_VERSION = 1

__all__ = [
    "API_VERSION",
    "Verdict",
    "check_refinement",
    "check_property",
    "check_deadlock",
    "check_divergence",
    "check_determinism",
    "check_trace",
    "execute_check",
    "verify_requirement",
    "verify_requirements",
    "verify_traces",
    "extract_model",
    "learn_model",
    "server_client",
]


class Verdict:
    """The canonical outcome of one executed check.

    A thin, stable view over the runtime's wire-format result: the v1 API
    returns this one type from every execution entry point regardless of
    mode (inline, worker pool, ``cspserve``, result-cache hit).  The
    canonical fields -- ``check_id``, ``verdict``, ``name``,
    ``counterexample``, ``states_explored``, ``transitions_explored``,
    ``error`` -- are run-invariant: :meth:`to_json` produces byte-identical
    lines for the same check in every mode, which is what the conformance
    corpus and CI ``cmp`` gates pin.  Run-varying diagnostics
    (``duration_ms``, ``worker_pid``, ``profile``) are carried but excluded
    from the canonical surface.
    """

    __slots__ = ("_job",)

    def __init__(self, job) -> None:
        self._job = job

    @classmethod
    def from_job_result(cls, job) -> "Verdict":
        """Wrap a :class:`~repro.exec.spec.JobResult` from the runtime."""
        return cls(job)

    # -- canonical fields ----------------------------------------------------

    @property
    def check_id(self) -> Optional[str]:
        return self._job.check_id

    @property
    def verdict(self) -> str:
        """``"PASS"``, ``"FAIL"``, ``"ERROR"``, ``"TIMEOUT"`` or ``"CANCELLED"``."""
        return self._job.verdict

    @property
    def name(self) -> Optional[str]:
        return self._job.name

    @property
    def counterexample(self) -> Optional[Dict[str, Any]]:
        """The violation document (kind, trace, description, extras), if any."""
        return self._job.counterexample

    @property
    def states_explored(self) -> int:
        return self._job.states_explored

    @property
    def transitions_explored(self) -> int:
        return self._job.transitions_explored

    @property
    def error(self) -> Optional[str]:
        return self._job.error

    @property
    def passed(self) -> bool:
        return self._job.passed

    # -- run-varying diagnostics ---------------------------------------------

    @property
    def index(self) -> int:
        return self._job.index

    @property
    def duration_ms(self) -> float:
        return self._job.duration_ms

    @property
    def worker_pid(self) -> Optional[int]:
        return self._job.worker_pid

    @property
    def profile(self) -> Optional[Dict[str, Any]]:
        return self._job.profile

    @property
    def job_result(self):
        """The underlying :class:`~repro.exec.spec.JobResult`."""
        return self._job

    # -- canonical JSON ------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The run-invariant document (see the class docstring)."""
        return self._job.canonical()

    def canonical_line(self) -> str:
        """:meth:`canonical` as one sorted-key JSON line (no newline)."""
        return self._job.canonical_line()

    def to_json(self) -> str:
        """The documented stable serialisation: alias of :meth:`canonical_line`."""
        return self.canonical_line()

    def summary(self) -> str:
        """A one-line human-readable account of the outcome."""
        return self._job.summary()

    def __repr__(self) -> str:
        return "Verdict({!r}, {!r})".format(self.check_id, self.verdict)


def _pipeline(
    env: Optional[Environment],
    max_states: int,
    passes: PassSpec,
    on_the_fly: bool,
    cache: Optional[CompilationCache],
    table,
    obs: Optional[Tracer],
) -> VerificationPipeline:
    return VerificationPipeline(
        env if env is not None else Environment(),
        table=table,
        cache=cache,
        max_states=max_states,
        on_the_fly=on_the_fly,
        passes=passes,
        obs=obs,
    )


def check_refinement(
    spec: Process,
    impl: Process,
    model: str = "T",
    *,
    env: Optional[Environment] = None,
    name: Optional[str] = None,
    max_states: int = DEFAULT_STATE_LIMIT,
    passes: PassSpec = "default",
    on_the_fly: bool = True,
    cache: Optional[CompilationCache] = None,
    table=None,
    obs: Optional[Tracer] = None,
) -> CheckResult:
    """Discharge ``spec [model= impl`` (*model* is ``"T"``, ``"F"`` or ``"FD"``).

    One :class:`~repro.engine.pipeline.VerificationPipeline` built from the
    options, then its :meth:`~repro.engine.pipeline.VerificationPipeline.
    refinement`: the same call the CSPm ``assert`` evaluator, the executor
    and the requirement checks of Table III make on pipelines they build
    themselves.
    """
    pipeline = _pipeline(env, max_states, passes, on_the_fly, cache, table, obs)
    return pipeline.refinement(spec, impl, model, name)


def check_property(
    term: Process,
    property_name: str,
    *,
    env: Optional[Environment] = None,
    name: Optional[str] = None,
    max_states: int = DEFAULT_STATE_LIMIT,
    passes: PassSpec = "default",
    cache: Optional[CompilationCache] = None,
    table=None,
    obs: Optional[Tracer] = None,
) -> CheckResult:
    """Discharge ``term :[property]`` -- ``"deadlock free"``,
    ``"divergence free"`` or ``"deterministic"``."""
    pipeline = _pipeline(env, max_states, passes, True, cache, table, obs)
    return pipeline.property_check(term, property_name, name)


def check_deadlock(term: Process, **kwargs) -> CheckResult:
    """Is *term* deadlock free?  Keyword options as :func:`check_property`."""
    return check_property(term, "deadlock free", **kwargs)


def check_divergence(term: Process, **kwargs) -> CheckResult:
    """Is *term* divergence free?  Keyword options as :func:`check_property`."""
    return check_property(term, "divergence free", **kwargs)


def check_determinism(term: Process, **kwargs) -> CheckResult:
    """Is *term* deterministic?  Keyword options as :func:`check_property`."""
    return check_property(term, "deterministic", **kwargs)


def check_trace(
    spec: Process,
    events,
    *,
    env: Optional[Environment] = None,
    name: Optional[str] = None,
    lines=None,
    max_states: int = DEFAULT_STATE_LIMIT,
    passes: PassSpec = "default",
    cache: Optional[CompilationCache] = None,
    obs: Optional[Tracer] = None,
) -> CheckResult:
    """Is the logged trace *events* a trace of *spec*?  (Trace membership.)

    The runtime-verification primitive: *spec* is normalised once and the
    events (any iterable -- a generator streams a huge log without
    materialising it) walk the deterministic automaton one by one, so the
    first non-conforming event yields a counterexample carrying its
    position and, when *lines* gives per-event source lines, its log-line
    provenance.  Membership is prefix-closed: a log cut off mid-session
    still passes.
    """
    return check_trace_membership(
        spec,
        events,
        env=env,
        name=name,
        lines=lines,
        max_states=max_states,
        passes=passes,
        cache=cache,
        obs=obs,
    )


def execute_check(
    spec,
    *,
    cache_dir: Optional[str] = None,
    result_cache_dir: Optional[str] = None,
    profile: bool = False,
) -> Verdict:
    """Execute one :class:`~repro.exec.spec.CheckSpec` through the runtime.

    The programmatic spelling of what every entry point (inline batch,
    ``cspbatch`` workers, the ``cspserve`` daemon) does per check: run the
    spec through :func:`repro.exec.runtime.execute_cached` and return its
    canonical outcome as a :class:`Verdict`.  *result_cache_dir* names a
    content-addressed verdict store -- an identical spec already discharged
    by any mode answers from disk without re-verifying.
    """
    return Verdict.from_job_result(
        execute_cached(
            spec,
            cache_dir=cache_dir,
            profile=profile,
            result_cache=open_result_cache(result_cache_dir),
        )
    )


def verify_requirement(
    req_id: str,
    *,
    passes: PassSpec = "default",
    obs: Optional[Tracer] = None,
) -> CheckResult:
    """Discharge one requirement of the paper's Table III (``"R01"``..``"R05"``).

    Each requirement builds its session system and specification, then runs
    a trace refinement on a pipeline over the requirements module's shared
    structural cache, as :func:`check_refinement` would.
    """
    return check_requirement(req_id, passes=passes, obs=obs)


def verify_requirements(
    req_ids=None,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    result_cache_dir: Optional[str] = None,
    obs: Optional[Tracer] = None,
):
    """Discharge several Table III requirements as one batch.

    *req_ids* defaults to every requirement (``R01``..``R05``).  With
    ``jobs > 1`` the checks run on a pool of warm worker processes (crash
    and timeout containment per job); *cache_dir* names a shared on-disk
    compilation cache so workers and later sessions reuse each other's
    compiled session systems, and *result_cache_dir* a verdict store that
    answers already-discharged requirements without re-verifying.  Returns
    a :class:`~repro.batch.executor.BatchReport` whose results arrive in
    requirement order regardless of scheduling.
    """
    return run_batch(
        requirement_specs(req_ids),
        jobs=jobs,
        timeout=timeout,
        cache_dir=cache_dir,
        result_cache_dir=result_cache_dir,
        obs=obs,
        inline=jobs <= 1 and cache_dir is None,
    )


def verify_traces(
    manifest: Union[str, Dict[str, Any]],
    *,
    base_dir: Optional[str] = None,
    jobs: int = 0,
    timeout: Optional[float] = None,
    result_cache_dir: Optional[str] = None,
    server: Optional[str] = None,
    tenant: Optional[str] = None,
    obs: Optional[Tracer] = None,
) -> List[Verdict]:
    """Check a whole fleet of logs: the programmatic ``csprv``.

    *manifest* is an rv manifest -- a path (relative log/dbc entries then
    resolve against its directory) or an already-loaded document (they
    resolve against *base_dir*, default the working directory).  Every log
    becomes one ``kind: "trace"`` check executed inline (``jobs=0``), over
    a local worker pool, or by a running ``cspserve`` daemon
    (``server="http://..."``); *result_cache_dir* memoises verdicts across
    calls and modes.  Returns one :class:`Verdict` per log **in manifest
    order** -- the same canonical bytes in every mode.
    """
    # deferred: at module level, ``import repro`` would load repro.rv.cli
    # and repro.batch.cli, and ``python -m`` of either CLI would then warn
    # (runpy's RuntimeWarning) that the module is already in sys.modules
    from .rv.cli import load_rv_manifest, specs_from_manifest

    if isinstance(manifest, str):
        doc = load_rv_manifest(manifest)
        if base_dir is None:
            base_dir = os.path.dirname(manifest) or "."
    else:
        doc = manifest
    specs = specs_from_manifest(doc, base_dir if base_dir is not None else ".")
    if server is not None:
        with server_client(server) as client:
            results = client.run_manifest(specs, tenant=tenant, timeout=timeout)
    else:
        results = run_batch(
            specs,
            jobs=jobs,
            timeout=timeout,
            result_cache_dir=result_cache_dir,
            obs=obs,
            inline=jobs == 0,
        ).results
    return [Verdict.from_job_result(job) for job in results]


def server_client(url: str, *, http_timeout: Optional[float] = None):
    """A client for a running ``cspserve`` daemon (verification as a service).

    Returns a :class:`~repro.server.client.ServerClient`; ``.check(spec)``
    submits one :class:`~repro.exec.spec.CheckSpec` and blocks on its
    verdict, ``.run_manifest(specs)`` submits a whole batch (results in
    manifest order, canonically byte-identical to a local ``cspbatch``
    run).  The daemon pays compilation once per distinct check across all
    clients -- identical in-flight submissions coalesce server-side.

    The client keeps its connections to the daemon open between requests:
    use it as a context manager (``with server_client(url) as client:``)
    or call ``client.close()`` when done.
    """
    return ServerClient(url, http_timeout=http_timeout)


def extract_model(
    capl_source: str,
    *,
    node: str = "ECU",
    in_channel: str = "send",
    out_channel: str = "rec",
    include_timers: bool = True,
):
    """Extract a CSPm implementation model from CAPL source text.

    Returns the translator's :class:`~repro.translator.extractor.
    ExtractionResult`; ``.script_text`` is the CSPm model, ``.load()``
    evaluates it for checking.
    """
    config = ExtractorConfig(
        convention=ChannelConvention(in_channel, out_channel),
        include_timers=include_timers,
    )
    return ModelExtractor(config).extract(capl_source, node)


def learn_model(
    capl_source: str,
    *,
    node: str = "ECU",
    message_specs: Optional[Dict[str, Any]] = None,
    teacher: str = "reference",
    depth: int = 8,
    max_rounds: int = 64,
    seed: Optional[int] = None,
    in_channel: str = "send",
    out_channel: str = "rec",
    obs: Optional[Tracer] = None,
):
    """Learn a model of *capl_source* by running it -- the black-box twin
    of :func:`extract_model`.

    Active automata learning (L*): the program is interpreted on the
    simulated bus and queried with membership words until the observation
    table converges.  ``teacher="reference"`` extracts a model from the
    same source and uses the refinement engine as the equivalence oracle
    -- any disagreement between extraction and the running program raises
    :class:`~repro.learn.DivergenceError` with a witness trace;
    ``teacher="bounded"`` stays fully black box and conformance-tests to
    *depth*.  *message_specs* maps message names to
    :class:`~repro.capl.interpreter.MessageSpec` (a parsed ``.dbc``'s
    :meth:`~repro.candb.model.Database.message_specs`); omitted, ids are
    derived deterministically from the source.

    Returns a :class:`~repro.learn.LearnResult`: the automaton as a
    :class:`~repro.csp.kernel.CompactLTS` plus canonical fingerprint,
    query statistics, and ``.to_process()`` for the CheckSpec plumbing.
    """
    # deferred: ``import repro`` does not load repro.learn
    from .learn import (
        CaplSimulatorSUL,
        ReferenceTeacher,
        derive_message_specs,
        learn,
    )

    if teacher not in ("reference", "bounded"):
        raise ValueError(
            "teacher must be 'reference' or 'bounded', not {!r}".format(teacher)
        )
    if message_specs is None:
        message_specs = derive_message_specs(capl_source)
    sul = CaplSimulatorSUL(
        capl_source,
        message_specs,
        node=node,
        in_channel=in_channel,
        out_channel=out_channel,
    )
    if teacher == "reference":
        model = extract_model(
            capl_source,
            node=node,
            in_channel=in_channel,
            out_channel=out_channel,
        ).load()
        reference = compile_lts(
            model.process(node), model.env, max_states=100_000
        )
        equivalence = ReferenceTeacher(reference, name="extracted:" + node)
    else:
        equivalence = None  # learn() conformance-tests to *depth*
    extra = {} if obs is None else {"obs": obs}
    return learn(
        sul,
        teacher=equivalence,
        max_rounds=max_rounds,
        depth=depth,
        seed=seed,
        **extra
    )
