"""The differential-oracle registry.

Each oracle pairs a seeded input generator with a *differential check*: two
independent computations of the same semantic fact that must agree.  A bug
in either side -- the engine, the normaliser, the emitter, the extractor --
shows up as a disagreement on some generated input, without anyone having
to predict the bug in advance.  This is the quickcheck analogue of the
conformance step in "Learn, Check, Test" (PAPERS.md): the code paths most
likely to hide soundness bugs are checked against redundant definitions.

The matrix (see ``docs/testing.md``):

========== ==============================================================
oracle      disagreement it detects
========== ==============================================================
laws        an algebraic law of CSP fails on the trace semantics
semantics   operational (LTS) and denotational trace sets diverge
normalise   normalisation loses traces, nondeterminism, or determinism
refinement  engine ``[T=`` verdict differs from the subset definition
lazy-eager  on-the-fly and eager refinement disagree (verdict, cex or counts)
kernel      the flat-array kernel diverges from the pre-refactor semantics
spine       a materialised composition spine differs from compile_lts
cache       a compilation-cache or trace-memo hit changes a verdict or cex
compression a semantic pass changes a verdict, counterexample or deadlock
batch       the batch wire format or executor changes a verdict or trace
result_cache a memoised verdict differs from a fresh execution's bytes
roundtrip   emitting CSPm and re-parsing changes the trace semantics
extractor   the CAPL interpreter exhibits a trace the extracted model lacks
learned_vs_extracted a black-box learned model and the extracted model disagree
========== ==============================================================

Every check raises :class:`OracleViolation` on disagreement and
:class:`Discard` on inputs outside its precondition (treated as a pass, the
``assume`` of classic QuickCheck).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..csp.events import Alphabet, Channel, Event
from ..csp.laws import LAW_OPERANDS, LAWS, check_law
from ..csp.lts import (
    StateSpaceLimitExceeded,
    compile_lts,
    reachable_visible_traces,
)
from ..csp.process import SKIP, STOP, Prefix, Process
from ..csp.traces import denotational_traces
from ..engine import CompilationCache, ProductLTS, VerificationPipeline
from ..fdr.counterexample import FailureCounterexample, TraceCounterexample
from ..fdr.normalise import NormalisedSpec, normalise
from ..rv.check import SPEC_MEMO, check_trace_membership
from . import gen as g
from .gen import CaplProgram, Gen

#: Trace bound for the process-term oracles: long enough to distinguish the
#: operators at the generated depths, small enough to enumerate.
BOUND = 4


class Discard(Exception):
    """The generated (or shrunk) input falls outside the oracle's precondition."""


class OracleViolation(AssertionError):
    """A differential check disagreed -- the fuzzer found a real divergence."""


class Oracle:
    """A named differential check with its input generator."""

    def __init__(
        self,
        name: str,
        description: str,
        guards: str,
        generator: Gen,
        check: Callable[[object], None],
    ) -> None:
        self.name = name
        self.description = description
        #: the module(s) whose correctness this oracle cross-checks
        self.guards = guards
        self.generator = generator
        self.check = check

    def generate(self, rng: random.Random):
        return self.generator(rng)

    def run_one(self, rng: random.Random) -> Optional[str]:
        """Generate one input and check it; the violation message, or None."""
        value = self.generate(rng)
        return self.violation(value)

    def violation(self, value) -> Optional[str]:
        """Run the check on an explicit input; the violation message, or None."""
        try:
            self.check(value)
        except Discard:
            return None
        except OracleViolation as failure:
            return str(failure)
        return None

    def fails_on(self, value) -> bool:
        """Shrinking predicate: does the oracle reject this input?"""
        try:
            return self.violation(value) is not None
        except Exception:
            # a candidate that crashes the toolchain outright is a different
            # defect; the shrinker must not wander onto it
            return False

    def __repr__(self) -> str:
        return "Oracle({!r})".format(self.name)


# -- shared generator pieces --------------------------------------------------------

_EVENTS = g.DEFAULT_EVENTS
_SIGMA = Alphabet(_EVENTS)
_PROCESSES = g.process_terms(_EVENTS)


def _traces(term: Process, bound: int = BOUND):
    return denotational_traces(term, None, bound)


# -- oracle: algebraic laws ---------------------------------------------------------


def _law_input() -> Gen:
    """A (law-name, operands) pair; operands follow LAW_OPERANDS signatures."""

    def draw(rng: random.Random):
        name = sorted(LAWS)[rng.randrange(len(LAWS))]
        operands = tuple(
            _PROCESSES(rng) if kind == "p" else g.sub_alphabets(_EVENTS)(rng)
            for kind in LAW_OPERANDS[name]
        )
        return (name, operands)

    return Gen(draw)


def check_laws(value) -> None:
    name, operands = value
    if name not in LAWS or len(operands) != len(LAW_OPERANDS[name]):
        raise Discard
    for kind, operand in zip(LAW_OPERANDS[name], operands):
        if kind == "p" and not isinstance(operand, Process):
            raise Discard
        if kind == "A" and not isinstance(operand, Alphabet):
            raise Discard
    if not check_law(name, *operands, max_length=BOUND):
        raise OracleViolation(
            "law {!r} fails on operands {!r}".format(name, operands)
        )


# -- oracle: operational vs denotational traces -------------------------------------


def check_semantics(term: Process) -> None:
    operational = reachable_visible_traces(compile_lts(term), BOUND)
    denotational = _traces(term)
    if operational != denotational:
        raise OracleViolation(
            "trace models disagree on {!r}: operational-only {}, "
            "denotational-only {}".format(
                term,
                sorted(operational - denotational),
                sorted(denotational - operational),
            )
        )


# -- oracle: normalisation ----------------------------------------------------------


def _normalised_traces(spec: NormalisedSpec, max_length: int):
    results = {()}
    frontier = [((), spec.initial)]
    for _ in range(max_length):
        next_frontier = []
        for trace, node in frontier:
            for evt, target in spec.afters[node].items():
                extended = trace + (evt,)
                if extended not in results:
                    results.add(extended)
                    if not evt.is_tick():
                        next_frontier.append((extended, target))
        frontier = next_frontier
    return results


def check_normalise(term: Process) -> None:
    lts = compile_lts(term)
    spec = normalise(lts)
    # tau-free and (by the dict type) deterministic
    for node in range(spec.node_count):
        if any(evt.is_tau() for evt in spec.afters[node]):
            raise OracleViolation(
                "normalised automaton of {!r} has a tau transition".format(term)
            )
    # the construction is deterministic: same input, same automaton
    again = normalise(lts)
    if (
        spec.afters_ids != again.afters_ids
        or spec.acceptance_bits != again.acceptance_bits
        or spec.members != again.members
    ):
        raise OracleViolation(
            "normalising {!r} twice produced different automata".format(term)
        )
    # trace-equivalent to the source term
    normalised = _normalised_traces(spec, BOUND)
    denotational = _traces(term)
    if normalised != denotational:
        raise OracleViolation(
            "normalisation changed the traces of {!r}: normalised-only {}, "
            "denotational-only {}".format(
                term,
                sorted(normalised - denotational),
                sorted(denotational - normalised),
            )
        )
    # idempotent at the trace level: re-normalising the determinised
    # automaton neither grows the node count nor changes the traces
    renormalised = normalise(spec.as_lts())
    if renormalised.node_count > spec.node_count:
        raise OracleViolation(
            "re-normalising the automaton of {!r} grew it from {} to {} "
            "nodes".format(term, spec.node_count, renormalised.node_count)
        )
    if _normalised_traces(renormalised, BOUND) != normalised:
        raise OracleViolation(
            "normalisation is not idempotent on {!r}".format(term)
        )


# -- oracle: engine verdict vs refinement definition --------------------------------


def check_refinement(value) -> None:
    spec, impl = value
    pipeline = VerificationPipeline()
    verdict = pipeline.refinement(spec, impl, "T")
    spec_traces = _traces(spec, BOUND + 1)
    impl_traces = _traces(impl, BOUND + 1)
    definition = impl_traces <= spec_traces
    if verdict.passed != definition:
        raise OracleViolation(
            "engine says {!r} [T= {!r} is {}, the subset definition says "
            "{}".format(spec, impl, verdict.passed, definition)
        )
    if not verdict.passed:
        violating = verdict.counterexample.full_trace
        bound = len(violating)
        if violating not in denotational_traces(impl, None, bound):
            raise OracleViolation(
                "counterexample {} is not a trace of the implementation "
                "{!r}".format(violating, impl)
            )
        if violating in denotational_traces(spec, None, bound):
            raise OracleViolation(
                "counterexample {} is permitted by the specification "
                "{!r}".format(violating, spec)
            )


# -- oracle: lazy vs eager refinement -----------------------------------------------


def _lazy_eager_input() -> Gen:
    return g.tuples(_PROCESSES, _PROCESSES, g.sampled_from(["T", "F"]))


def _genuine_counterexample(spec: Process, impl: Process, result, label: str) -> None:
    cex = result.counterexample
    if isinstance(cex, TraceCounterexample):
        violating = cex.full_trace
        bound = len(violating)
        if violating not in denotational_traces(impl, None, bound):
            raise OracleViolation(
                "{} counterexample {} is not an implementation trace of "
                "{!r}".format(label, violating, impl)
            )
        if violating in denotational_traces(spec, None, bound):
            raise OracleViolation(
                "{} counterexample {} is permitted by the specification "
                "{!r}".format(label, violating, spec)
            )
    elif isinstance(cex, FailureCounterexample):
        bound = len(cex.trace)
        if cex.trace not in denotational_traces(impl, None, bound):
            raise OracleViolation(
                "{} failure counterexample after {} is not an implementation "
                "trace of {!r}".format(label, cex.trace, impl)
            )


def check_lazy_eager(value) -> None:
    """The on-the-fly product and the eager LTS run the same search.

    Under compression and without it, the two must agree on the verdict,
    the counterexample and the explored-state and -transition counts (so
    on the whole ``summary()``), and any counterexample must be genuine.
    """
    spec, impl, model = value
    if model not in ("T", "F"):
        raise Discard
    for passes in ("default", "none"):
        lazy = VerificationPipeline(on_the_fly=True, passes=passes).refinement(
            spec, impl, model
        )
        eager = VerificationPipeline(on_the_fly=False, passes=passes).refinement(
            spec, impl, model
        )
        if (
            lazy.summary() != eager.summary()
            or lazy.states_explored != eager.states_explored
            or lazy.transitions_explored != eager.transitions_explored
        ):
            raise OracleViolation(
                "{!r} [{}= {!r} (passes {}): on-the-fly says {!r}, eager says "
                "{!r}".format(
                    spec, model, impl, passes, lazy.summary(), eager.summary()
                )
            )
        if not lazy.passed:
            _genuine_counterexample(spec, impl, lazy, "on-the-fly")
            _genuine_counterexample(spec, impl, eager, "eager")


# -- oracle: compilation cache ------------------------------------------------------


def check_cache(value) -> None:
    p, q, r = value
    # overlapping pairs force cache hits on the shared sides
    pairs = [(p, q), (p, r), (q, r), (p, q)]
    shared = VerificationPipeline()
    for model in ("T", "F"):
        for spec, impl in pairs:
            cached = shared.refinement(spec, impl, model)
            cold = VerificationPipeline().refinement(spec, impl, model)
            if cached.passed != cold.passed:
                raise OracleViolation(
                    "cache changed the {!r} [{}= {!r} verdict: shared-cache "
                    "run says {}, cold run says {}".format(
                        spec, model, impl, cached.passed, cold.passed
                    )
                )
            if not cached.passed:
                _genuine_counterexample(spec, impl, cached, "shared-cache")
                _genuine_counterexample(spec, impl, cold, "cold")
    _check_trace_memo((p, q, r))


#: bounded traces per spec the cache oracle walks through the trace memo
_MEMO_TRACES = 3


def _membership_traces(spec: Process) -> List[Tuple[Event, ...]]:
    """A few of *spec*'s bounded traces, each with one-event mutations."""
    members = sorted(_traces(spec), key=lambda trace: (-len(trace), str(trace)))
    chosen = []
    for trace in members[:_MEMO_TRACES]:
        chosen.append(trace)
        open_ended = not trace or not trace[-1].is_tick()
        for event in _EVENTS[:2]:
            if open_ended:
                chosen.append(trace + (event,))
            if trace and trace[-1] != event:
                chosen.append(trace[:-1] + (event,))
    return chosen


def _linear(trace: Tuple[Event, ...]) -> Process:
    """The process performing exactly *trace* (ending in SKIP after a tick)."""
    if trace and trace[-1].is_tick():
        impl, events = SKIP, trace[:-1]
    else:
        impl, events = STOP, trace
    for event in reversed(events):
        impl = Prefix(event, impl)
    return impl


def _check_trace_memo(specs: Sequence[Process]) -> None:
    """Trace membership agrees across memo misses, hits and a cleared memo.

    The first round fills the memo (each spec misses once), the second
    walks every trace again on hits among the other specs' entries, and
    the last clears the memo before every walk.
    """
    jobs = [(spec, trace) for spec in specs for trace in _membership_traces(spec)]
    SPEC_MEMO.clear()
    rounds = [[check_trace_membership(spec, trace) for spec, trace in jobs]]
    rounds.append([check_trace_membership(spec, trace) for spec, trace in jobs])
    cleared = []
    for spec, trace in jobs:
        SPEC_MEMO.clear()
        cleared.append(check_trace_membership(spec, trace))
    rounds.append(cleared)
    for (spec, trace), results in zip(jobs, zip(*rounds)):
        outcomes = []
        for result in results:
            violation = result.counterexample
            if violation is not None:
                violation = (violation.position, violation.trace, violation.forbidden)
            outcomes.append((result.passed, violation))
        if len(set(outcomes)) != 1:
            raise OracleViolation(
                "trace memo changed the membership of {} in {!r}: first walk "
                "{}, memo hit {}, cleared memo {}".format(trace, spec, *outcomes)
            )
        impl = _linear(trace)
        refines = VerificationPipeline().refinement(spec, impl, "T").passed
        if refines != results[0].passed:
            raise OracleViolation(
                "membership of {} in {!r} is {}, but {!r} [T= {!r} is "
                "{}".format(trace, spec, results[0].passed, spec, impl, refines)
            )


# -- oracle: compression passes -----------------------------------------------------

#: the pass configurations cross-checked against the uncompressed baseline:
#: every pass alone, the default pipeline, and the trace-only normalisation
#: combination (silently skipped by the plan for failures-model checks).
_PASS_COMBOS: Tuple[str, ...] = (
    "dead",
    "tau_loop",
    "diamond",
    "sbisim",
    "default",
    "normal,sbisim",
)


def _compression_input() -> Gen:
    return g.tuples(_PROCESSES, _PROCESSES, g.sampled_from(["T", "F"]))


def check_compression(value) -> None:
    spec, impl, model = value
    if model not in ("T", "F"):
        raise Discard
    baseline = VerificationPipeline(passes="none").refinement(spec, impl, model)
    if not baseline.passed:
        _genuine_counterexample(spec, impl, baseline, "uncompressed")
    baseline_deadlock = VerificationPipeline(passes="none").property_check(
        impl, "deadlock free"
    )
    for combo in _PASS_COMBOS:
        compressed = VerificationPipeline(passes=combo).refinement(spec, impl, model)
        if compressed.passed != baseline.passed:
            raise OracleViolation(
                "{!r} [{}= {!r}: passes={!r} says {}, uncompressed says "
                "{}".format(spec, model, impl, combo, compressed.passed, baseline.passed)
            )
        if not compressed.passed:
            _genuine_counterexample(
                spec, impl, compressed, "passes={}".format(combo)
            )
        deadlock = VerificationPipeline(passes=combo).property_check(
            impl, "deadlock free"
        )
        if deadlock.passed != baseline_deadlock.passed:
            raise OracleViolation(
                "deadlock-freedom of {!r}: passes={!r} says {}, uncompressed "
                "says {}".format(
                    impl, combo, deadlock.passed, baseline_deadlock.passed
                )
            )


# -- oracle: batch executor vs direct pipeline --------------------------------------


def _batch_input() -> Gen:
    return g.tuples(_PROCESSES, _PROCESSES, g.sampled_from(["T", "F"]))


def check_batch(value) -> None:
    """The batch executor's wire format and dispatch change nothing.

    Runs the same checks twice: directly through a pipeline, and as
    :class:`~repro.exec.spec.CheckSpec` documents round-tripped through
    the manifest encoding and discharged by
    :func:`~repro.exec.runtime.execute_spec` (the sequential reference
    the pooled executor is itself held to).  Verdicts and counterexample
    traces must agree.
    """
    from ..exec.spec import CheckSpec, FAIL, PASS

    spec, impl, model = value
    if model not in ("T", "F"):
        raise Discard
    direct_refine = VerificationPipeline().refinement(spec, impl, model)
    direct_deadlock = VerificationPipeline().property_check(impl, "deadlock free")
    for check_spec, direct in (
        (CheckSpec.refinement(spec, impl, model), direct_refine),
        (CheckSpec.property_check(impl, "deadlock free"), direct_deadlock),
    ):
        batched = _execute_roundtripped(check_spec)
        expected = PASS if direct.passed else FAIL
        if batched.verdict != expected:
            raise OracleViolation(
                "batch executor disagrees on {!r}: direct says {}, batch says "
                "{}".format(check_spec, expected, batched.verdict)
            )
        if batched.verdict == FAIL:
            direct_trace = [str(event) for event in direct.counterexample.trace]
            if batched.counterexample["trace"] != direct_trace:
                raise OracleViolation(
                    "batch counterexample trace {} differs from the direct "
                    "pipeline's {} on {!r}".format(
                        batched.counterexample["trace"], direct_trace, check_spec
                    )
                )


def _execute_roundtripped(check_spec):
    from ..exec.runtime import execute_spec
    from ..exec.spec import CheckSpec

    return execute_spec(CheckSpec.from_doc(check_spec.to_doc()))


# -- oracle: result cache vs fresh execution ----------------------------------------

#: directory the result_cache oracle persists verdicts in (None = a fresh
#: temporary directory per generated input); ``cspfuzz --result-cache DIR``
#: points it at a long-lived store so the oracle also cross-checks entries
#: written by earlier campaigns and other tools
RESULT_CACHE_DIR: Optional[str] = None


def check_result_cache(value) -> None:
    """Verdict memoisation never changes the canonical result bytes.

    Runs the same check three ways -- fresh (no cache), cold through the
    memoised path (miss + write-through), and warm (served from the store)
    -- and requires byte-identical canonical documents from all three,
    with the warm pass being a genuine cache hit.
    """
    import tempfile

    from ..exec.resultcache import ResultCache
    from ..exec.runtime import execute_cached, execute_spec
    from ..exec.spec import CheckSpec

    spec, impl, model = value
    if model not in ("T", "F"):
        raise Discard

    def run(directory: str) -> None:
        check_spec = CheckSpec.refinement(spec, impl, model)
        fresh = execute_spec(check_spec)
        cache = ResultCache(directory)
        cold = execute_cached(check_spec, result_cache=cache)
        hits_after_cold = cache.hits
        warm = execute_cached(check_spec, result_cache=cache)
        if cache.hits == hits_after_cold:
            raise OracleViolation(
                "memoised re-execution of {!r} did not hit the result "
                "cache (stats: {})".format(check_spec, cache.stats())
            )
        lines = {
            "fresh": fresh.canonical_line(),
            "cold": cold.canonical_line(),
            "warm": warm.canonical_line(),
        }
        if len(set(lines.values())) != 1:
            raise OracleViolation(
                "result cache changed the canonical bytes of {!r}: "
                "{}".format(check_spec, lines)
            )

    if RESULT_CACHE_DIR is not None:
        run(RESULT_CACHE_DIR)
    else:
        with tempfile.TemporaryDirectory(prefix="qc-resultcache-") as tmp:
            run(tmp)


# -- oracle: CSPm emit/parse round-trip ---------------------------------------------

_SEND = Channel("send", ["reqSw", "rptSw"])
_REC = Channel("rec", ["reqSw", "rptSw"])
_CHANNEL_EVENTS = tuple(_SEND.events()) + tuple(_REC.events())
_ROUNDTRIP_HEADER = "datatype msgs = reqSw | rptSw\nchannel send, rec : msgs\n"


def check_roundtrip(term: Process) -> None:
    from ..cspm import emit_process, load

    text = _ROUNDTRIP_HEADER + "P = " + emit_process(
        term, {"send": _SEND, "rec": _REC}
    )
    model = load(text)
    reloaded = model.env.resolve("P")
    original = _traces(term)
    reparsed = denotational_traces(reloaded, model.env, BOUND)
    if original != reparsed:
        raise OracleViolation(
            "emit/parse round-trip changed the traces of {!r}; emitted text: "
            "{}".format(term, text.splitlines()[-1])
        )


# -- oracle: CAPL interpreter replay vs extracted model -----------------------------

from ..capl.interpreter import MessageSpec  # noqa: E402  (placed with its oracle)

_CAPL_SPECS: Dict[str, MessageSpec] = {
    "reqA": MessageSpec(0x201, 1),
    "reqB": MessageSpec(0x202, 1),
    "rspX": MessageSpec(0x301, 1),
    "rspY": MessageSpec(0x302, 1),
}


def simulate_capl(source: str, stimuli: Sequence[str]) -> List[Event]:
    """Run the program on the simulated bus; the observed CSP-style trace."""
    from ..canbus import CanBus, CanFrame, Scheduler
    from ..capl import CaplNode

    scheduler = Scheduler()
    bus = CanBus(scheduler)
    node = CaplNode("ECU", bus, source, _CAPL_SPECS)
    trace: List[Event] = []
    for request in stimuli:
        spec = _CAPL_SPECS[request]
        before = len(bus.log)
        node.deliver(CanFrame(spec.can_id, [0] * spec.dlc, name=request))
        scheduler.run()  # flush this handler's transmissions
        trace.append(Event("send", (request,)))
        for entry in bus.log.entries[before:]:
            trace.append(Event("rec", (entry.frame.name,)))
    return trace


def check_extractor(value) -> None:
    from ..translator import ModelExtractor

    program, stimuli = value
    if not isinstance(program, CaplProgram) or not program.handlers:
        raise Discard
    handled = set(program.handled())
    if any(request not in handled for request in stimuli):
        # shrinking may drop the handler a stimulus targets; such inputs are
        # outside the oracle's precondition, not failures
        raise Discard
    source = program.render()
    result = ModelExtractor().extract(source, "ECU")
    model = result.load()
    lts = compile_lts(model.process("ECU"), model.env, max_states=100_000)
    trace = simulate_capl(source, stimuli)
    if lts.walk(trace) is None:
        raise OracleViolation(
            "extracted model rejects a real behaviour of the program: trace "
            "{} of\n{}".format([str(e) for e in trace], source)
        )


# -- oracle: black-box learned model vs extracted model -----------------------------


def check_learned_vs_extracted(program) -> None:
    """Learning the black box reproduces the white-box extraction exactly.

    Two fully independent routes to a model of the same CAPL program: the
    syntax-directed extractor reads the source, while L* learning
    (:mod:`repro.learn`) only ever *runs* it on the simulated bus.  On the
    extraction-precise fragment (:func:`~repro.quickcheck.gen.capl_precise_programs`)
    the two must be bidirectionally trace-equivalent; the reference
    teacher detects any disagreement during learning as a
    :class:`~repro.learn.DivergenceError` carrying a concrete witness
    trace, pinning the bug to whichever side mispredicts the simulator.
    """
    from ..fdr.refine import check_trace_refinement
    from ..learn import CaplSimulatorSUL, LearnError, ReferenceTeacher, learn
    from ..translator import ModelExtractor

    if not isinstance(program, CaplProgram) or not program.handlers:
        raise Discard
    source = program.render()
    result = ModelExtractor().extract(source, "ECU")
    model = result.load()
    reference = compile_lts(model.process("ECU"), model.env, max_states=100_000)
    sul = CaplSimulatorSUL(source, _CAPL_SPECS)
    try:
        learned = learn(
            sul, teacher=ReferenceTeacher(reference), max_rounds=64
        )
    except LearnError as failure:
        # DivergenceError (the differential signal) and non-convergence both
        # mean the two model-building routes disagree about this program
        raise OracleViolation(
            "learned and extracted models disagree on\n{}\n{}".format(
                source, failure
            )
        ) from failure
    # belt and braces: re-check both [T= directions on the frozen result
    sound = check_trace_refinement(reference, learned.lts)
    complete = check_trace_refinement(learned.lts, reference)
    if not sound.passed:
        raise OracleViolation(
            "converged learned model exhibits {} which the extracted model "
            "forbids, on\n{}".format(
                [str(e) for e in sound.counterexample.full_trace], source
            )
        )
    if not complete.passed:
        raise OracleViolation(
            "extracted model admits {} which the learned model lacks, "
            "on\n{}".format(
                [str(e) for e in complete.counterexample.full_trace], source
            )
        )


# -- oracle: flat-array kernel vs pre-refactor reference ----------------------------


def _kernel_input() -> Gen:
    return g.tuples(_PROCESSES, _PROCESSES, g.sampled_from(["T", "F"]))


def check_kernel(value) -> None:
    """The CSR kernel path agrees with the frozen tuple-list semantics.

    Structure, bounded trace sets, refinement verdict, counterexample and
    explored-pair count must all coincide -- the kernel refactor promised
    byte-identical behaviour, and this is where the fuzzer holds it to that.
    """
    from ..csp.events import AlphabetTable
    from ..fdr.refine import check_failures_refinement, check_trace_refinement
    from .reference import (
        reference_compile,
        reference_refinement,
        reference_visible_traces,
    )

    spec, impl, model = value
    ktable, rtable = AlphabetTable(), AlphabetTable()
    kernel_spec = compile_lts(spec, table=ktable)
    kernel_impl = compile_lts(impl, table=ktable)
    ref_spec = reference_compile(spec, table=rtable)
    ref_impl = reference_compile(impl, table=rtable)

    for label, kernel_lts, ref_lts in (
        ("spec", kernel_spec, ref_spec),
        ("impl", kernel_impl, ref_impl),
    ):
        if (
            kernel_lts.state_count != ref_lts.state_count
            or kernel_lts.initial != ref_lts.initial
        ):
            raise OracleViolation(
                "kernel and reference compile of the {} {!r} disagree on "
                "shape: {} vs {} states".format(
                    label,
                    spec if label == "spec" else impl,
                    kernel_lts.state_count,
                    ref_lts.state_count,
                )
            )
        for state in range(ref_lts.state_count):
            kernel_edges = [
                (str(ktable.event_of(eid)), target)
                for eid, target in kernel_lts.successors_ids(state)
            ]
            ref_edges = [
                (str(rtable.event_of(eid)), target)
                for eid, target in ref_lts.successors_ids(state)
            ]
            if kernel_edges != ref_edges:
                raise OracleViolation(
                    "kernel and reference compile of the {} {!r} disagree at "
                    "state {}: {} vs {}".format(
                        label,
                        spec if label == "spec" else impl,
                        state,
                        kernel_edges,
                        ref_edges,
                    )
                )
        if reachable_visible_traces(kernel_lts, BOUND) != reference_visible_traces(
            ref_lts, BOUND
        ):
            raise OracleViolation(
                "kernel and reference trace sets diverge on the {} "
                "{!r}".format(label, spec if label == "spec" else impl)
            )

    checker = check_trace_refinement if model == "T" else check_failures_refinement
    engine = checker(kernel_spec, kernel_impl)
    reference = reference_refinement(ref_spec, ref_impl, model)
    if engine.passed != reference.passed:
        raise OracleViolation(
            "{!r} [{}= {!r}: kernel engine says {}, reference semantics say "
            "{}".format(spec, model, impl, engine.passed, reference.passed)
        )
    if engine.passed:
        return
    cex = engine.counterexample
    if tuple(cex.trace) != reference.trace:
        raise OracleViolation(
            "{!r} [{}= {!r}: kernel counterexample trace {} differs from the "
            "reference trace {}".format(
                spec, model, impl, tuple(cex.trace), reference.trace
            )
        )
    if engine.states_explored != reference.states_explored:
        raise OracleViolation(
            "{!r} [{}= {!r}: kernel explored {} pairs, the reference "
            "explored {}".format(
                spec,
                model,
                impl,
                engine.states_explored,
                reference.states_explored,
            )
        )
    if isinstance(cex, TraceCounterexample) and reference.event is not None:
        if str(cex.forbidden) != str(reference.event):
            raise OracleViolation(
                "{!r} [{}= {!r}: kernel violating event {} differs from the "
                "reference event {}".format(
                    spec, model, impl, cex.forbidden, reference.event
                )
            )
    if isinstance(cex, FailureCounterexample):
        if {str(e) for e in cex.offered} != {str(e) for e in reference.offered}:
            raise OracleViolation(
                "{!r} [F= {!r}: kernel failure offers {} but the reference "
                "offers {}".format(spec, impl, cex.offered, reference.offered)
            )


# -- oracle: materialised composition spines ----------------------------------------


def _spine_input() -> Gen:
    return g.tuples(g.spine_terms(_EVENTS), g.sampled_from(["T", "FD"]), g.booleans())


def check_spine(value) -> None:
    """Materialising a spine as a ProductLTS builds what ``compile_lts`` builds.

    Two pipelines prepare the same generated composition; one compiles the
    prepared term through :meth:`VerificationPipeline.compile` (which
    materialises the product), the other through the SOS compiler.  The CSR
    arrays, the events behind every id (the two tables must end up
    identical), the term behind every state, and the budgets at which
    :class:`StateSpaceLimitExceeded` is raised must all coincide.  The
    budgets are swept in ascending order, one pipeline each over one
    shared cache, so every refusal comes from the explorer and not from a
    cached automaton.  With
    *foreign* set, a third pipeline compresses the components first into a
    shared cache, so both sides compose leaves from a foreign id space.
    """
    term, model, foreign = value
    shared = CompilationCache() if foreign else None
    if foreign:
        VerificationPipeline(cache=shared).plan.prepare(term, model)
    product_side = VerificationPipeline(cache=shared)
    sos_side = VerificationPipeline(cache=shared)
    prepared = product_side.plan.prepare(term, model).term
    reference_term = sos_side.plan.prepare(term, model).term
    if ProductLTS.for_term(prepared, product_side.table).sos:
        raise Discard
    materialised = product_side.compile(prepared)
    reference = compile_lts(
        reference_term, sos_side.env, sos_side.max_states, sos_side.table
    )
    if materialised.csr_arrays() != reference.csr_arrays():
        raise OracleViolation(
            "materialising {!r} (model {}) built a different automaton than "
            "compile_lts: {} vs {} states, {} vs {} edges".format(
                term,
                model,
                materialised.state_count,
                reference.state_count,
                materialised.transition_count,
                reference.transition_count,
            )
        )
    if product_side.table.events() != sos_side.table.events():
        raise OracleViolation(
            "materialising {!r} (model {}) interned {} where compile_lts "
            "interned {}".format(
                term, model, product_side.table.events(), sos_side.table.events()
            )
        )
    for state in range(reference.state_count):
        if materialised.terms[state] != reference.terms[state]:
            raise OracleViolation(
                "materialising {!r} (model {}): state {} stands for {!r}, "
                "compile_lts says {!r}".format(
                    term,
                    model,
                    state,
                    materialised.terms[state],
                    reference.terms[state],
                )
            )
    states = reference.state_count
    sweep = CompilationCache()
    for budget in sorted({0, 1, states - 1, states}):
        product_fits = _fits(
            lambda: VerificationPipeline(
                table=product_side.table, cache=sweep, max_states=budget
            ).compile(prepared)
        )
        sos_fits = _fits(
            lambda: compile_lts(reference_term, sos_side.env, budget, sos_side.table)
        )
        if product_fits != sos_fits:
            raise OracleViolation(
                "{!r} (model {}) at a budget of {} states: the materialised "
                "product fits {}, compile_lts fits {}".format(
                    term, model, budget, product_fits, sos_fits
                )
            )


def _fits(compile_at: Callable[[], object]) -> bool:
    """Does the compilation finish within its state budget?"""
    try:
        compile_at()
    except StateSpaceLimitExceeded:
        return False
    return True


# -- the registry -------------------------------------------------------------------

ORACLES: Dict[str, Oracle] = {}


def _register(oracle: Oracle) -> Oracle:
    ORACLES[oracle.name] = oracle
    return oracle


_register(
    Oracle(
        "laws",
        "every registered algebraic law holds as bounded trace equivalence",
        "repro.csp.laws, repro.csp.traces",
        _law_input(),
        check_laws,
    )
)
_register(
    Oracle(
        "semantics",
        "operational (LTS) and denotational trace sets agree",
        "repro.csp.semantics, repro.csp.lts, repro.csp.traces",
        _PROCESSES,
        check_semantics,
    )
)
_register(
    Oracle(
        "normalise",
        "normalisation is deterministic, tau-free, trace-preserving and idempotent",
        "repro.fdr.normalise",
        _PROCESSES,
        check_normalise,
    )
)
_register(
    Oracle(
        "refinement",
        "engine [T= verdict and counterexample match the subset definition",
        "repro.fdr.refine, repro.engine.pipeline",
        g.process_pairs(_EVENTS),
        check_refinement,
    )
)
_register(
    Oracle(
        "lazy-eager",
        "on-the-fly and eager refinement agree on verdicts, counterexamples "
        "and explored counts",
        "repro.engine.product (ProductLTS), repro.fdr.refine, "
        "repro.engine.pipeline",
        _lazy_eager_input(),
        check_lazy_eager,
    )
)
_register(
    Oracle(
        "kernel",
        "flat-array kernel and pre-refactor reference semantics agree",
        "repro.csp.kernel, repro.csp.lts, repro.fdr.refine",
        _kernel_input(),
        check_kernel,
    )
)
_register(
    Oracle(
        "spine",
        "a materialised composition spine equals the SOS-compiled automaton",
        "repro.engine.product, repro.engine.pipeline",
        _spine_input(),
        check_spine,
    )
)
_register(
    Oracle(
        "cache",
        "compilation-cache and trace-memo hits never change a verdict or "
        "counterexample",
        "repro.engine.cache, repro.rv.check",
        g.tuples(_PROCESSES, _PROCESSES, _PROCESSES),
        check_cache,
    )
)
_register(
    Oracle(
        "compression",
        "semantic passes never change a verdict, counterexample or deadlock",
        "repro.passes, repro.engine.plan",
        _compression_input(),
        check_compression,
    )
)
_register(
    Oracle(
        "batch",
        "batch wire format and executor agree with the direct pipeline",
        "repro.exec.spec, repro.exec.runtime",
        _batch_input(),
        check_batch,
    )
)
_register(
    Oracle(
        "result_cache",
        "memoised verdicts are byte-identical to fresh executions",
        "repro.exec.resultcache, repro.exec.runtime",
        _batch_input(),
        check_result_cache,
    )
)
_register(
    Oracle(
        "roundtrip",
        "CSPm emit -> parse -> evaluate preserves the trace semantics",
        "repro.cspm.emitter, repro.cspm.parser, repro.cspm.evaluator",
        g.process_terms(_CHANNEL_EVENTS),
        check_roundtrip,
    )
)
_register(
    Oracle(
        "extractor",
        "every simulated CAPL behaviour is admitted by the extracted model",
        "repro.translator.extractor, repro.capl.interpreter",
        g.capl_cases(),
        check_extractor,
    )
)
_register(
    Oracle(
        "learned_vs_extracted",
        "black-box learned and extracted models are trace-equivalent",
        "repro.learn, repro.translator.extractor",
        g.capl_precise_programs(),
        check_learned_vs_extracted,
    )
)


def get_oracles(spec: str = "all") -> List[Oracle]:
    """Resolve ``--oracle`` syntax: ``all`` or a comma-separated name list."""
    if spec == "all":
        return [ORACLES[name] for name in sorted(ORACLES)]
    oracles = []
    for name in spec.split(","):
        name = name.strip()
        if name not in ORACLES:
            raise KeyError(
                "unknown oracle {!r}; known: {}".format(name, ", ".join(sorted(ORACLES)))
            )
        oracles.append(ORACLES[name])
    return oracles
