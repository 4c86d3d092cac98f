"""X5 -- flat-array kernel throughput and kernel-vs-legacy divergence gates.

The CSR kernel refactor (contiguous ``array('q')`` storage, span-based hot
loops, on-the-fly product composition) is a pure representation change: it
must be faster, and it must change *nothing* observable.  This bench pins
both halves:

* **Throughput** -- states/sec of the eager compiler and explored pairs/sec
  of the refinement search, the latter both against a fully materialised
  implementation LTS and against the lazy on-the-fly product, all on the
  8-component interleaving of the scalability sweep (paper Sec. VII-A).
  The numbers land in ``BENCH_kernel.json`` at the repo root.
* **Divergence gate** -- a fixed matrix of composition shapes checked in
  both models through the kernel path and through the frozen pre-refactor
  reference semantics (``repro.quickcheck.reference``); any verdict, trace
  or explored-count difference fails the run.
* **Regression gate** -- with ``REPRO_KERNEL_GATE=1`` (set in CI, where a
  committed baseline exists), a >10% drop in any states/sec figure against
  the previous ``BENCH_kernel.json`` fails the run.
"""

import json
import os
import time

from repro.csp import (
    Alphabet,
    Channel,
    Environment,
    GenParallel,
    Hiding,
    InternalChoice,
    Prefix,
    Renaming,
    Stop,
    event,
    interleave_all,
    prefix,
    ref,
)
from repro.csp.events import AlphabetTable
from repro.engine import VerificationPipeline
from repro.fdr import check_failures_refinement, check_trace_refinement
from repro.fdr import check_trace_refinement_from
from repro.quickcheck.reference import reference_compile, reference_refinement
from repro.security.properties import run_process

from conftest import bench_json_path, write_bench_json

COMPONENTS = 8
#: PR-5 measured 25.5 ms for the 8-component check; the kernel must not be slower
CHECK_MS_BUDGET = 25.5
GATE_ENV = "REPRO_KERNEL_GATE"
GATE_TOLERANCE = 0.10


def _eight_component_case():
    """The Sec. VII-A explosion case: 8 interleaved req/rsp components."""
    payloads = [("req", i) for i in range(COMPONENTS)] + [
        ("rsp", i) for i in range(COMPONENTS)
    ]
    channel = Channel("bus", payloads)
    env = Environment()
    for i in range(COMPONENTS):
        name = "COMP{}".format(i)
        env.bind(
            name,
            Prefix(channel(("req", i)), Prefix(channel(("rsp", i)), ref(name))),
        )
    system = interleave_all(*(ref("COMP{}".format(i)) for i in range(COMPONENTS)))
    spec = run_process(channel.alphabet(), env, "RUNALL")
    return env, system, spec


def _best_of(runs, thunk):
    best = None
    for _ in range(runs):
        started = time.perf_counter()
        value = thunk()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[1]:
            best = (value, elapsed)
    return best


def _rate(count, seconds):
    return round(count / seconds, 1) if seconds > 0 else 0.0


def test_bench_kernel_throughput(artifact):
    env, system, spec = _eight_component_case()

    # eager compile throughput: term -> materialised CSR kernel; a fresh
    # table each run keeps the compilation cache out of the measurement
    from repro.csp.lts import compile_lts

    eager, compile_s = _best_of(
        3, lambda: compile_lts(system, env, table=AlphabetTable())
    )
    compile_rate = _rate(eager.state_count, compile_s)

    pipeline = VerificationPipeline(env)
    eager = pipeline.compile(system)

    # refinement over the materialised kernel
    normalised = pipeline.normalised(spec)
    materialised, mat_s = _best_of(
        3, lambda: check_trace_refinement_from(normalised, eager)
    )
    assert materialised.passed

    # refinement over the lazy on-the-fly product of the component kernels
    def onfly_check():
        prepared = pipeline.plan.prepare(system, "T")
        view = pipeline.lazy(prepared.term)
        assert not view.sos, "the interleaving must be a synthesised product"
        return view, check_trace_refinement_from(normalised, view)

    (view, onfly), onfly_s = _best_of(3, onfly_check)
    assert onfly.passed

    # verdict-relevant observables agree between the two implementations
    assert onfly.states_explored == materialised.states_explored
    # the product discovers no more states than the eager compile materialises
    assert view.state_count <= eager.state_count
    onfly_ms = onfly_s * 1000.0
    assert onfly_ms < CHECK_MS_BUDGET, (
        "8-component on-the-fly check took {:.2f} ms, budget {} ms".format(
            onfly_ms, CHECK_MS_BUDGET
        )
    )

    payload = {
        "case": "{}-component interleave (Sec. VII-A)".format(COMPONENTS),
        "compile": {
            "states": eager.state_count,
            "transitions": eager.transition_count,
            "ms": round(compile_s * 1000.0, 3),
            "states_per_sec": compile_rate,
        },
        "refine_materialised": {
            "states_explored": materialised.states_explored,
            "check_ms": round(mat_s * 1000.0, 3),
            "states_per_sec": _rate(materialised.states_explored, mat_s),
        },
        "refine_on_the_fly": {
            "states_explored": onfly.states_explored,
            "product_states": view.state_count,
            "check_ms": round(onfly_ms, 3),
            "states_per_sec": _rate(onfly.states_explored, onfly_s),
        },
    }

    previous = None
    canonical = bench_json_path("BENCH_kernel")
    if canonical.exists():
        previous = json.loads(canonical.read_text(encoding="utf-8"))
    write_bench_json("BENCH_kernel", payload)

    lines = [
        "Kernel throughput: {} (best of 3)".format(payload["case"]),
        "",
        "{:<22} {:<12} {:<12} {}".format("path", "states", "ms", "states/sec"),
        "-" * 58,
        "{:<22} {:<12} {:<12} {}".format(
            "compile (eager)",
            eager.state_count,
            payload["compile"]["ms"],
            compile_rate,
        ),
        "{:<22} {:<12} {:<12} {}".format(
            "refine (materialised)",
            materialised.states_explored,
            payload["refine_materialised"]["check_ms"],
            payload["refine_materialised"]["states_per_sec"],
        ),
        "{:<22} {:<12} {:<12} {}".format(
            "refine (on-the-fly)",
            onfly.states_explored,
            payload["refine_on_the_fly"]["check_ms"],
            payload["refine_on_the_fly"]["states_per_sec"],
        ),
    ]
    artifact("kernel_throughput", "\n".join(lines))

    # perf regression gate: only where a trustworthy baseline exists (CI)
    if previous is not None and os.environ.get(GATE_ENV):
        for section in ("compile", "refine_materialised", "refine_on_the_fly"):
            old = previous.get(section, {}).get("states_per_sec")
            if not old:
                continue
            new = payload[section]["states_per_sec"]
            floor = old * (1.0 - GATE_TOLERANCE)
            assert new >= floor, (
                "{} throughput regressed >10%: {} -> {} states/sec".format(
                    section, old, new
                )
            )


def _divergence_matrix():
    """Fixed composition shapes exercising every product-spine operator."""
    a, b, c = event("a"), event("b"), event("c")

    def loop(x, y, name):
        env = Environment()
        env.bind(name, prefix(x, prefix(y, ref(name))))
        return env, ref(name)

    cases = []

    env, p = loop(a, b, "P")
    env.bind("Q", prefix(a, prefix(b, ref("Q"))))
    env.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([a, b])))
    cases.append(("sync-par", env, ref("P"), ref("SYS")))

    env2 = Environment()
    env2.bind("P", prefix(a, prefix(b, ref("P"))))
    env2.bind("Q", prefix(a, prefix(c, prefix(b, ref("Q")))))
    env2.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([a, b])))
    cases.append(("sync-par-violation", env2, ref("P"), ref("SYS")))

    env3 = Environment()
    env3.bind("L", prefix(a, Stop()))
    env3.bind("R", prefix(b, Stop()))
    env3.bind("SYS", Hiding(GenParallel(ref("L"), ref("R"), Alphabet([])), Alphabet([b])))
    env3.bind("SPEC", prefix(a, Stop()))
    cases.append(("hide-interleave", env3, ref("SPEC"), ref("SYS")))

    env4 = Environment()
    env4.bind("P", InternalChoice(prefix(a, Stop()), prefix(b, Stop())))
    env4.bind("SYS", Renaming(ref("P"), {b: c}))
    env4.bind("SPEC", InternalChoice(prefix(a, Stop()), prefix(c, Stop())))
    cases.append(("rename-internal-choice", env4, ref("SPEC"), ref("SYS")))

    return cases


def test_bench_kernel_matches_legacy_semantics():
    """Kernel path and frozen pre-refactor semantics agree on every case."""
    from repro.csp.lts import compile_lts

    for name, env, spec, impl in _divergence_matrix():
        for model in ("T", "F"):
            check = (
                check_trace_refinement if model == "T" else check_failures_refinement
            )
            ktable = AlphabetTable()
            kernel_spec = compile_lts(spec, env, table=ktable)
            kernel_impl = compile_lts(impl, env, table=ktable)
            kernel_result = check(kernel_spec, kernel_impl)

            rtable = AlphabetTable()
            ref_spec = reference_compile(spec, env, table=rtable)
            ref_impl = reference_compile(impl, env, table=rtable)
            reference = reference_refinement(ref_spec, ref_impl, model)

            context = "{} [{}=".format(name, model)
            assert kernel_result.passed == reference.passed, context
            assert kernel_result.states_explored == reference.states_explored, context
            if not kernel_result.passed:
                cex = kernel_result.counterexample
                assert tuple(cex.trace) == reference.trace, context
