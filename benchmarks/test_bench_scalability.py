"""X4 -- scalability of refinement checking (paper Sec. II-C2 / VII-A).

The paper motivates compositional checking with the combinatorial explosion
of component interactions.  This bench measures exactly that curve on our
engine: state count and wall time of a refinement check as (a) the number of
interleaved ECU components grows and (b) the message-space size grows.
The shape to reproduce: state count grows multiplicatively with components
(the explosion), which is why the paper advocates checking components
individually and composing models.

All sweeps run through :class:`repro.engine.VerificationPipeline`, so the
timings reflect the production path (interned alphabets + on-the-fly
refinement).  Besides the text tables, the sweeps accumulate into
``BENCH_scalability.json`` at the repo root for machine consumption.
"""

import time

from repro.csp import Channel, Environment, Prefix, ref
from repro.engine import VerificationPipeline
from repro.fdr import check_trace_refinement_from
from repro.obs import Tracer
from repro.security.properties import run_process

from conftest import merge_bench_json, merge_bench_profile


def _merge_bench_json(section, rows):
    """Fold one sweep's rows into BENCH_scalability.json (shared by 3 tests)."""
    merge_bench_json("BENCH_scalability", section, rows)


def build_component(env, channel, index):
    """One ECU-ish component: req.i -> rsp.i -> loop."""
    name = "COMP{}".format(index)
    env.bind(
        name,
        Prefix(channel(("req", index)), Prefix(channel(("rsp", index)), ref(name))),
    )
    return ref(name)


def check_with_components(count):
    from repro.csp import interleave_all

    payloads = [("req", i) for i in range(count)] + [("rsp", i) for i in range(count)]
    channel = Channel("bus", payloads)
    env = Environment()
    components = [build_component(env, channel, i) for i in range(count)]
    system = interleave_all(*components)
    spec = run_process(channel.alphabet(), env, "RUNALL")
    pipeline = VerificationPipeline(env)
    started = time.perf_counter()
    impl = pipeline.lazy(system)
    result = check_trace_refinement_from(pipeline.normalised(spec), impl)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert result.passed
    return count, impl.state_count, result.states_explored, elapsed_ms


def component_sweep():
    return [check_with_components(n) for n in (1, 2, 4, 6, 8)]


def message_space_sweep():
    rows = []
    for size in (2, 4, 8, 16, 32):
        channel = Channel("bus", list(range(size)))
        env = Environment()
        # a server answering any request with any response: size^2 branching
        from repro.csp import input_choice

        env.bind(
            "SRV",
            input_choice(channel, lambda _v: input_choice(channel, lambda _w: ref("SRV"))),
        )
        spec = run_process(channel.alphabet(), env, "RUNALL")
        pipeline = VerificationPipeline(env)
        started = time.perf_counter()
        impl = pipeline.lazy(ref("SRV"))
        result = check_trace_refinement_from(pipeline.normalised(spec), impl)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert result.passed
        rows.append((size, impl.state_count, result.transitions_explored, elapsed_ms))
    return rows


def test_bench_scalability_components(benchmark, artifact):
    rows = benchmark(component_sweep)
    # the explosion: states grow multiplicatively with component count
    states = {count: state_count for count, state_count, _e, _t in rows}
    assert states[8] > 16 * states[2]

    lines = [
        "Scalability: interleaved components (the Sec. II-C2 explosion)",
        "",
        "{:<12} {:<14} {:<16} {}".format("components", "LTS states", "pairs explored", "check ms"),
        "-" * 56,
    ]
    for count, state_count, explored, elapsed in rows:
        lines.append(
            "{:<12} {:<14} {:<16} {:.2f}".format(count, state_count, explored, elapsed)
        )
    artifact("scalability_components", "\n".join(lines))
    _merge_bench_json(
        "components",
        [
            {"components": c, "states": s, "pairs_explored": e, "check_ms": round(t, 3)}
            for c, s, e, t in rows
        ],
    )


def _traced_message_space_check(size):
    """One sweep point re-run under an enabled tracer, for BENCH_profile."""
    from repro.csp import input_choice

    channel = Channel("bus", list(range(size)))
    env = Environment()
    env.bind(
        "SRV",
        input_choice(channel, lambda _v: input_choice(channel, lambda _w: ref("SRV"))),
    )
    spec = run_process(channel.alphabet(), env, "RUNALL")
    pipeline = VerificationPipeline(env, obs=Tracer())
    result = pipeline.refinement(spec, ref("SRV"), "T")
    assert result.passed
    return result.profile


def test_bench_scalability_message_space(benchmark, artifact):
    rows = benchmark(message_space_sweep)
    lines = [
        "Scalability: message-space size (transition growth)",
        "",
        "{:<12} {:<14} {:<20} {}".format("|msgs|", "LTS states", "transitions", "check ms"),
        "-" * 58,
    ]
    for size, state_count, transitions, elapsed in rows:
        lines.append(
            "{:<12} {:<14} {:<20} {:.2f}".format(size, state_count, transitions, elapsed)
        )
    artifact("scalability_message_space", "\n".join(lines))
    _merge_bench_json(
        "message_space",
        [
            {"messages": m, "states": s, "transitions": tr, "check_ms": round(t, 3)}
            for m, s, tr, t in rows
        ],
    )
    # re-emit the largest sweep point's per-stage breakdown so the
    # end-to-end numbers above stay attributable to a pipeline stage
    profile = _traced_message_space_check(32)
    assert abs(profile.stage_sum() - profile.total_ms) <= 0.10 * profile.total_ms
    merge_bench_profile("scalability_message_space_32", profile.as_dict())


def intruder_lattice_sweep():
    """Knowledge-lattice growth: intruder state count is 2^|universe|."""
    from repro.security import IntruderBuilder

    rows = []
    for size in (2, 3, 4, 5, 6):
        payloads = ["m{}".format(i) for i in range(size)]
        listen = Channel("hear", payloads)
        inject = Channel("say", payloads)
        env = Environment()
        pipeline = VerificationPipeline(env)
        started = time.perf_counter()
        intruder = IntruderBuilder([listen], [inject], payloads).build(env)
        lts = pipeline.compile(intruder)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append((size, lts.state_count, lts.transition_count, elapsed_ms))
    return rows


def test_bench_scalability_intruder_lattice(benchmark, artifact):
    rows = benchmark(intruder_lattice_sweep)
    states = {size: count for size, count, _t, _ms in rows}
    # the knowledge lattice: exactly 2^n reachable knowledge sets
    assert states[4] == 16 and states[6] == 64

    lines = [
        "Scalability: Dolev-Yao intruder knowledge lattice (2^n states)",
        "",
        "{:<12} {:<14} {:<14} {}".format("|universe|", "states", "transitions", "build+compile ms"),
        "-" * 56,
    ]
    for size, state_count, transitions, elapsed in rows:
        lines.append(
            "{:<12} {:<14} {:<14} {:.2f}".format(size, state_count, transitions, elapsed)
        )
    artifact("scalability_intruder_lattice", "\n".join(lines))
    _merge_bench_json(
        "intruder_lattice",
        [
            {"universe": u, "states": s, "transitions": tr, "build_compile_ms": round(t, 3)}
            for u, s, tr, t in rows
        ],
    )
