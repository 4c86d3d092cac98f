"""X7 -- where the wall time goes: per-stage profiles of the bundled checks.

Every other bench reports end-to-end wall time; this one attributes it.
Each representative check (the paper's SP02 assertion, the Table III
requirements, the 32-message scalability point) runs under an enabled
:class:`repro.obs.Tracer` and its :class:`~repro.obs.Profile` -- exclusive
time per pipeline stage (parse/plan/compile/compress/normalise/refine) --
lands in ``BENCH_profile.json`` at the repo root.

Two gates ride along: stage sums must reconcile with each check's
end-to-end time to within 10% (CI reads this from the JSON), and the
disabled-tracer path is timed against the enabled one so instrumentation
overhead stays visible PR over PR.
"""

import time

from repro import api
from repro.csp import Channel, Environment, input_choice, ref
from repro.cspm.evaluator import load
from repro.cspm.prelude import SP02_SCRIPT
from repro.engine import VerificationPipeline
from repro.obs import Tracer
from repro.security.properties import run_process

from conftest import merge_bench_profile

REQUIREMENTS = ("R01", "R02", "R03", "R04", "R05")
MESSAGE_SPACE_SIZE = 32


def _message_space_check(obs=None):
    """The largest point of the scalability message-space sweep, profiled."""
    channel = Channel("bus", list(range(MESSAGE_SPACE_SIZE)))
    env = Environment()
    env.bind(
        "SRV",
        input_choice(channel, lambda _v: input_choice(channel, lambda _w: ref("SRV"))),
    )
    spec = run_process(channel.alphabet(), env, "RUNALL")
    pipeline = VerificationPipeline(env, obs=obs)
    return pipeline.refinement(spec, ref("SRV"), "T")


def _sp02_check(obs=None):
    model = load(SP02_SCRIPT)
    decl = model.assertions[0]
    spec = model.eval_process(decl.left, {})
    impl = model.eval_process(decl.right, {})
    return api.check_refinement(spec, impl, "T", env=model.env, obs=obs)


def _requirement_check(req_id):
    def run(obs=None):
        return api.verify_requirement(req_id, obs=obs)

    return run


WORKLOADS = [("sp02-assert", _sp02_check)] + [
    (req_id, _requirement_check(req_id)) for req_id in REQUIREMENTS
] + [("message-space-32", _message_space_check)]


def profile_sweep():
    rows = []
    for name, run in WORKLOADS:
        started = time.perf_counter()
        result = run(obs=Tracer())
        wall_ms = (time.perf_counter() - started) * 1000.0
        assert result.passed, name
        profile = result.profile
        rows.append(
            {
                "name": name,
                "wall_ms": round(wall_ms, 3),
                "total_ms": round(profile.total_ms, 3),
                "stage_sum_ms": round(profile.stage_sum(), 3),
                "stages": {s: round(ms, 3) for s, ms in profile.ordered_stages()},
                "spans": dict(profile.counts),
                "metrics": dict(profile.metrics),
            }
        )
    return rows


def _disabled_overhead():
    """Wall time of the 32-msg check with the null tracer vs. an enabled one."""

    def best_of(runs, obs_factory):
        best = float("inf")
        for _ in range(runs):
            started = time.perf_counter()
            result = _message_space_check(obs=obs_factory())
            best = min(best, (time.perf_counter() - started) * 1000.0)
            assert result.passed
        return best

    untraced_ms = best_of(3, lambda: None)
    traced_ms = best_of(3, Tracer)
    return {
        "untraced_ms": round(untraced_ms, 3),
        "traced_ms": round(traced_ms, 3),
        "traced_over_untraced": round(traced_ms / untraced_ms, 3),
    }


def test_bench_profile(benchmark, artifact):
    rows = benchmark(profile_sweep)

    # the CI gate: exclusive-time stage buckets reconcile with each check's
    # end-to-end time to within 10%
    for row in rows:
        total = max(row["total_ms"], 1e-6)
        assert abs(row["stage_sum_ms"] - row["total_ms"]) <= 0.10 * total, row
        # the root span covers the pipeline work the caller timed
        assert row["total_ms"] <= row["wall_ms"] * 1.10 + 1.0, row

    overhead = _disabled_overhead()
    merge_bench_profile("checks", rows)
    merge_bench_profile("overhead", overhead)

    lines = [
        "Per-stage wall-time profiles (exclusive time, ms)",
        "",
        "{:<18} {:>9} {:>9}  top stages".format("check", "total", "sum"),
        "-" * 72,
    ]
    for row in rows:
        top = sorted(row["stages"].items(), key=lambda kv: -kv[1])[:3]
        lines.append(
            "{:<18} {:>9.3f} {:>9.3f}  {}".format(
                row["name"],
                row["total_ms"],
                row["stage_sum_ms"],
                ", ".join("{} {:.2f}".format(s, ms) for s, ms in top),
            )
        )
    lines.append("")
    lines.append(
        "null-tracer overhead: {untraced_ms:.2f} ms untraced vs "
        "{traced_ms:.2f} ms traced (x{traced_over_untraced})".format(**overhead)
    )
    artifact("profile_stages", "\n".join(lines))
