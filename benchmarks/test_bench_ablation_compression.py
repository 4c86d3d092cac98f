"""Ablation: compress-before-compose vs. checking the raw composition.

DESIGN.md calls out compression as the design choice behind FDR-style
scalability (paper Sec. VII-A: "support for large-scale verification").
This bench runs the same refinement checks twice through the production
path -- :class:`repro.engine.VerificationPipeline` with the default pass
pipeline vs. ``passes="none"`` -- on two families:

* interleavings of redundantly-branching components (the kind the
  extractor's choice-translation produces), where the bisimulation
  quotient collapses the structural redundancy before the product; and
* the bundled case-study systems (Fig. 2 demo, the update session, the
  intruder compositions), where the claim that matters is *identity*:
  same verdict, byte-identical counterexample trace, fewer explored
  product states.

Besides the text table, the sweep writes
``BENCH_compression.json`` at the repo root: per-pass state counts, wall
times and explored-state counts for both paths, consumed by the CI
verdict-agreement gate.
"""

import time

from conftest import merge_bench_profile

from repro.csp import Alphabet, Environment, ExternalChoice, Prefix, event, interleave_all, ref
from repro.engine import VerificationPipeline
from repro.obs import Tracer
from repro.ota.models import (
    build_paper_system,
    build_secured_system,
    build_session_system,
)
from repro.security.properties import never_occurs, run_process


def build_redundant_component(env, index):
    """A component whose branches are bisimilar but structurally distinct --
    exactly what translated if/switch over-approximation produces."""
    a = event("a", index)
    b = event("b", index)
    name = "RED{}".format(index)
    env.bind(
        name,
        ExternalChoice(
            Prefix(a, Prefix(b, ref(name))),
            Prefix(a, Prefix(b, ExternalChoice(ref(name), ref(name)))),
        ),
    )
    return ref(name), Alphabet.of(a, b)


def _timed_check(env, spec, impl, passes):
    pipeline = VerificationPipeline(env, passes=passes)
    started = time.perf_counter()
    result = pipeline.refinement(spec, impl, "T")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return result, elapsed_ms


def _compare(name, make):
    """Run one check compressed and uncompressed; assert semantic identity."""
    env, spec, impl = make()
    compressed, compressed_ms = _timed_check(env, spec, impl, "default")
    env, spec, impl = make()
    uncompressed, uncompressed_ms = _timed_check(env, spec, impl, "none")

    assert compressed.passed == uncompressed.passed, name
    cex_trace = None
    if not compressed.passed:
        assert (
            compressed.counterexample.describe()
            == uncompressed.counterexample.describe()
        ), name
        cex_trace = [str(e) for e in compressed.counterexample.full_trace]
    assert compressed.states_explored <= uncompressed.states_explored, name

    # re-run the compressed path traced: BENCH_profile.json keeps the
    # per-stage breakdown behind these end-to-end numbers
    env, spec, impl = make()
    traced = VerificationPipeline(env, passes="default", obs=Tracer()).refinement(
        spec, impl, "T"
    )
    assert traced.passed == compressed.passed, name

    return {
        "profile_stages": {
            stage: round(ms, 3) for stage, ms in traced.profile.ordered_stages()
        },
        "system": name,
        "passed": compressed.passed,
        "counterexample": cex_trace,
        "explored_compressed": compressed.states_explored,
        "explored_uncompressed": uncompressed.states_explored,
        "check_ms_compressed": round(compressed_ms, 3),
        "check_ms_uncompressed": round(uncompressed_ms, 3),
        "passes": [stat.as_dict() for stat in compressed.pass_stats],
    }


def _redundant_case(component_count):
    def make():
        env = Environment()
        parts = [
            build_redundant_component(env, i) for i in range(component_count)
        ]
        system = interleave_all(*[p for p, _alpha in parts])
        alphabet = Alphabet()
        for _p, alpha in parts:
            alphabet = alphabet | alpha
        spec = run_process(alphabet, env, "RUNRED")
        return env, spec, system

    return make


def _paper_case(flawed):
    def make():
        system = build_paper_system(flawed=flawed)
        return system.env, system.sp02, system.system

    return make


def _session_case():
    session = build_session_system()
    return session.env, session.spec, session.system


def _secured_case(protection):
    def make():
        secured = build_secured_system(protection)
        spec = never_occurs(
            secured.forbidden_applies, secured.alphabet, secured.env, "SPEC"
        )
        return secured.env, spec, secured.attacked_system

    return make


CASES = [
    ("redundant-x2", _redundant_case(2)),
    ("redundant-x3", _redundant_case(3)),
    ("redundant-x4", _redundant_case(4)),
    ("fig2-demo", _paper_case(flawed=False)),
    ("fig2-demo-flawed", _paper_case(flawed=True)),
    ("update-session", _session_case),
    ("intruder-unprotected", _secured_case("none")),
    ("intruder-mac", _secured_case("mac")),
]


def sweep():
    return [_compare(name, make) for name, make in CASES]


def test_bench_ablation_compression(benchmark, artifact, json_artifact):
    rows = benchmark(sweep)

    # compress-before-compose must strictly reduce the explored product on
    # the redundant family, and never lose ground anywhere
    for row in rows:
        if row["system"].startswith("redundant"):
            assert row["explored_compressed"] < row["explored_uncompressed"]
    assert sum(r["explored_compressed"] for r in rows) < sum(
        r["explored_uncompressed"] for r in rows
    )
    # every compressed component reports its pass trail
    assert all(row["passes"] for row in rows)

    json_artifact("BENCH_compression", {"cases": rows})
    merge_bench_profile(
        "compression",
        {row["system"]: row["profile_stages"] for row in rows},
    )

    lines = [
        "Ablation: compress-before-compose vs. the raw composition",
        "",
        "{:<22} {:<8} {:<14} {:<16} {:<12} {}".format(
            "system",
            "verdict",
            "explored (c)",
            "explored (raw)",
            "check ms (c)",
            "check ms (raw)",
        ),
        "-" * 86,
    ]
    for row in rows:
        lines.append(
            "{:<22} {:<8} {:<14} {:<16} {:<12.2f} {:.2f}".format(
                row["system"],
                "pass" if row["passed"] else "FAIL",
                row["explored_compressed"],
                row["explored_uncompressed"],
                row["check_ms_compressed"],
                row["check_ms_uncompressed"],
            )
        )
    artifact("ablation_compression", "\n".join(lines))
