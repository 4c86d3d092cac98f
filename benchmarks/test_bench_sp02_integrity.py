"""X1 -- paper Sec. V-B: the SP02 integrity refinement check.

``SP02 [T= VMG [|{|send,rec|}|] ECU`` holds on the faithful system and
fails -- with exactly the insecure trace <send.reqSw, rec.rptUpd> -- on the
seeded flaw.  The benchmark times both checks (the FDR stage).
"""

from repro.csp import event
from repro.api import check_refinement
from repro.ota import build_paper_system


def run_checks():
    good = build_paper_system()
    bad = build_paper_system(flawed=True)
    return (
        check_refinement(
            good.sp02, good.system, "T", env=good.env, name="SP02 [T= SYSTEM"
        ),
        check_refinement(
            bad.sp02, bad.system, "T", env=bad.env, name="SP02 [T= SYSTEM(flawed)"
        ),
    )


def test_bench_sp02_integrity(benchmark, artifact):
    good_result, bad_result = benchmark(run_checks)
    assert good_result.passed
    assert not bad_result.passed
    assert bad_result.counterexample.full_trace == (
        event("send", "reqSw"),
        event("rec", "rptUpd"),
    )

    lines = [
        "SP02 integrity property (paper Sec. V-B)",
        "SP02 = send!reqSw -> rec!rptSw -> SP02",
        "SYSTEM = VMG [| {| send, rec |} |] ECU",
        "",
        good_result.summary(),
        bad_result.summary(),
    ]
    artifact("sp02_integrity", "\n".join(lines))
