"""Mode identity over a seeded fuzz campaign of learned models.

The acceptance criterion for the exec/batch plumbing bridge: for 50
seeded random programs from the extraction-precise fragment, the
learned-vs-extracted equivalence specs produce byte-identical canonical
verdict documents whether executed inline, sharded over a 4-worker
``cspbatch`` pool, or served cold/warm from the ResultCache -- and every
one of them PASSes (the learned model really is trace-equivalent).
"""

import random

import pytest

from repro.batch import run_batch
from repro.csp.lts import compile_lts
from repro.exec.resultcache import ResultCache
from repro.exec.runtime import execute_cached, execute_spec
from repro.exec.spec import PASS
from repro.learn import (
    CaplSimulatorSUL,
    ReferenceTeacher,
    derive_message_specs,
    equivalence_specs,
    learn,
)
from repro.quickcheck import capl_precise_programs
from repro.translator import ModelExtractor

CAMPAIGN_SEED = 1094
CASES = 50


def _campaign_specs():
    """Learn 50 seeded precise programs; all their equivalence CheckSpecs."""
    rng = random.Random(CAMPAIGN_SEED)
    generator = capl_precise_programs()
    specs = []
    for index in range(CASES):
        program = generator(rng)
        source = program.render()
        model = ModelExtractor().extract(source, "ECU").load()
        reference_process = model.process("ECU")
        reference_lts = compile_lts(
            reference_process, model.env, max_states=100_000
        )
        sul = CaplSimulatorSUL(source, derive_message_specs(source))
        result = learn(sul, teacher=ReferenceTeacher(reference_lts))
        specs.extend(
            equivalence_specs(
                result,
                reference_process,
                env=model.env,
                check_id="case-{:02d}".format(index),
            )
        )
    return specs


@pytest.fixture(scope="module")
def campaign_specs():
    return _campaign_specs()


def _canonical(results):
    return sorted(
        (result.check_id, result.canonical_line()) for result in results
    )


def test_learned_models_verify_identically_in_every_mode(
    campaign_specs, tmp_path
):
    inline = [execute_spec(spec) for spec in campaign_specs]
    assert all(result.verdict == PASS for result in inline)
    baseline = _canonical(inline)

    pooled = run_batch(campaign_specs, jobs=4)
    assert _canonical(pooled.results) == baseline

    cache = ResultCache(str(tmp_path))
    cold = [
        execute_cached(spec, result_cache=cache) for spec in campaign_specs
    ]
    assert _canonical(cold) == baseline
    hits_before_warm = cache.hits
    warm = [
        execute_cached(spec, result_cache=cache) for spec in campaign_specs
    ]
    assert _canonical(warm) == baseline
    assert cache.hits == hits_before_warm + len(campaign_specs)


def test_campaign_covers_both_directions(campaign_specs):
    assert len(campaign_specs) == 2 * CASES
    suffixes = {spec.check_id.rsplit(":", 1)[1] for spec in campaign_specs}
    assert suffixes == {"sound", "complete"}
