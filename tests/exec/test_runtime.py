"""The execution core (:mod:`repro.exec.runtime`): memoisation must be
invisible in the canonical bytes, visible only in the counters."""

import json

import pytest

from repro.batch.spec import CheckSpec
from repro.csp import Event, Prefix, STOP
from repro.exec.keys import spec_material, strip_label
from repro.exec.resultcache import ResultCache
from repro.exec.runtime import (
    execute_cached,
    execute_spec,
    open_result_cache,
    resolve_result_cache_dir,
)
from repro.obs.metrics import Metrics


def _refinement(name=None):
    term = Prefix(Event("a"), STOP)
    return CheckSpec.refinement(term, term, "T", name=name)


def _failing_property():
    # a -> STOP deadlocks after <a>
    return CheckSpec.property_check(Prefix(Event("a"), STOP), "deadlock free")


@pytest.fixture
def cache(tmp_path):
    store = ResultCache(str(tmp_path / "results"))
    yield store
    store.close()


def test_without_a_cache_execute_cached_is_execute_spec():
    spec = _refinement()
    assert (
        execute_cached(spec).canonical_line()
        == execute_spec(spec).canonical_line()
    )


def test_cold_then_warm_is_byte_identical(cache):
    spec = _refinement()
    fresh = execute_spec(spec)
    cold = execute_cached(spec, result_cache=cache)
    warm = execute_cached(spec, result_cache=cache)
    assert (
        fresh.canonical_line()
        == cold.canonical_line()
        == warm.canonical_line()
    )
    assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)


def test_failing_verdicts_memoise_with_their_counterexample(cache):
    spec = _failing_property()
    cold = execute_cached(spec, result_cache=cache)
    warm = execute_cached(spec, result_cache=cache)
    assert cold.verdict == "FAIL"
    assert warm.canonical_line() == cold.canonical_line()
    assert warm.counterexample is not None
    assert cache.hits == 1


def test_hit_carries_fresh_run_varying_fields(cache):
    spec = _refinement()
    execute_cached(spec, result_cache=cache)
    warm = execute_cached(spec, result_cache=cache)
    # outside the canonical surface, but populated per run
    assert warm.duration_ms is not None
    assert warm.worker_pid is not None


def test_index_and_id_are_the_requesters(cache):
    term = Prefix(Event("a"), STOP)
    writer = CheckSpec.refinement(term, term, "T", check_id="w")
    reader = CheckSpec.refinement(term, term, "T", check_id="r")
    execute_cached(writer, 0, result_cache=cache)
    warm = execute_cached(reader, 5, result_cache=cache)
    assert (warm.index, warm.check_id) == (5, "r")
    assert cache.hits == 1


def test_selftests_pass_straight_through(cache):
    spec = CheckSpec.selftest("pass")
    execute_cached(spec, result_cache=cache)
    execute_cached(spec, result_cache=cache)
    assert cache.hits == 0
    assert cache.skipped == 2
    assert len(cache) == 0


def test_metrics_counters_track_the_flow(cache):
    metrics = Metrics()
    spec = _refinement()
    execute_cached(spec, result_cache=cache, metrics=metrics)
    execute_cached(spec, result_cache=cache, metrics=metrics)
    assert metrics.counter("result_cache.misses").value == 1
    assert metrics.counter("exec.executions").value == 1
    assert metrics.counter("result_cache.writes").value == 1
    assert metrics.counter("result_cache.hits").value == 1


def test_caller_supplied_doc_is_honoured(cache):
    spec = _refinement()
    doc = spec.to_doc()
    execute_cached(spec, result_cache=cache, spec_doc=doc)
    assert cache.get(doc) is not None


def _count_spec_encodings(monkeypatch, spec):
    """Record every ``json.dumps`` of *spec*'s label-stripped document."""
    canonical = strip_label(spec.to_doc())
    encodings = []
    dumps = json.dumps

    def counting(obj, *args, **kwargs):
        if obj == canonical:
            encodings.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    return encodings


def test_a_cold_execution_encodes_the_spec_once(cache, monkeypatch):
    # the probe, the digest, the stored key and the write-through all
    # share one canonical text
    spec = _refinement("once")
    encodings = _count_spec_encodings(monkeypatch, spec)
    execute_cached(spec, result_cache=cache)
    assert cache.writes == 1
    assert len(encodings) == 1


def test_a_supplied_text_is_not_encoded_again(cache, monkeypatch):
    # the worker path: the text it received is the spec's canonical text
    spec = _refinement("worker")
    doc = strip_label(spec.to_doc())
    material = spec_material(doc)
    encodings = _count_spec_encodings(monkeypatch, spec)
    execute_cached(spec, result_cache=cache, spec_doc=doc, material=material)
    assert cache.writes == 1
    assert encodings == []
    assert cache.get(doc, material=material) is not None


def test_open_result_cache_maps_none_to_none(tmp_path):
    assert open_result_cache(None) is None
    opened = open_result_cache(str(tmp_path / "rc"))
    assert isinstance(opened, ResultCache)


def test_resolve_result_cache_dir_precedence():
    class Args:
        result_cache = "/tmp/rc"
        no_result_cache = False

    assert resolve_result_cache_dir(Args()) == "/tmp/rc"
    Args.no_result_cache = True
    assert resolve_result_cache_dir(Args()) is None
    Args.no_result_cache = False
    Args.result_cache = None
    assert resolve_result_cache_dir(Args()) is None
    assert resolve_result_cache_dir(object()) is None
