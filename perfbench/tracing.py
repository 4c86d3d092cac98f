"""Per-layer attribution: spans around the toolchain's public functions.

The benchmark times each layer from outside.  :func:`instrument` swaps every
function in :data:`TARGETS` for a wrapper that records one span per call,
in each ``repro`` (and ``perfbench``) module that imported it, and puts the
originals back when the block ends; no file under ``src/`` changes.  Spans
nest per thread, and a span's *self time* is its duration minus what its
child spans cover, so the per-stage self times of one traced unit add up to
its wall time.  Spans of helper threads hang under a span of the thread
that started them with a weight of ``1 / threads``, which folds concurrent
clients into one mean client timeline.  A forked child stops recording:
pool and daemon workers are timed from ``JobResult.duration_ms`` and
``VerificationServer.stats()`` instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Stage:
    """What the spans of one name accumulated."""

    __slots__ = ("self_s", "calls", "counts")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.counts: Dict[str, float] = defaultdict(float)


class Span:
    __slots__ = ("name", "parent", "weight", "start", "child_s", "counts")

    def __init__(self, name: str, parent: Optional["Span"], weight: float) -> None:
        self.name = name
        self.parent = parent
        self.weight = weight
        self.child_s = 0.0
        self.counts: Dict[str, float] = {}
        self.start = time.perf_counter()


class Recorder:
    """Folds each span into per-stage totals as it closes."""

    def __init__(self) -> None:
        self.enabled = False
        self.stages: Dict[str, Stage] = defaultdict(Stage)
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.enabled = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def attach(self, parent: Optional[Span], weight: float) -> None:
        """Root the calling thread's spans under *parent*, scaled by *weight*."""
        self._local.root = (parent, weight)

    def inside(self, name: str) -> bool:
        """Is a span called *name* open on the calling thread?"""
        return any(span.name == name for span in self._stack())

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if stack:
            parent, weight = stack[-1], stack[-1].weight
        elif hasattr(self._local, "root"):
            parent, weight = self._local.root
        elif threading.current_thread() is threading.main_thread():
            parent, weight = None, 1.0
        else:
            # a thread nobody attached (the daemon's HTTP handlers): its work
            # already shows as the waiting inside a client's round trip
            yield None
            return
        span = Span(name, parent, weight)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            covered = (time.perf_counter() - span.start) * weight
            with self._lock:
                if parent is not None:
                    parent.child_s += covered
                stage = self.stages[name]
                stage.self_s += covered - span.child_s
                stage.calls += 1
                for key, value in span.counts.items():
                    stage.counts[key] += value


# -- what gets wrapped ---------------------------------------------------------


def _counted(**counters):
    """A post hook adding ``counter(result, args)`` for each named counter."""

    def post(recorder, result, args):
        return result, {key: count(result, args) for key, count in counters.items()}

    return post


def _materialised(key):
    """A post hook draining a generator inside the span, so its work is timed."""

    def post(recorder, result, args):
        items = list(result)
        return iter(items), {key: len(items)}

    return post


def _sul_run(recorder, result, args):
    return result, {"runs": 1, "teacher_runs": int(recorder.inside("learn.teacher"))}


def _cache_probe(recorder, result, args):
    return result, {"gets": 1, "hits": int(result is not None)}


_REFINE_CHECKS = (
    "check_trace_refinement_from",
    "check_failures_refinement_from",
    "check_fd_refinement",
    "check_deadlock_free",
    "check_divergence_free",
    "check_deterministic",
)

#: ``(owner, attribute, stage, post hook)``; *owner* is a module, or
#: ``module:Class`` for a method.  The post hook maps ``(recorder, result,
#: args)`` to ``(result, counts)``.
TARGETS = (
    ("repro.cspm.evaluator", "load_file", "cspm.parse", None),
    ("repro.cspm.evaluator:CspmModel", "check_assertion", "cspm.assert", None),
    ("repro.engine.plan:CompilationPlan", "prepare", "engine.plan", None),
    ("repro.engine.pipeline:VerificationPipeline", "lazy", "engine.lazy", None),
    ("repro.csp.lts", "compile_lts", "csp.compile", _counted(states=lambda r, a: r.state_count)),
    (
        "repro.passes.base",
        "apply_passes",
        "passes.compress",
        _counted(states_in=lambda r, a: a[0].state_count, states_out=lambda r, a: r[0].state_count),
    ),
    ("repro.fdr.normalise", "normalise", "fdr.normalise", _counted(nodes=lambda r, a: r.node_count)),
) + tuple(
    ("repro.fdr.refine", name, "fdr.refine", _counted(states=lambda r, a: r.states_explored))
    for name in _REFINE_CHECKS
) + (
    ("repro.rv.cli", "specs_from_manifest", "rv.manifest", None),
    ("repro.rv.ingest", "read_log", "rv.ingest", _materialised("records")),
    ("repro.rv.mapping:EventMapping", "stream", "rv.mapping", _materialised("events")),
    ("repro.rv.check", "check_trace_membership", "rv.check", _counted(events=lambda r, a: len(a[1]))),
    ("repro.batch.spec:CheckSpec", "__init__", "batch.spec_build", None),
    ("repro.batch.spec:CheckSpec", "to_doc", "batch.spec_build", None),
    ("repro.batch.executor", "run_batch", "batch.run", None),
    ("repro.exec.runtime", "execute_spec", "exec.execute", None),
    ("repro.exec.resultcache:ResultCache", "get", "exec.resultcache_get", _cache_probe),
    ("repro.exec.resultcache:ResultCache", "put", "exec.resultcache_put", None),
    ("repro.translator.extractor:ModelExtractor", "extract", "translator.extract", None),
    ("repro.learn.learner", "learn", "learn.loop", None),
    ("repro.learn.sul:CaplSimulatorSUL", "membership", "learn.sul", _sul_run),
    ("repro.learn.table:ObservationTable", "close", "learn.table_close", None),
    ("repro.learn.teacher:BoundedTeacher", "counterexample", "learn.teacher", None),
    ("repro.learn.teacher:ReferenceTeacher", "counterexample", "learn.teacher", None),
)

_IMPORTERS = ("repro", "perfbench")


def _wrap(recorder: Recorder, original, stage: str, post):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        with recorder.span(stage) as span:
            result = original(*args, **kwargs)
            if post is not None and span is not None:
                result, counts = post(recorder, result, args)
                span.counts.update(counts)
        return result

    return wrapper


def _bindings(original):
    """Every module-level name, and module-level dict entry, bound to *original*."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith(_IMPORTERS):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                yield namespace, name
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        yield value, key


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target and record spans until the block ends."""
    undo = []
    try:
        for owner_path, attribute, stage, post in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                cls = getattr(owner, class_name)
                original = cls.__dict__[attribute]
                setattr(cls, attribute, _wrap(recorder, original, stage, post))
                undo.append((vars(cls), attribute, original, cls))
                continue
            original = getattr(owner, attribute)
            wrapper = _wrap(recorder, original, stage, post)
            for mapping, key in list(_bindings(original)):
                mapping[key] = wrapper
                undo.append((mapping, key, original, None))
        recorder.enabled = True
        yield recorder
    finally:
        recorder.enabled = False
        for mapping, key, original, cls in reversed(undo):
            if cls is not None:
                setattr(cls, key, original)
            else:
                mapping[key] = original


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(stages: Dict[str, Stage], units: int) -> Dict[str, float]:
    """Per-unit layer figures from the stages of *units* traced units."""

    def ms(name):
        return stages[name].self_s * 1000.0 / units if name in stages else 0.0

    def count(name, key):
        return stages[name].counts.get(key, 0.0) / units if name in stages else 0.0

    def per_s(name, key):
        stage = stages.get(name)
        return stage.counts.get(key, 0.0) / stage.self_s if stage and stage.self_s else 0.0

    gets = count("exec.resultcache_get", "gets")
    return {
        "cspm.parse_ms": ms("cspm.parse"),
        "cspm.assert_ms": ms("cspm.assert"),
        "engine.plan_ms": ms("engine.plan"),
        "engine.lazy_fallbacks": stages["engine.lazy"].calls / units if "engine.lazy" in stages else 0.0,
        "csp.compile_ms": ms("csp.compile"),
        "csp.compile_states": count("csp.compile", "states"),
        "csp.compile_states_per_s": per_s("csp.compile", "states"),
        "passes.compress_ms": ms("passes.compress"),
        "passes.states_in": count("passes.compress", "states_in"),
        "passes.states_out": count("passes.compress", "states_out"),
        "fdr.normalise_ms": ms("fdr.normalise"),
        "fdr.normalise_nodes": count("fdr.normalise", "nodes"),
        "fdr.refine_ms": ms("fdr.refine"),
        "fdr.refine_states": count("fdr.refine", "states"),
        "fdr.refine_states_per_s": per_s("fdr.refine", "states"),
        "rv.manifest_ms": ms("rv.manifest"),
        "rv.ingest_ms": ms("rv.ingest"),
        "rv.ingest_records": count("rv.ingest", "records"),
        "rv.mapping_ms": ms("rv.mapping"),
        "rv.mapped_events": count("rv.mapping", "events"),
        "rv.check_ms": ms("rv.check"),
        "rv.check_events": count("rv.check", "events"),
        "batch.run_ms": ms("batch.run"),
        "batch.spec_build_ms": ms("batch.spec_build"),
        "exec.execute_ms": ms("exec.execute"),
        "exec.resultcache_get_ms": ms("exec.resultcache_get"),
        "exec.resultcache_put_ms": ms("exec.resultcache_put"),
        "exec.resultcache_hit_ratio": count("exec.resultcache_get", "hits") / gets if gets else 0.0,
        "server.serve_ms": ms("server.serve"),
        "translator.extract_ms": ms("translator.extract"),
        "learn.loop_ms": ms("learn.loop"),
        "learn.sul_ms": ms("learn.sul"),
        "learn.sul_runs": count("learn.sul", "runs"),
        "learn.table_close_ms": ms("learn.table_close"),
        "learn.teacher_ms": ms("learn.teacher"),
        "learn.teacher_sul_runs": count("learn.sul", "teacher_runs"),
        "bench.unattributed_ms": ms("bench.unattributed"),
    }
