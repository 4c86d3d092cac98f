"""The measurement loop: set-up, units, the correctness tally, the report.

A run sets the workload up once untimed, then :data:`SETUP_REPEATS` timed
times, then runs units for ``--seconds``.  With tracing off the end-to-end
times are CPU seconds (:func:`perfbench.common.cpu_seconds` says why),
each divided by the time of the calibration loop run just before and just
after it and scaled to :data:`~perfbench.common.CALIBRATION_REFERENCE_S`
(:func:`perfbench.common.calibration_s` says why), and each is the median
of its repeats: ``setup_s`` of the set-ups, ``cold_cpu_s`` and
``warm_cpu_s`` of the units.  A set-up shorter than :data:`SETUP_MIN_S` is
timed over a batch of set-ups, as ``timeit`` does, so the median is not
of clock jitter.  With tracing on, units alternate between untraced and
traced; the per-layer metrics are per-unit means over the traced ones,
and ``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

from perfbench import design_check, exec_mix, fleet_rv, learn_ecu, tracing
from perfbench.common import CALIBRATION_REFERENCE_S, ROOT, Tally, calibration_s, cpu_seconds

WORKLOADS = {
    "design-check": design_check,
    "fleet-rv": fleet_rv,
    "exec-mix": exec_mix,
    "learn-ecu": learn_ecu,
}

SETUP_REPEATS = 5
#: CPU seconds a timed set-up batch lasts at least
SETUP_MIN_S = 0.05

#: the run's scratch space; the benchmark reads and writes nothing outside
#: its checkout
WORK = os.path.join(ROOT, ".perfbench_work")


def run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workload = WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    tempfile.tempdir = WORK
    tally = Tally()
    recorder = tracing.Recorder()
    state = None
    setups = 0

    def set_up() -> float:
        """Set the workload up afresh; the CPU seconds it took."""
        nonlocal state, setups
        if state is not None:
            workload.teardown(state)
            state = None
        setups += 1
        started = cpu_seconds()
        state = workload.setup(args.seed, os.path.join(WORK, "setup-{}".format(setups)), size)
        return cpu_seconds() - started

    try:
        # untimed: first-call costs, and the batch size
        batch = max(1, math.ceil(SETUP_MIN_S / max(set_up(), 1e-6)))
        calibration = _Calibration()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            took = sum(set_up() for _ in range(batch)) / batch
            setup_s.append(took * calibration.scale())
        if args.trace:
            measured = _per_layer(workload, state, tally, recorder, args.seconds)
            wanted = benchmark["per_layer"]
        else:
            measured = _end_to_end(workload, state, tally, recorder, args.seconds)
            measured["setup_s"] = statistics.median(setup_s)
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            measured["ok_ratio"] = 1.0 - tally.failed / tally.attempted
            wanted = benchmark["end_to_end"]
            for name, value, unit in workload.named(state, measured):
                print("{:<24} {} {}".format(name, value, unit))
    finally:
        if state is not None:
            workload.teardown(state)
        tempfile.tempdir = None
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": measured.get(entry["name"], 0.0), "unit": entry["unit"]}
        print("{:<32} {:>16.6f} {}".format(entry["name"], metrics[entry["name"]]["value"], entry["unit"]))
    for failure in tally.first_failures:
        print("FAILED: " + failure)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def _repeat(seconds, each) -> None:
    """Call *each* at least once, and again while a call of the usual length
    still ends within *seconds* (a run does not overrun by a whole unit)."""
    started = time.perf_counter()
    took = []
    while True:
        began = time.perf_counter()
        each()
        took.append(time.perf_counter() - began)
        if time.perf_counter() + statistics.median(took) > started + seconds:
            return


class _Calibration:
    """Scales CPU seconds measured between two calls of :meth:`scale` to the
    reference speed."""

    def __init__(self) -> None:
        self._last = calibration_s()

    def scale(self) -> float:
        """The reference over the mean calibration time just before and just
        after what was timed since the previous call."""
        now = calibration_s()
        speed = CALIBRATION_REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return speed


def _end_to_end(workload, state, tally, recorder, seconds):
    cold, warm = [], []
    calibration = _Calibration()

    def unit():
        measured = workload.unit(state, tally, recorder)
        speed = calibration.scale()
        cold.append(measured.cold_s * speed)
        warm.append(measured.warm_s * speed)
        print(
            "unit: cold {:.4f} warm {:.4f} CPU s, x{:.3f} to reference speed".format(
                measured.cold_s, measured.warm_s, speed
            )
        )

    _repeat(seconds, unit)
    return {"cold_cpu_s": statistics.median(cold), "warm_cpu_s": statistics.median(warm)}


def _per_layer(workload, state, tally, recorder, seconds):
    plain, traced, walls, layers = [], [], [], defaultdict(float)
    stages = recorder.stages

    def pair():
        unit = workload.unit(state, tally, recorder)
        plain.append(unit.cold_s + unit.warm_s)
        with tracing.instrument(recorder):
            started = time.perf_counter()
            with recorder.span("bench.unattributed"):
                unit = workload.unit(state, tally, recorder)
            walls.append(time.perf_counter() - started)
        traced.append(unit.cold_s + unit.warm_s)
        for name, value in unit.layers.items():
            layers[name] += value

    # one unit first, so lazy imports and first-call costs land on neither side
    workload.unit(state, tally, recorder)
    _repeat(seconds, pair)
    count = len(walls)
    measured = tracing.layer_metrics(stages, count)
    measured.update({name: value / count for name, value in layers.items()})
    wall_ms = statistics.mean(walls) * 1000.0
    stage_sum_ms = sum(stage.self_s for stage in stages.values()) * 1000.0 / count
    measured.update(
        {
            "trace.wall_ms": wall_ms,
            "trace.stage_sum_ratio": stage_sum_ms / wall_ms,
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
            "env.cpu_count": os.cpu_count() or 1,
            "env.python_version": sys.version_info[0] * 100 + sys.version_info[1],
        }
    )
    print("python {} on {} CPUs; {} traced units".format(platform.python_version(), os.cpu_count(), count))
    print("{:<28} {:>12} {:>7} {:>9}".format("stage (self time per unit)", "ms", "share", "calls"))
    for name, stage in sorted(stages.items(), key=lambda item: -item[1].self_s):
        print(
            "{:<28} {:>12.3f} {:>6.1%} {:>9}".format(
                name, stage.self_s * 1000.0 / count, stage.self_s * 1000.0 / count / wall_ms, stage.calls // count
            )
        )
    return measured
