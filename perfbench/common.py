"""What the workloads share with the harness: the clock, the unit record and
the tally."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import time
from typing import Dict, List, NamedTuple

#: the checkout the benchmark runs in (the parent of this package)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU seconds used so far by this process, its reaped children and its
    live ones.

    The benchmark times work in CPU seconds, not wall seconds.  On a shared
    virtual machine the host takes the vCPUs away for part of the wall clock
    (steal time), and how much changes from minute to minute: identical runs
    moved 1.2-2.7x in wall time, and the pool and daemon passes, which also
    wait on the scheduler, 25-50% from one unit to the next.  The kernel
    leaves steal out of CPU time, and CPU time adds up the work of every
    process a pass uses.  Live children (the daemon's workers) are read from
    ``/proc`` in clock ticks.
    """
    live = 0.0
    for child in multiprocessing.active_children():
        try:
            with open("/proc/{}/stat".format(child.pid), "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # utime and stime, the 14th and 15th fields of proc(5)
        live += (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


#: CPU seconds :func:`calibration_s` takes on an unloaded 2-vCPU Xeon
#: virtual machine (Python 3.11); the speed every reported time is scaled to
CALIBRATION_REFERENCE_S = 0.12


def _calibration_loop() -> None:
    """Fixed interpreter-bound work, of the kinds the toolchain does: a
    breadth-first search over tuple states in a dict, then records built,
    sorted and put through JSON.  Only the benchmark owns this code, so no
    change to the toolchain changes its cost."""
    # in small batches, so the loop adds little to the run's peak memory
    for _ in range(4):
        start = (0,) * 6
        seen = {start: 0}
        frontier = [start]
        while frontier:
            successors = []
            for state in frontier:
                for index in range(6):
                    successor = state[:index] + ((state[index] + 1) % 4,) + state[index + 1 :]
                    if successor not in seen:
                        seen[successor] = len(seen)
                        successors.append(successor)
            frontier = successors
    rng = random.Random(5)
    for _ in range(5):
        rows = [
            {"id": index, "name": "n{}".format(rng.randrange(10_000)), "v": [rng.random() for _ in range(4)]}
            for index in range(3_000)
        ]
        rows.sort(key=lambda row: row["name"])
        json.loads(json.dumps(rows[:600]))


def calibration_s() -> float:
    """CPU seconds the calibration loop takes now.

    CPU time does not hide everything the shared host does: it also runs
    the vCPUs slower for stretches of seconds to minutes (1.3-3x in CPU
    time, seen within one run and between runs a minute apart).  A time
    divided by the calibration loop's time measured right beside it is a
    cost in units of fixed work, which that slowing leaves nearly alone:
    on a ladder of design-check units the run-to-run spread of the median
    fell from 0.22 to 0.04-0.06.
    """
    started = time.process_time()
    _calibration_loop()
    return time.process_time() - started


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


class Unit(NamedTuple):
    """One unit of a workload: a cold pass and a warm pass over its inputs.

    *cold_s* and *warm_s* are CPU seconds (see :func:`cpu_seconds`);
    *layers* are per-layer figures read from the toolchain's own results
    (``JobResult.duration_ms``, server stats, learner statistics) rather
    than from spans.
    """

    cold_s: float
    warm_s: float
    layers: Dict[str, float]


class Tally:
    """Operations attempted and failed.

    A failure is an ERROR/TIMEOUT/CANCELLED verdict, a rejected request, or
    an output that differs from its expected result.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


def fresh_dir(path: str) -> str:
    """*path* as a new, empty directory."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
