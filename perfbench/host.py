"""The speed of the program's vCPU, to scale CPU times by.

Every end-to-end time is the CPU time (user + system) of program
processes, not their wall time: on a shared host, wall time also counts
the seconds another tenant held the vCPU, and that time is not the
program's.  CPU time still moves with the host, though: when other
tenants are busy the same work costs more CPU seconds (shared caches
and cores, a slower clock).  On the 2-vCPU host the bounds were fitted
on, twelve consecutive cold ``report``s of one dataset, pinned to one
vCPU, used between 7.3 and 12.0 CPU seconds.

So every CPU time is divided by the speed of the vCPU it ran on, taken
over the same seconds (the ASORanking idea of a CPU microbenchmark taken
with every measurement).  The speed is the thread CPU time of
:func:`probe`, a fixed mix of pure-Python and numpy work.  Program
processes run on one vCPU (:data:`procs.PROGRAM_CPU`), and a
:class:`HostMeter` thread of the benchmark process runs the probe on
that same vCPU every :data:`PERIOD_S`; it takes its CPU time from the
program only in slices, and neither is charged for the other's slices.
The probe slows less than the program when the host gets busy: over 78
stage processes of seventeen runs, the program's CPU time grew as the
probe time to the power 1.46 (log-log fit within each stage; 1.43 and
1.48 on two disjoint sets of runs).  So a CPU time ``c`` measured while
the probe took ``p`` ms on average is reported as
``c * (REFERENCE_MS / p) ** EXPONENT`` (:func:`scaled`): the CPU time
on a vCPU whose probe takes :data:`REFERENCE_MS`.  Over those 78 processes the relative
standard deviation of CPU time about its stage's mean was 0.13 raw,
0.051 divided by the probe time, and 0.032 scaled by its 1.5th power.
The raw times and the probes are kept in the diagnostics line.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: The probe's CPU time, taken beside a program process, on a quiet
#: vCPU of the host the bounds were fitted on (2 vCPUs, 2.0 GHz); the
#: speed every scaled time is at.
REFERENCE_MS = 2.5
#: How CPU time grows with probe time: fitted (1.46) on 78 stage
#: processes of seventeen runs while the host's load varied (see the
#: module docstring).
EXPONENT = 1.45
PERIOD_S = 0.04

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(8_000)
#: 200,000 small Python objects (about 30 MB) and random places in them:
#: the program walks object graphs far larger than a CPU cache, and
#: when other tenants are busy that slows it more than it slows a loop
#: over a few cached values, so the probe does some of the same.
_OBJECTS = [[i, str(i)] for i in range(200_000)]
_PICKS = _RNG.integers(0, len(_OBJECTS), 1_600).tolist()


def probe() -> float:
    """Thread CPU milliseconds of a fixed mix of Python and numpy work."""
    start = time.thread_time()
    total = 0
    for i in range(10_000):
        total += i * i
    for i in _PICKS:
        total += _OBJECTS[i][0]
    order = np.argsort(_VALUES)
    np.cumsum(_VALUES[order])
    {int(x * 1e6): i for i, x in enumerate(_VALUES[:1_000].tolist())}
    return (time.thread_time() - start) * 1000.0


def scaled(cpu_seconds: float, probe_ms: float) -> float:
    """CPU seconds taken while the probe took ``probe_ms``, at the
    reference speed."""
    return cpu_seconds * (REFERENCE_MS / probe_ms) ** EXPONENT


def burst(cpu: int, n: int = 15) -> float:
    """Mean time of ``n`` back-to-back probes on ``cpu``, in ms; the
    calling thread's affinity is restored afterwards."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return statistics.fmean(probe() for _ in range(n))
    finally:
        os.sched_setaffinity(0, before)


class HostMeter:
    """Probes ``cpu`` every :data:`PERIOD_S` while it is running."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (perf_counter, ms)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostMeter":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), probe()))

    def mean_ms(self, start: float, end: float) -> float:
        """Mean probe time between two ``perf_counter`` readings (a
        fresh burst when the window is too short to hold a sample)."""
        window = [ms for t, ms in self.samples if start <= t <= end]
        return statistics.fmean(window) if window else burst(self.cpu)
