"""Speed-normalised timing.

Every ``*_s`` figure the benchmark reports is ``raw_s * REF_NOMINAL_S /
ref_s``.  ``raw_s`` is the CPU time an operation used (the process's CPU
time minus the sampler thread's, so numpy's BLAS threads count); for this
CPU-bound program it is within 3% of wall time.  ``ref_s`` is the mean
CPU time of a fixed reference loop, which a background thread runs every
``PERIOD_S`` while a pass of the workload runs.

Why concurrent: the machine flips between a fast and a slow state (about
2x for Python code) every few seconds, per core.  A reference run only
between operations cannot see the state during a 20 s operation.  Sharing
the interpreter lock and pinned to the workload thread's CPU, the sampler
time-shares the workload's core, and its own CPU time slows down exactly
when the workload's does.  (Without the pin it would run on the other
core whenever numpy's LAPACK calls release the lock.)  Over five
runs of a 15-20 s operation, raw time varied by 12% (CV) and the
normalised figure by 0.9%.  The samples are spread evenly in time, so
their mean weights each stretch of the pass by its length; normalising
each operation by the samples near it instead was no steadier (and with
the fastest of several repeats it picks out noise).

The reference imports nothing from ``teameq``; it mixes a Python-level
loop over a dict with small numpy solves, as the library's oracles and
maxmin solver do, and allocates no objects the garbage collector tracks.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Mean CPU time of ``reference_work`` on the machine the benchmark was
#: tuned on (2-core Intel Xeon VM, Python 3.11, numpy 2.4), so that
#: normalised seconds read close to CPU seconds there.
REF_NOMINAL_S = 0.009
PERIOD_S = 0.25

_REF_MATRIX = np.eye(8) * 4.0 + np.sin(np.arange(64.0)).reshape(8, 8)


def reference_work() -> float:
    """Fixed unit of work, about 9 ms; its result is consumed by the caller."""
    table: dict = {}
    acc = 0.0
    for i in range(10_000):
        key = (i % 97) * 13 + i % 13
        table[key] = table.get(key, 0) + i
        acc += key & 7
    v = np.ones(8)
    for _ in range(300):
        v = np.linalg.solve(_REF_MATRIX, v)
        v = v / np.abs(v).sum()
        acc += float(_REF_MATRIX @ v @ v)
    return acc + len(table)


class Sampler:
    """Background thread running ``reference_work`` every ``PERIOD_S``.

    ``samples`` holds the CPU seconds of each run of the reference loop.
    Use as a context manager around a pass; entering pins the calling
    thread, and so the sampler it starts, to one CPU until exit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="reference-sampler")
        self._clock = None
        self._sink = 0.0

    def __enter__(self) -> "Sampler":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if len(self.samples) < 3:  # a pass shorter than the period
            for _ in range(3):
                self._sample()
        os.sched_setaffinity(0, self._affinity)

    def cpu(self) -> float:
        """CPU seconds the sampler thread has used so far."""
        return time.clock_gettime(self._clock)

    def _sample(self) -> None:
        c0 = time.thread_time()
        self._sink += reference_work()
        self.samples.append(time.thread_time() - c0)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def ref_s(self) -> float:
        return statistics.mean(self.samples)


def time_call(sampler: Sampler, prepare, call, repeats: int):
    """Fastest of ``repeats`` runs of ``call(prepare())``.

    ``prepare`` runs outside the timed region before every repeat, so each
    repeat starts from freshly built inputs.  A raised exception is an
    outcome, not an abort: it is timed like a return.  Returns ``(cpu s,
    wall s)`` of the repeat with the least CPU time and the ``(result,
    exception)`` of the first repeat.
    """
    runs = []
    outcome = None
    for _ in range(repeats):
        args = prepare()
        s0, c0, w0 = sampler.cpu(), time.process_time(), time.perf_counter()
        try:
            result, error = call(args), None
        except Exception as exc:  # a failing operation is measured and counted
            result, error = None, exc
        wall = time.perf_counter() - w0
        runs.append((time.process_time() - c0 - (sampler.cpu() - s0), wall))
        if outcome is None:
            outcome = (result, error)
    return min(runs), outcome
