"""The machine's speed, gauged between the program's calls.

On the shared 2-core virtual machine the benchmark was defined on, the
speed of a core drifts with its neighbours' load: one ``generate`` at
N=1000 took either about 19 ms or about 25 ms, in stretches of 6 to 30 s,
and CPU time followed wall time, so the process itself ran slower rather
than waited. A 30 s run can fall wholly into either stretch, and raw times
of 30 s windows spread by 12-16 % (quartile distance over median).

The gauge times a fixed reference kernel before the first call of a pass
and after every call. The kernel does the kinds of work the program does:
interpreted Python string formatting, and numpy uniform draws, comparisons
and index arithmetic on fresh multi-megabyte arrays, so it also pays the
page faults the program pays. A call's time is divided by the mean of the
kernel times around it and multiplied by ``REFERENCE_S``, giving the call's
seconds at the reference speed. In ten runs of each workload made in one
stretch, this cut the spread of the median pass time from 9.8 % to 3.5 % on
``mc_panels`` and from 8.8 % to 4.4 % on ``graph_io``. On ``graph_large``,
whose memory-bound time followed the drift less, it rose from 1.9 % to
7.4 % in that stretch; in another, its raw time spread by 19 %. A variant
of the kernel that allocated nothing did worse on ``mc_panels`` (9.9 %).
The kernel never calls the program, so a faster program still shows in
full; raw times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the reference kernel takes at the reference speed: its median on
# the machine above, rounded. Only the ratio of two runs' figures matters.
REFERENCE_S = 0.035

_FORMATTED_ROWS = 40_000
_UNIFORM_BATCH = 1 << 19
_BATCHES = 4


def reference_kernel() -> int:
    text = "".join(f"{i} {i + 7}\n" for i in range(_FORMATTED_ROWS))
    rng = np.random.Generator(np.random.PCG64(7))
    checksum = len(text)
    for _ in range(_BATCHES):
        hits = np.flatnonzero(rng.random(_UNIFORM_BATCH) < 0.4)
        checksum += int(np.cumsum(hits)[-1] & 1)
    return checksum


class SpeedGauge:
    """Scales intervals to the reference speed. Call :meth:`scale` right
    after each timed interval ends; it times the kernel once more, so the
    interval is judged by the kernel times on both sides of it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per kernel run
        reference_kernel()  # first calls and allocations, not timed
        self._last = self._time_kernel()

    def _time_kernel(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        return elapsed

    def scale(self, seconds: float) -> float:
        before, self._last = self._last, self._time_kernel()
        return seconds * REFERENCE_S / ((before + self._last) / 2.0)
