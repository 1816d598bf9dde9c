"""Host-speed calibration for the benchmark's timings.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent over seconds to minutes, for every process alike, so raw wall times
of the same code differ more between runs than any bound worth gating on.
Each timed operation (an op, a CLI process, a set-up) is therefore
bracketed by ``sample()``, a fixed pure-Python loop that calls nothing of
tnormlab, and reported at the reference speed:

    reference seconds = measured seconds * REF_S / mean(sample before, after)

``REF_S`` is the loop's nominal time; on a 2-vCPU Intel Xeon VM the loop
takes about that long, so there the figures read as plain seconds.  A change
to tnormlab moves the measured time and not the loop, so it shows in full.
The unscaled times are kept in each run's record under ``bench/out/``.
"""

from __future__ import annotations

import os
import time

#: the calibration loop's time at the reference speed.
REF_S = 1e-3

_ITERATIONS = 5000


def _loop() -> float:
    acc = 0.0
    table = {}
    for i in range(_ITERATIONS):
        x = (i % 97) / 97.0
        acc += x * x / (1.0 + x)
        table[i & 63] = acc
    return acc + len(table)


def sample() -> float:
    """Seconds of one calibration loop: the median of three timings (the
    first timing in a process runs cold)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def scaled(seconds: list[float], cal: list[float]) -> list[float]:
    """``seconds[i]`` at the reference speed, where ``cal[i]`` and
    ``cal[i + 1]`` are the samples taken just before and just after it."""
    assert len(cal) == len(seconds) + 1
    return [dt * 2.0 * REF_S / (cal[i] + cal[i + 1])
            for i, dt in enumerate(seconds)]


def pin_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that a
    calibration sample and the work it brackets run on the same core (on a
    shared host each core drifts on its own).  The benchmark has one caller
    and waits for each child, so nothing else needs a second core."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass
