"""The host-speed reference that every reported time is scaled by.

A shared host runs everything 1.3-2x slower for periods of seconds to
minutes, long enough to cover a whole run, so no estimator over a run's own
repetitions removes it. The benchmark therefore times a fixed pure-Python
loop right around every operation (and inside every set-up probe) and
multiplies the operation's time by ``REF_LOOP_S`` over the loop's time: a
reported second is a second on the unloaded host the baseline comes from.
The loop runs outside every timed region, so a change to gpiodac cannot move
it. bench/METRICS.md gives the measurements behind this.
"""

from __future__ import annotations

import time

REF_LOOP = 150_000
# The loop's time on an unloaded 2-vCPU host running Python 3.11, where the
# baseline was measured.
REF_LOOP_S = 0.0115


def reference_s() -> float:
    """The fastest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scale(ref_s: float) -> float:
    """Factor that turns a time measured beside a reference of ``ref_s`` into reference-host time."""
    return REF_LOOP_S / ref_s
