"""A fixed pure-Python probe of the host's speed, for normalising timings.

The benchmark runs on a few virtual CPUs of a shared host.  Whether a
neighbour is busy on the same physical core changes how fast the same
code runs by up to 1.7x, in stretches of seconds to minutes, and no
estimator inside one run removes a stretch that covers the whole run.
The probe below does the same fixed work every time, touches nothing of
the library, and runs with the garbage collector off, so its time
depends on the host alone.  The benchmark runs it between every two units
of work; a unit's time divided by the mean of the probes on either side
of it, times :data:`NOMINAL_S`, is the unit's time on a host where the
probe takes :data:`NOMINAL_S`.  Code that gets faster gets faster by the
same factor after this scaling; a slow stretch of the host slows the
probe and the unit alike and cancels.
"""

from __future__ import annotations

import gc
import heapq
import random

from spans import clock

__all__ = ["NOMINAL_S", "probe"]

#: The probe's time on an uncontended vCPU of the host the benchmark was
#: tuned on (Intel Xeon, Python 3.11); it only sets the scale of the
#: normalised timings.
NOMINAL_S = 0.004

_N = 6000


def _work() -> float:
    """Interpreter work of the kind the scheduler does: a heap, a dict, a sort."""
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(_N):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i] = (x * 3.0 + 1.0) / (x + 0.5)
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += table.pop(j) * t
    items = sorted(table.items(), key=lambda kv: kv[1])
    return acc + sum(v for _, v in items[:10])


def probe() -> float:
    """Wall seconds of one run of the fixed work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _work()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()
