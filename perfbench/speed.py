"""The machine's speed of the moment, from a fixed pure-Python loop.

On a shared host the same work can take tens of percent longer from
one minute to the next, and longer runs do not average that away.  A
phcalc process slows with the host much as this loop does, so the
benchmark times the loop next to every operation (before and after it)
and rescales the operation's wall time to the speed at which one loop
takes REFERENCE_S: `rescale(wall, before, after)`, seconds at
reference speed.  The loop mixes small-int arithmetic with big-int
bit operations, tuples and a dict, as phcalc's GF(2) and complex code
does.  It is part of the benchmark, so it is the same for every
version of phcalc.
"""

from __future__ import annotations

import gc
import time

# Seconds one loop takes at reference speed (about its median on a
# 2-vCPU cloud VM with Python 3.11).
REFERENCE_S = 0.1


def _loop() -> int:
    total = 0
    for i in range(500_000):
        total += i * i % 7
    rows: dict[tuple[int, int], int] = {}
    cur = (1 << 1500) | 12345
    for i in range(120_000):
        low = cur & -cur
        cur ^= (low << 3) | i
        key = (i % 97, i % 89)
        rows[key] = rows.get(key, 0) ^ low.bit_length()
    return total + len(rows)


def loop_s() -> float:
    """Wall seconds of one calibration loop, now.

    The garbage collector is off meanwhile, so the time does not
    depend on how many objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rescale(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` at reference speed, given the loop times just before and after."""
    return wall_s * 2 * REFERENCE_S / (before_s + after_s)
