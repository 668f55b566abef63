"""A fixed loop of plain Python work that tracks the machine's speed.

The machine this benchmark was built on (a 2-core virtual machine) runs the
same job up to about 1.7 times faster or slower for minutes at a time, in
CPU time as well as wall time, with nothing else running in the guest.  The
loop's time follows that speed, so times divided by it hold still: over ten
seeds, pass times spread by up to 0.53 (quartile distance over median)
where the same times divided by the loop spread by at most 0.15.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Loop time, in seconds, on the machine the baseline was recorded on, in its
# usual (slower) phase; setup_s is scaled to it.
REFERENCE_S = 0.009


def calibrate() -> float:
    """Time a fixed loop of plain Python work that calls no pdeg code.

    The garbage collector is off during the loop, so the heap pdeg leaves
    behind does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(40_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        big = 1
        for i in range(1, 400):
            big = big * (i + 7) // (i % 13 + 1) + math.comb(200, i % 200)
        frac = Fraction(0)
        for i in range(1, 200):
            frac += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
