"""How fast the machine runs this process right now.

On a shared machine the speed one process gets changes by up to about 1.8x
for tens of seconds at a time, and a whole benchmark run can fall inside one
slow stretch.  The slowdown is uniform: a fixed loop of standard-library
rational arithmetic and dict inserts slows by the same factor as the library
does (on the 2-core Xeon this was written on, a tariff computation and this
loop both ran 1.74x their fastest time over 100 seconds, and the ratio of
the two stayed within 3% between its quartiles).

The benchmark times this loop next to every job and scales each latency by
`REFERENCE_S / calibration`, which expresses it in reference seconds: the
time the job takes when the loop takes `REFERENCE_S`, the loop's fastest
time on that machine.  The loop uses nothing from the library, so a change
to the library cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.006
ROUNDS = 1000


def _loop() -> int:
    table = {}
    total = Fraction(0)
    for i in range(1, ROUNDS + 1):
        total += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i)
        table[(i, i % 5)] = (total, i)
    return len(table)


def calibrate() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
