"""A fixed pure-Python probe of the machine's current speed.

On a shared host the speed of a single-threaded, allocation-heavy Python
process moves by up to 2x over tens of seconds, as neighbours compete for
caches and cores; the same cases, run again in the same process, take that
much longer.  The timed window therefore runs this probe between short
segments of cases and divides each case's latency by the local speed
factor: probe time now over ``REFERENCE_S``.  The probe is the benchmark's
own code, so a change to prolongkit does not change its cost.

The probe mixes the two kinds of work prolongkit does: a pointer chase
through an ~8 MB table of int objects (memory latency),
and products of small sparse polynomials with Fraction coefficients held
in dicts (interpreter dispatch and allocation).
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# probe seconds that define a speed factor of 1: the median probe on the
# quiet 2-core machine where the benchmark was written.  Normalised times
# read as times on a machine where the probe takes this long.
REFERENCE_S = 0.02
# entries of the chase table: ~8 MB of list slots and int objects
TABLE = 200_000
CHASE_STEPS = 100_000
# keeps the table's values out of the small-int cache, so each step
# dereferences its own object
_OFFSET = 1 << 20


class SpeedProbe:
    def __init__(self):
        rng = random.Random("speed-probe")
        order = list(range(TABLE))
        rng.shuffle(order)
        nxt = [0] * TABLE
        for a, b in zip(order, order[1:] + order[:1]):
            nxt[a] = b + _OFFSET
        self.table = nxt
        self.polys = [
            {(rng.randint(0, 5), rng.randint(0, 5)):
             Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
             for _ in range(12)}
            for _ in range(4)]

    def run(self) -> float:
        """Seconds one probe takes now."""
        table, off = self.table, _OFFSET
        start = time.perf_counter()
        i = 0
        for _ in range(CHASE_STEPS):
            i = table[i] - off
        for a in self.polys:
            for b in self.polys:
                out: dict = {}
                for (i, j), c in a.items():
                    for (k, m), d in b.items():
                        key = (i + k, j + m)
                        out[key] = out.get(key, 0) + c * d
        return time.perf_counter() - start

    def factor(self, repeats: int = 5) -> float:
        """Median speed factor over `repeats` probes run back to back."""
        return statistics.median(self.run() for _ in range(repeats)) / REFERENCE_S
