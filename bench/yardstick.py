"""A fixed piece of pure-Python work that gauges the machine's current speed.

The shared host runs the same code at speeds up to 2x apart, in phases
that last from a second to minutes, so wall seconds measured in different
phases do not compare.  Timing this loop just before and just after a
timed span, and scaling the span by the loop's reference time over the
mean of the two, gives the span's seconds at the reference speed.  Over
20 minutes of back-to-back ``detect`` calls of about a second, medians of
30 calls whose wall times were up to 1.5x apart came within 12% of each
other once scaled.

The loop splits and converts CSV-like text and sums it into a dict of
some 40k keys, the kind of work ``detect`` spends its time on, with a
working set of a few MB.  It uses none of the program's code, so no
change to the program moves it.
"""

from __future__ import annotations

import random
import time

LINES = 40_000
SEED = 5

# Seconds of one loop on the 2-vCPU Intel Xeon this benchmark was tuned on
# (about its median there).  Scaled times read as seconds on that machine.
REFERENCE_S = 0.05


class Yardstick:
    """Scales spans timed back to back by the loop timed between them."""

    def __init__(self) -> None:
        rng = random.Random(SEED)
        self.lines = [
            f"10.0.{rng.randrange(256)}.{rng.randrange(256)},{rng.randrange(65536)},"
            f"{rng.randrange(3)},{rng.random() * 1e4:.2f}"
            for _ in range(LINES)
        ]
        self.loop()  # the first pass grows the allocator's pools; time later ones
        self.last = self.time_loop()

    def loop(self) -> int:
        counts: dict[tuple[str, int], float] = {}
        for line in self.lines:
            host, port, _, size = line.split(",")
            key = (host, int(port))
            counts[key] = counts.get(key, 0.0) + float(size)
        return len(counts)

    def time_loop(self) -> float:
        start = time.perf_counter()
        self.loop()
        return time.perf_counter() - start

    def scale(self, elapsed: float) -> float:
        """``elapsed`` (the span just ended) in seconds at the reference speed."""
        after = self.time_loop()
        speed = (self.last + after) / 2
        self.last = after
        return elapsed * REFERENCE_S / speed
