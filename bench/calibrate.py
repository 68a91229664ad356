"""A fixed pure-Python kernel that measures how fast the machine is right now.

The benchmark's machine is shared, and its speed drifts by up to a factor
of two in spells that last from seconds to minutes.  Every timed part of a
run is therefore paired with runs of this kernel taken next to it, and the
end-to-end timings are reported in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the median of the kernel runs taken with the
timed part.  The kernel does the kinds of work noisegate does (tuples,
dict grouping, sorting, `Fraction` sums, SHA-256, seeding `random.Random`)
on fixed inputs, imports nothing from noisegate and runs with the cyclic
garbage collector off, so its time depends on the machine and the
interpreter but not on the program under test or on the size of its heap.

    python3 bench/calibrate.py      # prints the kernel's median time here
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from fractions import Fraction

# Median kernel time on the machine where the benchmark was defined
# (Python 3.11.7, 2 cores).  Any fixed value would do: it only sets the
# unit the scaled timings are reported in.
REFERENCE_S = 0.012

ROWS = 10_000
KEYS = 60


def _work() -> tuple:
    rng = random.Random(20240601)
    rows = [(rng.randrange(1000), rng.random(), "k%d" % rng.randrange(KEYS)) for _ in range(ROWS)]
    groups: dict[str, list] = {}
    for a, b, key in rows:
        groups.setdefault(key, []).append((a, b))
    total = Fraction(0)
    digest = hashlib.sha256()
    for key in sorted(groups):
        values = sorted(groups[key])
        total += Fraction(sum(a for a, _ in values), len(values))
        digest.update(repr(values[len(values) // 2]).encode())
        stream = random.Random(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))
        total += stream.randrange(100)
    kept = [row for row in rows if row[0] % 3 and row[1] < 0.9]
    return total, digest.hexdigest(), len(kept)


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured next to `samples` into
    reference seconds."""
    return REFERENCE_S / statistics.median(samples)


if __name__ == "__main__":
    times = [kernel_seconds() for _ in range(200)]
    print(f"kernel median {statistics.median(times):.6f} s over {len(times)} runs, "
          f"min {min(times):.6f} s")
