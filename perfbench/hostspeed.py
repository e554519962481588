"""The reference loop that the benchmark's times are divided by.

The host's speed drifts by up to 1.6x over seconds to minutes (measured on a
2-core VM with no steal time). Dividing a time by the time of this fixed
pure-Python loop, taken next to it, removes most of that drift from the
run-to-run spread. The module imports only math and time, so a fresh
interpreter can load it before it times the package's set-up.
"""

import math
import time

_STEPS = 8000  # about 1 ms


def reference_seconds() -> float:
    """Time of the loop, the fastest of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for i in range(1, _STEPS):
            total += math.sqrt(i) / i
        best = min(best, time.perf_counter() - start)
    return best
