"""Machine-speed reference for times measured on a shared machine.

Other tenants of the machine slow every process on it by up to ~1.6x, for
seconds to minutes at a time, the benchmark and this fixed pure-Python loop
alike.  The benchmark times the loop next to each measured interval and
reports ``raw * REFERENCE_S / loop time``: the time the interval would take
when the loop takes REFERENCE_S (about its time when nothing else runs).
The loop uses only the interpreter, so it can run before any import.
"""

import time

REFERENCE_S = 0.0006


def _loop() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += (i % 7) * 1.5
    return total


def reference_s() -> float:
    """The fastest of three timings of the fixed loop, now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a raw interval bracketed by two loop timings into reference time."""
    return REFERENCE_S / ((before + after) / 2.0)
