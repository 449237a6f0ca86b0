"""Operation timing normalised by a fixed pure-Python reference loop.

The speed of identical code drifts by tens of percent between runs and
within one run on small shared machines, while process CPU time tracks
wall time, so the drift is not scheduling.  `reference_loop` is a fixed
piece of interpreter work that never touches `affmv`.  The clock runs it
alternately with the operations and scales every operation by the loop's
local speed, the mean of the loop timings just before and just after it.
Normalised seconds are seconds at the loop's nominal speed: one loop
call takes exactly `NOMINAL_LOOP_S`.
"""

from __future__ import annotations

import time
from typing import Callable

# Iterations of one reference-loop call and the seconds that call takes
# at nominal speed (1.5 M loop iterations per second).
LOOP_ITERS = 3000
NOMINAL_LOOP_S = 0.002


def _mix(a: int, b: int) -> int:
    return (a * b + a - b) % 97


def reference_loop(n: int = LOOP_ITERS) -> int:
    """Integer arithmetic, small tuples, dict traffic, calls and a generator.

    The mix follows the shape of the library's own inner loops; the
    result is returned so that no step can be skipped.
    """
    acc = 0
    table: dict[int, int] = {}
    items: list[tuple[int, int, int]] = []
    for i in range(n):
        t = (i & 15, (i * 7) % 13, i >> 3)
        k = t[0] * 31 + t[1]
        table[k] = table.get(k, 0) + t[2]
        items.append(t)
        if len(items) > 32:
            acc += sum(x[1] for x in items)
            items.clear()
        acc ^= _mix(t[0], t[1])
    return acc + len(table)


def loop_seconds() -> float:
    """Raw wall-clock seconds of one reference-loop call."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Clock:
    """Times calls and scales each one by the reference loop around it."""

    def __init__(self) -> None:
        reference_loop()  # warm the loop's own code path once
        self._before = loop_seconds()
        self.loop_samples = [self._before]

    def time(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run fn(); return (result or raised exception, raw s, normalised s)."""
        t0 = time.perf_counter()
        try:
            result: object = fn()
        except Exception as err:  # the caller decides whether this is a failure
            result = err
        raw = time.perf_counter() - t0
        return result, raw, raw * self.scale_now()

    def scale_now(self) -> float:
        """Scale factor for work that just ended: nominal over local loop time."""
        after = loop_seconds()
        scale = NOMINAL_LOOP_S * 2.0 / (self._before + after)
        self._before = after
        self.loop_samples.append(after)
        return scale
