"""The machine's speed, measured next to the program's work.

The machines the benchmark runs on are shared virtual machines whose speed
drifts by tens of percent within a minute, with every process on them
(see BASELINE.md).  So a run also times a fixed piece of pure-Python work,
``reference_work``, right after each job and around each set-up, and
scales every time it reports by ``NOMINAL_S`` over the reference times
measured next to it.  A reported time is then in *reference seconds*: the
wall time the job would have taken had the machine run at the speed where
``reference_work`` takes ``NOMINAL_S``.  The reference work shares no code
and no state with the program, and runs with the garbage collector off, so
the program's heap does not change it; a faster program therefore reads
faster by the same factor, while a slower machine does not read slower.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

# A time of one reference_work() call within the 2.3 to 4.3 ms seen while
# the benchmark was tuned on the machine of BASELINE.md; it only sets the
# scale of reported times.
NOMINAL_S = 0.0030

# A job's time is scaled by the median of this many reference times
# nearest to it: enough to ride out a reference call that was interrupted,
# few enough to follow the drift.
WINDOW = 9

_A = 10**29 + 7


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def reference_work() -> float:
    """A few milliseconds of the kinds of work the workloads do: symbols of
    a 30-digit number, float and complex series, dictionary counts."""
    signs = [_jacobi(_A, 2 * n + 1) for n in range(1200)]
    total = math.fsum(s / (n + 1) ** 1.5 for n, s in enumerate(signs))
    z = sum(complex(s) * (n + 1) ** -1.5j for n, s in enumerate(signs))
    counts: dict[int, int] = {}
    for n in range(4800):
        counts[n % 61] = counts.get(n % 61, 0) + (n * n) % 7
    return total + abs(z) + len(counts)


def reference_time() -> float:
    """Wall time of one reference_work() call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_times(count: int) -> list[float]:
    return [reference_time() for _ in range(count)]


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time, measured just before refs[i], in reference seconds: times
    NOMINAL_S over the median of the WINDOW reference times nearest to it."""
    if len(times) != len(refs) or not refs:
        raise ValueError("one reference time per measured time is needed")
    half = WINDOW // 2
    lo_max = max(0, len(refs) - WINDOW)
    out = []
    for i, t in enumerate(times):
        lo = min(max(0, i - half), lo_max)
        out.append(t * NOMINAL_S / statistics.median(refs[lo : lo + WINDOW]))
    return out
