"""Timing helpers shared by run.py and the oracle-sweep worker."""

from __future__ import annotations

import math
import os
import platform
import statistics
from time import perf_counter

TAIL_SUPPORT = 10  # samples that must lie beyond the reported tail percentile


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for ``op_tail_s``.

    The tail is the highest percentile with at least TAIL_SUPPORT samples
    beyond it: of n sorted samples, the one at rank n - TAIL_SUPPORT. When
    that rank falls below the median (n < 2 * TAIL_SUPPORT) no tail
    percentile has that support, and the maximum is reported instead with
    zero samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_SUPPORT
    if rank < math.ceil(n / 2):
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def closed_loop(seconds: float, op, between=None) -> None:
    """Call ``op()`` back to back, one at a time, for about ``seconds``.

    ``op`` returns its own wall time. A new call starts only if one more
    call as long as the last would still end inside the window, so a run
    of long operations does not overrun by a whole operation. If given,
    ``between(last)`` runs after every call; its time is not part of the
    window.
    """
    start = perf_counter()
    paused = 0.0
    while True:
        last = op()
        if between is not None:
            t = perf_counter()
            between(last)
            paused += perf_counter() - t
        if perf_counter() - start - paused + last > seconds:
            return


def reference_kernel_s() -> float:
    """Median of 3 timings of a fixed pure-Python and NumPy kernel.

    Nothing is normalised by it; it shows host drift between runs.
    """
    import numpy as np

    data = np.random.default_rng(12345).random(400_000)

    def kernel():
        t = perf_counter()
        acc = 0.0
        for i in range(600_000):
            acc += math.sqrt(i)
        np.sort(data)
        return perf_counter() - t

    return statistics.median(kernel() for _ in range(3))


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
