"""The host's speed, measured with a fixed reference kernel during the run.

Shared cloud hosts change speed under the same code: on a shared 2-core x86
VM, a fixed pure-Python loop took 0.020 s in one 30-second window and
0.028 s in another, with nothing else of the benchmark running.  A run that
lands in a slow window reads up to a third slower, whatever the code does.
So every run times a fixed kernel (no ``repro`` code: a Python loop and a
few numpy passes, about 20 ms) before each unit of work, and reports its
timings scaled to a host on which the kernel takes ``REFERENCE_SECONDS``: a
time ``t`` is reported as ``t * REFERENCE_SECONDS / kernel`` and a rate
``x`` as ``x * kernel / REFERENCE_SECONDS``, where ``kernel`` is the median
kernel time of the run.  The raw values are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel seconds of the reference host (about this benchmark's median on a
#: shared 2-core x86 VM); scaled values are in seconds of that host.
REFERENCE_SECONDS = 0.02

_ARRAY = np.linspace(0.0, 1.0, 400_000)
_OUT = np.empty_like(_ARRAY)


def _kernel() -> float:
    """Python bytecode and numpy passes, allocating nothing: a process's heap
    state must not change its time."""
    total = 0.0
    for k in range(120_000):
        total += (k * 0.5) % 7.0
    np.multiply(_ARRAY, 1.0001, out=_OUT)
    for _ in range(6):
        np.add(_OUT, 0.5, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
    return total + float(_OUT.sum())


class SpeedProbe:
    """Kernel timings taken through the run; ``factor`` scales times."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def kernel_seconds(self) -> float:
        return statistics.median(self.samples)

    def time_factor(self) -> float:
        """Multiply a time by this to express it in reference-host seconds."""
        return REFERENCE_SECONDS / self.kernel_seconds()
