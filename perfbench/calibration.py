"""Machine-speed calibration for a shared, noisy machine.

A fixed kernel of small numpy ops and Python object churn, the same kind
of work as the program's, runs in short bursts between the benchmark's
operations. Each measured sample is then scaled by REFERENCE_S over the
kernel's median time in the bursts near it, so a stretch in which the
machine is slower (other tenants, frequency changes) slows the kernel and
the program together and cancels out. The kernel is the benchmark's own
code: a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

import numpy as np

# The kernel's time on an unloaded core of the machine the bounds were set
# on (2-core x86 VM, Python 3.11, numpy 2.4, OpenBLAS, one thread).
REFERENCE_S = 0.002
REPEATS = 5

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(60, 48))
_W = _rng.normal(size=(48, 48))


def _kernel() -> float:
    nodes = []
    acc = 0.0
    for _ in range(120):
        h = np.maximum(_A @ _W, 0.0) * 0.5 + 1.0
        nodes.append((h, nodes[-1] if nodes else None))
        acc += float(h.sum())
    return acc


class Calibrator:
    """Kernel bursts over a run, and the speed factor they imply at a time."""

    def __init__(self) -> None:
        self.bursts: List[Tuple[float, float]] = []  # (start time, median kernel s)

    def burst(self, repeats: int = REPEATS) -> None:
        times = []
        start = time.perf_counter()
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.bursts.append((start, statistics.median(times)))

    def factors(self, times: List[float], window: float) -> List[float]:
        """REFERENCE_S over the median kernel time of the bursts within
        ``window`` seconds of each sample time (at least the nearest few)."""
        at = [t for t, _ in self.bursts]
        out = []
        for t in times:
            lo = bisect.bisect_left(at, t - window)
            hi = bisect.bisect_right(at, t + window)
            if hi - lo < 3:
                i = bisect.bisect_left(at, t)
                lo, hi = max(0, i - 2), min(len(at), i + 2)
            out.append(REFERENCE_S / statistics.median(s for _, s in self.bursts[lo:hi]))
        return out
