"""Host speed, sampled between the timed units of a run.

On a shared host the CPU's speed moves in phases from a second to minutes, so
whole runs can land in a fast or a slow phase. A fixed kernel of small numpy
ops and a Python loop, independent of avfusion, runs for about 2% of each
unit's time right after the unit. Its lower-quartile rate over the run,
divided by its rate on the reference box, is the run's host speed; the bench
reports throughputs divided by it, i.e. at the reference box's speed.

Every matmul is below OpenBLAS's multithreading threshold (m*n*k < 262144),
so the probe runs on one thread whatever the BLAS thread setting.
"""

from __future__ import annotations

import time

import numpy as np

# lower-quartile probe rate on the reference box (2-core Xeon VM, numpy 2.4
# with scipy-openblas 0.3.31): the median over 5-run sets of each workload
# read 989 to 1008 per second
REFERENCE_RATE = 1000.0
SHARE = 0.02           # probe time per unit of workload time


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((56, 56))
        self.b = rng.standard_normal((56, 56))
        self.v = rng.standard_normal(20000)
        self.rates: list[float] = []

    def kernel(self) -> None:
        for _ in range(30):
            np.tanh(self.a @ self.b + 1.0)
        self.v * 2.0 + self.v
        total = 0
        for i in range(3000):
            total += i

    def sample(self, unit_s: float) -> None:
        """Run the kernel for about SHARE * unit_s seconds, at least once."""
        until = time.perf_counter() + SHARE * unit_s
        while True:
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.rates.append(1.0 / (t1 - t0))
            if t1 >= until:
                return

    def speed(self, lower_quartile) -> float:
        """Host speed of the run so far relative to the reference box."""
        return lower_quartile(self.rates) / REFERENCE_RATE
