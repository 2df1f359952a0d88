"""Machine-speed calibration: a fixed pure-Python kernel timed during a run.

On a shared host the speed of one core moves by up to 2x over a minute or
two as other tenants come and go, and the package's stages slow down with
it. A fixed interpreter workload timed next to them slows by about the same
factor. A run times ``kernel()`` several times and scales its times by
``REFERENCE_S / median(kernel times)``: the times it reports are CPU
seconds at the speed at which the kernel takes ``REFERENCE_S``. The kernel
does not touch the package, so a change to the package moves the scaled
times exactly as it moves the raw ones.

The kernel is an integer loop in the interpreter. Over five minutes of
``deep-d4`` passes, the solve and enumeration times rose and fell with it
at a log-log slope of 1.0 (correlation 0.84); a kernel of big-int bitset
intersections, dict counts and a heap swung further than the package did
(slope 0.65).
"""
from __future__ import annotations

import statistics
import time

# median kernel time on the quiet shared 2-core Intel Xeon the benchmark
# was built on; any fixed value works, this one keeps scaled times near
# that machine's raw seconds
REFERENCE_S = 0.1


def kernel():
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


class Calibration:
    """Kernel times of one run and the factor that scales its times."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.samples = []

    def sample(self):
        t0 = self.clock()
        kernel()
        self.samples.append(self.clock() - t0)

    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)
