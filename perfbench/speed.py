"""The machine's speed at the moment, from a fixed pure-Python kernel.

The shared host this benchmark was defined on changes speed by up to 1.8x
for stretches of seconds to tens of seconds, and the program and a plain
Python loop slow down together.  Raw wall times of two runs therefore
differ by whatever share of each run fell into a slow stretch.  The worker
runs ``kernel`` once before every op (outside the op's latency) and scales
each op's wall time by ``REF_MS / local kernel time``: the op's latency at
the speed where the kernel takes ``REF_MS``.  A change to the program moves
the scaled figures as much as the raw ones, since the kernel uses nothing
of the program; only the machine's drift cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's time in ms on the 2-vCPU x86-64 machine the benchmark was
# defined on (Python 3.11), in its faster state.  Only the unit of the
# scaled figures depends on it.
REF_MS = 1.1

# Kernel samples on each side of an op that set its local speed: op i uses
# the median of the samples taken before ops i - WINDOW .. i + WINDOW + 1.
WINDOW = 3


def kernel() -> int:
    """About 1.1 ms of Fraction arithmetic on growing big ints, like the program's.

    A chain of Fraction products and sums tracked the program's slow
    stretches more closely than a modular big-int loop or a plain
    interpreter loop did, on ops of all three workloads.
    """
    check = 0
    for shift in range(3):
        value = Fraction(1)
        for i in range(1, 60):
            value = value * Fraction(3**i + shift, 5 ** (i % 9) + 2) + Fraction(1, i)
        check ^= value.numerator % 1_000_003
    return check


def sample_ms() -> float:
    """One timed run of the kernel, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def scale_all(latencies: list, samples: list) -> list:
    """Scale each latency by REF_MS over the median of nearby kernel samples.

    ``samples[i]`` was taken just before op i, and one more after the last
    op, so ``len(samples) == len(latencies) + 1``.
    """
    out = []
    for i, dt in enumerate(latencies):
        near = samples[max(0, i - WINDOW): i + WINDOW + 2]
        out.append(dt * REF_MS / statistics.median(near))
    return out
