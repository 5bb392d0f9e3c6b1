"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's machine is a share of a host it splits with other tenants:
the same call runs up to half again slower for seconds to minutes at a time,
on both cores at once, and the state flips many times a minute.  Timing this
kernel next to every operation gives the speed of the machine at that
moment, so an operation's time divided by the kernel's (its cost in
reference units) does not move with the machine, only with the program.

The kernel does not touch ``scbf``; like the program it mixes interpreted
Python with small numpy array operations, and it runs single-threaded under
the runner's BLAS/OpenMP pinning.  It takes about 5-7 ms on a 2.1 GHz Xeon.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 5
# The kernel's median time on the 2-core 2.1 GHz Xeon the benchmark was tuned
# on.  A cost in reference units times this is seconds on that machine at its
# usual speed: how ``setup_s`` is reported.
NOMINAL_S = 0.0065

_MATRIX = np.random.default_rng(0).random((200, 200))


def kernel() -> float:
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    b = _MATRIX
    for _ in range(10):
        b = np.tanh(b @ _MATRIX * 1e-3) + _MATRIX[::-1]
    return total + float(b[0, 0])


def measure(reps: int = REPS) -> float:
    """Median seconds of ``reps`` back-to-back runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
