"""Host-speed calibration for the end-to-end times.

The host this benchmark was written on (2 vCPUs of a shared Intel Xeon)
switches between a fast and a slow state, about 1.7x apart, every few
seconds, and the share of time it spends slow changes from minute to minute.
Runs of the same code minutes apart then differ by up to 1.5x.

After every attempt of the timed loop, outside the attempt's latency, the
harness times one call of a fixed kernel that does the same kind of work as
the workload's requests but never calls ``tailmax``, so a change to the
program cannot move it; only the host can.  The run's slowdown is the mean
kernel time over the run divided by the kernel's reference time.  The mean,
not the median: with two host states the median jumps from one state to the
other, while the mean follows the share of time spent slow, as the workload's
own times do.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np


@functools.cache
def _points() -> list[list[float]]:
    return [[0.3 + 0.01 * ((7 * i + j) % 97) for j in range(4)] for i in range(2000)]


def _scalar_kernel() -> float:
    """Scalar float arithmetic in Python, like the search's objective: a
    max-factored power sum over 2,000 points of 4 coordinates."""
    acc = 0.0
    for xs in _points():
        m = max(xs)
        s = math.fsum((v / m) ** 2.3 for v in xs)
        acc += m * s ** (1 / 2.3)
    return acc


@functools.cache
def _arrays():
    x = np.linspace(0.1, 5.0, 40401 * 3).reshape(-1, 3)
    return x, np.empty((len(x), 1)), np.empty_like(x)


def _batch_kernel() -> float:
    """The same power sum row-wise with numpy over a 40,401 x 3 array (the
    default d = 3 lattice), into buffers allocated once so that the
    program's heap does not affect it."""
    x, row_max, scaled = _arrays()
    np.max(x, axis=1, keepdims=True, out=row_max)
    np.divide(x, row_max, out=scaled)
    np.power(scaled, 2.3, out=scaled)
    return float(scaled.sum())


# workload -> (kernel, a typical mean time of it on the host named above, in
# seconds; it only sets the scale of the reported times)
KERNELS = {
    "search-mix": (_scalar_kernel, 0.0024),
    "grid-batch": (_batch_kernel, 0.0033),
}


def kernel_s(workload: str) -> float:
    """Seconds one call of the workload's kernel takes."""
    kernel, _ = KERNELS[workload]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(workload: str, samples: list[float]) -> float:
    """How much slower than the reference the host ran over ``samples``
    (kernel times of one run); above 1 when slower."""
    _, reference = KERNELS[workload]
    return math.fsum(samples) / len(samples) / reference
