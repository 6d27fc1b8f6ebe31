"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants. Their load
slows the whole process for seconds to minutes at a time, by up to 2x,
without taking the CPU away from it (thread CPU time grows with wall
time). No statistic of one run's wall times removes that: a run that is
slowed throughout has no fast blocks left to find.

So the untraced pass times a small reference kernel, written here and
using nothing from ``repro``, just before and just after each block and
each set-up. The kernel's time over its nominal time is the host's
slowdown at that moment, and a block's wall time divided by the mean of
its two readings is the block's time at the nominal host speed. A change
to the library moves that time as it moves the wall time; the kernels are
the same on every commit.

Other tenants slow different kinds of work by different factors, so each
workload reads the kernel that does its kind of work (its
``host_kernel``):

* ``interpreter``: dict updates and string formatting in the Python
  interpreter, like the serving simulator's event loop;
* ``matmul``: a float32 matrix product in BLAS, like the f16 path's
  5-step MMA;
* ``popcount``: one step of a blocked popcount GEMM on ``uint32`` words,
  on buffers of the size the 1-bit path's steps allocate.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np


def _interpreter() -> Callable[[], object]:
    def run() -> int:
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + len(str(i))
        return len(counts)

    return run


def _matmul() -> Callable[[], object]:
    m = np.random.default_rng(0).standard_normal((400, 400)).astype(np.float32)

    def run() -> float:
        return float((m @ m @ m).sum())

    return run


def _popcount() -> Callable[[], object]:
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2**32, size=(512, 1, 32), dtype=np.uint32)
    cols = rng.integers(0, 2**32, size=(1, 256, 32), dtype=np.uint32)
    # 16 MB, the size of one step's XOR temporary in the bit GEMM: far
    # larger than the cache, so the kernel, like the workload, streams
    # through memory. A kernel whose buffers stay in cache tracked
    # ``ultrasound-int1`` no better than the float32 product. The buffers
    # are allocated once, so that the readings do not depend on the state
    # of the allocator that the library leaves behind.
    mixed = np.empty((len(rows), cols.shape[1], cols.shape[2]), dtype=np.uint32)
    counts = np.empty(mixed.shape, dtype=np.uint8)

    def run() -> int:
        np.bitwise_xor(rows, cols, out=mixed)
        return int(np.bitwise_count(mixed, out=counts).sum(axis=-1).sum())

    return run


#: kernel -> (builder, its nominal time in ms: its time at a quiet moment
#: of the host of ``perf/README.md``, a shared 2-vCPU Intel Xeon VM at
#: 2.0 GHz, Python 3.11, NumPy 2.4, one BLAS thread).
KERNELS = {
    "interpreter": (_interpreter, 2.2),
    "matmul": (_matmul, 2.2),
    "popcount": (_popcount, 10.0),
}


class HostSpeed:
    """Reads the host's slowdown with one reference kernel."""

    def __init__(self, kernel: str) -> None:
        build, self.nominal_ms = KERNELS[kernel]
        self._run = build()
        self._run()  # the first run pays start-up (BLAS buffers, caches)

    def slowdown(self) -> float:
        """Run the kernel once; its time as a multiple of nominal."""
        t0 = time.perf_counter_ns()
        self._run()
        return (time.perf_counter_ns() - t0) / 1e6 / self.nominal_ms
