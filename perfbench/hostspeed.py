"""Host-speed normalisation of the benchmark's host-time samples.

On a shared VM the speed of a vCPU swings by up to 2x, over fractions of
a second to minutes, as other tenants come and go, and a process's CPU time drifts with
its wall time, so CPU time does not cancel it.  The benchmark therefore
times a fixed pure-Python kernel (:func:`kernel`, a small event loop
over a heap, slotted objects, lists and a dict, a mix of work like the
simulator's) right after every host-time sample, and scales the sample
by ``NOMINAL_KERNEL_S / k``, where ``k`` is the mean kernel time just
before and just after it.  A sample then reads as the time it would have
taken on a host that runs the kernel in ``NOMINAL_KERNEL_S``.

The kernel is the benchmark's own code, the same on every commit, so a
change to the program moves the scaled samples exactly as it moves the
raw ones.  The raw median kernel time of a run is printed beside the
metrics (``host_kernel_ms``).
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter
from typing import Sequence

#: About the median kernel time on the host the bounds were set on (a
#: 2-vCPU Xeon VM at 2.0 GHz, Python 3.11.7).
NOMINAL_KERNEL_S = 0.008

KERNEL_STEPS = 6000


class _Node:
    __slots__ = ("name", "queue", "count")

    def __init__(self, name: int) -> None:
        self.name = name
        self.queue = []
        self.count = 0


def kernel() -> int:
    """A fixed amount of interpreter work, about 8 ms on the host above."""
    nodes = [_Node(i) for i in range(16)]
    rng = random.Random(5)
    heap = [(rng.random(), i % 16) for i in range(200)]
    heapq.heapify(heap)
    last = {}
    for step in range(KERNEL_STEPS):
        when, index = heapq.heappop(heap)
        node = nodes[index]
        node.count += 1
        node.queue.append(step)
        if len(node.queue) > 4:
            node.queue.pop(0)
        last[(index, step & 63)] = when
        heapq.heappush(heap, (when + rng.random(), (index * 7 + step) % 16))
    return sum(node.count for node in nodes)


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def nominal_factor(kernel_s: Sequence[float]) -> float:
    """Scale factor from the median of several kernel times."""
    return NOMINAL_KERNEL_S / statistics.median(kernel_s)


class HostSpeed:
    """Scale factors for samples taken one after another."""

    def __init__(self) -> None:
        time_kernel()  # warm up
        self.last = time_kernel()
        self.kernel_s = [self.last]

    def scale(self) -> float:
        """Factor for the sample that has just ended (call right after it)."""
        now = time_kernel()
        self.kernel_s.append(now)
        factor = NOMINAL_KERNEL_S / ((self.last + now) / 2)
        self.last = now
        return factor

    def report(self) -> str:
        return (f"host_kernel_ms {statistics.median(self.kernel_s) * 1e3!r} ms "
                f"(nominal {NOMINAL_KERNEL_S * 1e3:g}, "
                f"{len(self.kernel_s)} samples)")
