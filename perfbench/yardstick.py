"""Host-speed yardstick: reports timings at a reference host speed.

The host this benchmark was built on runs the same work at speeds that
differ by up to 1.7x between windows of ten seconds to minutes, and CPU
time tracks wall time, so neither longer runs nor CPU clocks steady the
figures.  A fixed pure-Python kernel whose instruction mix resembles
the engine's (small frozenset intersections, heap pushes and pops, dict
lookups over a table larger than the caches, a sort, float arithmetic)
slows down with it.  The kernel shares no code with ``src/``, so a
change to the program cannot move it.

Every timing the benchmark reports is made inside a
:meth:`Yardstick.bracket`: a block of a few seconds of work with the
kernel run :data:`RUNS` times just before it and just after it.  The
block's timings are scaled by ``REFERENCE_MS / kernel_ms``, with
``kernel_ms`` the median of those runs: the figure is in milliseconds
*at the speed at which the kernel takes* ``REFERENCE_MS``.  Measured over
four minutes of identical work, scaling by the kernel cut the spread of
36-second medians (interquartile range over median) from 0.15 to 0.07.
The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import random
import statistics
import time
from typing import Iterator

__all__ = ["Yardstick", "Block", "REFERENCE_MS"]

#: Kernel time that defines the reference speed (about its median on
#: the host the benchmark was built on).
REFERENCE_MS = 10.0
#: Kernel runs made before and again after each bracketed block.
RUNS = 3
KERNEL_SEED = 7


class Block:
    """One bracketed block of work; ``scale`` is known once it ends."""

    scale = 1.0


class Yardstick:
    """Times the kernel around blocks of timed work."""

    def __init__(self) -> None:
        rng = random.Random(KERNEL_SEED)
        self._sets = [
            frozenset(rng.randrange(900) for _ in range(rng.randrange(2, 9)))
            for _ in range(1500)
        ]
        table = {rng.randrange(10**9): i for i in range(60000)}
        keys = list(table)
        rng.shuffle(keys)
        self._table = table
        self._keys = keys[:10000]
        self._floats = [rng.random() for _ in range(3000)]

    def _kernel(self) -> float:
        query = self._sets[0] | self._sets[1]
        acc = 0.0
        for doc in self._sets:
            inter = len(doc & query)
            acc += inter / (len(doc) + len(query) - inter)
        heap: list = []
        for i, value in enumerate(self._floats):
            heapq.heappush(heap, (-value, i, None))
        while heap:
            heapq.heappop(heap)
        table = self._table
        for key in self._keys:
            acc += table.get(key, 0)
        ordered = sorted(self._floats, key=lambda x: -x)
        for a, b in zip(ordered, ordered[1:]):
            acc += math.sqrt(a * a + b * b)
        return acc

    def _measure_ms(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) * 1000.0

    @contextlib.contextmanager
    def bracket(self) -> Iterator[Block]:
        """Time the kernel around the ``with`` body; the yielded block's
        ``scale`` turns the body's raw timings into reference-speed time
        once the body has ended."""
        block = Block()
        kernel_ms = [self._measure_ms() for _ in range(RUNS)]
        yield block
        kernel_ms += [self._measure_ms() for _ in range(RUNS)]
        block.scale = REFERENCE_MS / statistics.median(kernel_ms)
