"""The makespan clock: simulated parallel time for reported figures.

The paper's Opt4 (Section IV-C) runs candidate evaluations on ``T``
threads, and a sharded index fans each search out over ``N`` shards.
CPython's GIL and a one-core host make real parallel wall time useless
as a figure, so parallel regions run in turn and are *reported* as
their makespan: the region's units (one candidate evaluation, one
sub-batch, one shard's reply) are list-scheduled onto the workers, and
the rest of the region's wall time is booked as overlap.

:func:`clock` is :func:`time.perf_counter` minus the overlap this
context has booked so far, and every reported ``elapsed_seconds`` is a
difference of two :func:`clock` readings.  :func:`book_overlap` is the
one place overlap is booked.  The booked total lives in a
:class:`contextvars.ContextVar`, like :mod:`repro.storage.deadline`'s
budget: it only grows and is only ever read as a difference, so it
needs no reset and no lock, and an answer on one thread can neither
take nor leave overlap for another.

Regions nest.  A region's wall time and its unit times are all read
with :func:`clock`, so the overlap an inner region booked is already
missing from the outer region's readings and is not booked twice.
"""

from __future__ import annotations

import heapq
import time
from contextvars import ContextVar
from typing import List, Sequence, Tuple

from ..errors import InvalidParameterError

__all__ = ["book_overlap", "clock", "makespan"]

_BOOKED: ContextVar[float] = ContextVar("repro_storage_clock_booked", default=0.0)


def clock() -> float:
    """``perf_counter()`` less the overlap this context has booked."""
    return time.perf_counter() - _BOOKED.get()


def makespan(unit_times: Sequence[float], n_workers: int) -> float:
    """Greedy list-scheduling makespan of ``unit_times`` on ``n_workers``.

    Units are assigned in order to the least-loaded worker — the
    schedule a work-sharing pool converges to.  The worker set is a
    min-heap of ``(load, worker_index)`` pairs, so each assignment is
    O(log T) instead of the O(T) ``loads.index(min(loads))`` scan; the
    index component reproduces the scan's tie rule exactly (among
    equally-loaded workers, the lowest index wins).
    """
    if n_workers <= 0:
        raise InvalidParameterError(f"need at least one worker, got {n_workers}")
    loads: List[Tuple[float, int]] = [(0.0, worker) for worker in range(n_workers)]
    for unit in unit_times:
        load, worker = loads[0]
        heapq.heapreplace(loads, (load + unit, worker))
    return max(load for load, _ in loads)


def book_overlap(started: float, unit_times: Sequence[float], n_workers: int) -> None:
    """Close a parallel region that began at the :func:`clock` reading
    ``started``: book ``wall − makespan(unit_times, n_workers)``.

    The region then reads on :func:`clock` as its units' makespan.  A
    region of fewer than two units has nothing to overlap and books
    nothing; a negative difference (timer noise) is clamped to zero.
    """
    if len(unit_times) < 2:
        return
    overlap = clock() - started - makespan(unit_times, n_workers)
    if overlap > 0.0:
        _BOOKED.set(_BOOKED.get() + overlap)
