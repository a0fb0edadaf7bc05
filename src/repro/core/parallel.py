"""Parallel candidate processing (Section IV-C4 / Fig 10).

The paper parallelises both algorithms by partitioning the candidate
keyword sets over worker threads while synchronising the incumbent
penalty ``p_c`` for pruning.  CPython's GIL makes real threads useless
for CPU-bound speedup, so Opt4 here is a **deterministic makespan
simulation** (documented in DESIGN.md): AdvancedBS's and KcRBased's own
loops run unchanged in the usual shared-``p_c`` order, and each unit of
parallel work is one region on :mod:`repro.storage.clock`'s makespan
clock — the units are list-scheduled onto ``T`` workers and the
answer's elapsed time counts their makespan, which is what a
work-sharing thread pool with a shared incumbent achieves, minus lock
contention.  Answers, I/O and counters are those of the sequential
algorithm.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..errors import InvalidParameterError
from ..index.kcr_tree import KcRTree
from ..index.sharded import ShardedIndex
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import book_overlap, clock, makespan
from .advanced import AdvancedAlgorithm
from .candidates import Candidate
from .context import QuestionContext
from .dominator_cache import DominatorCache
from .kcr_algorithm import KcRAlgorithm
from .result import RefinedQuery, SearchCounters

__all__ = ["ParallelAdvanced", "ParallelKcR", "makespan"]


def _check_threads(n_threads: int) -> int:
    if n_threads <= 0:
        raise InvalidParameterError(f"n_threads must be positive, got {n_threads}")
    return n_threads


class ParallelAdvanced(AdvancedAlgorithm):
    """AdvancedBS with Fig 10's multi-threaded candidate processing.

    Early stop and the paper order are always on; each candidate
    evaluation is one unit, scheduled over ``n_threads`` workers.
    """

    def __init__(
        self,
        tree: Any,
        n_threads: int,
        model: SimilarityModel = JACCARD,
        filtering: bool = True,
    ) -> None:
        # Opt3 travels with the workers: dominators found by any worker
        # feed every other worker's filter, through the cache's
        # lock-guarded surface (the flow checker's sanctioned writer).
        super().__init__(tree, model, filtering=filtering)
        self.n_threads = _check_threads(n_threads)

    @property
    def name(self) -> str:
        return f"AdvancedBS-P{self.n_threads}"

    def _search(
        self,
        context: QuestionContext,
        counters: SearchCounters,
        cache: Optional[DominatorCache],
    ) -> Tuple[RefinedQuery, List[float]]:
        started = clock()
        best, units = super()._search(context, counters, cache)
        book_overlap(started, units, self.n_threads)
        return best, units


class ParallelKcR(KcRAlgorithm):
    """KcRBased with Fig 10's partitioned candidate batches.

    Each edit-distance batch is split round-robin into ``n_threads``
    sub-batches; Algorithm 3 runs per sub-batch with the incumbent
    shared across them, and each sub-batch is one unit of the batch's
    parallel region.
    """

    def __init__(
        self,
        tree: Union[KcRTree, ShardedIndex],
        n_threads: int,
        model: SimilarityModel = JACCARD,
    ) -> None:
        super().__init__(tree, model)
        self.n_threads = _check_threads(n_threads)

    @property
    def name(self) -> str:
        return f"KcRBased-P{self.n_threads}"

    def _bound_and_prune(
        self,
        context: QuestionContext,
        batch: Sequence[Candidate],
        best: RefinedQuery,
        counters: SearchCounters,
    ) -> RefinedQuery:
        started = clock()
        units: List[float] = []
        for offset in range(min(self.n_threads, len(batch))):
            unit_started = clock()
            best = super()._bound_and_prune(
                context, batch[offset :: self.n_threads], best, counters
            )
            units.append(clock() - unit_started)
        book_overlap(started, units, self.n_threads)
        return best
