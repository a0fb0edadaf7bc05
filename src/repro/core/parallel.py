"""Parallel candidate processing (Section IV-C4 / Fig 10).

The paper parallelises both algorithms by partitioning the candidate
keyword sets over worker threads while synchronising the incumbent
penalty ``p_c`` for pruning.  CPython's GIL makes real threads useless
for CPU-bound speedup, so the default mode here is a **deterministic
makespan simulation** (documented in DESIGN.md): candidates are
evaluated in the usual shared-``p_c`` order, the wall time of each
evaluation is measured, and evaluations are list-scheduled onto ``T``
workers greedily (each next unit goes to the least-loaded worker).
The reported elapsed time is the makespan — exactly what a
work-sharing thread pool with a shared incumbent achieves, minus lock
contention.

A ``mode="threads"`` variant runs a real
:class:`~concurrent.futures.ThreadPoolExecutor` with a lock-protected
shared incumbent; it demonstrates correctness of the synchronisation
(the answer is identical) rather than speedup.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..errors import InvalidParameterError
from ..index.kcr_tree import KcRTree
from ..index.sharded import ShardedIndex
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from .candidates import Candidate
from .context import QuestionContext
from .dominator_cache import DominatorCache
from .kcr_algorithm import KcRAlgorithm
from .penalty import PenaltyModel
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["ParallelAdvanced", "ParallelKcR", "makespan"]


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


class ParallelAdvanced:
    """AdvancedBS with Fig 10's multi-threaded candidate processing."""

    def __init__(
        self,
        tree: Any,
        n_threads: int,
        mode: str = "simulate",
        model: SimilarityModel = JACCARD,
        filtering: bool = True,
    ) -> None:
        if n_threads <= 0:
            raise InvalidParameterError(f"n_threads must be positive, got {n_threads}")
        if mode not in ("simulate", "threads"):
            raise InvalidParameterError(f"unknown mode {mode!r}")
        self.tree = tree
        self.n_threads = n_threads
        self.mode = mode
        self.model = model
        self.filtering = filtering

    @property
    def name(self) -> str:
        return f"AdvancedBS-P{self.n_threads}"

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Best refined query; elapsed time reflects the thread count."""
        started = time.perf_counter()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        # Opt3 travels with the workers: dominators found by any worker
        # feed every other worker's filter, through the cache's
        # lock-guarded surface (the flow checker's sanctioned writer).
        cache: Optional[DominatorCache] = None
        if self.filtering:
            cache = DominatorCache(
                context.dataset, context.query, context.missing, self.model
            )
        setup_time = time.perf_counter() - started

        if self.mode == "simulate":
            best, work_times = self._run_measured(context, counters, cache)
            elapsed = setup_time + makespan(work_times, self.n_threads)
        else:
            best = self._run_threads(context, counters, cache)
            elapsed = time.perf_counter() - started

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=elapsed,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )

    # ------------------------------------------------------------------
    def _evaluate_candidate(
        self,
        context: QuestionContext,
        candidate: Candidate,
        incumbent_penalty: float,
        counters: SearchCounters,
        lock: Optional[threading.Lock] = None,
        cache: Optional[DominatorCache] = None,
    ) -> Optional[RefinedQuery]:
        """One candidate under the shared incumbent; None when beaten."""
        penalty_model = context.penalty_model
        stop_limit = penalty_model.max_useful_rank(
            incumbent_penalty, candidate.delta_doc
        )
        if stop_limit is None:
            if lock:
                with lock:
                    counters.pruned_by_keyword_penalty += 1
            else:
                counters.pruned_by_keyword_penalty += 1
            return None
        # Opt3: enough cached dominators already beat the missing
        # object under this keyword set — prune without index access
        # (Algorithm 1 lines 10-13, shared across workers).
        if cache is not None:
            survivors = cache.count_dominating(candidate.keywords, stop_limit)
            if survivors >= stop_limit:
                if lock:
                    with lock:
                        counters.pruned_by_cache += 1
                else:
                    counters.pruned_by_cache += 1
                return None
        result = context.searcher.rank_of_missing(
            context.query,
            context.missing,
            keywords=candidate.keywords,
            stop_limit=stop_limit,
        )
        if cache is not None:
            cache.record_dominators(result.dominators)
        if result.aborted or result.rank is None:
            if lock:
                with lock:
                    counters.aborted_early += 1
            else:
                counters.aborted_early += 1
            return None
        penalty = penalty_model.penalty(candidate.delta_doc, result.rank)
        if penalty >= incumbent_penalty:
            return None
        return RefinedQuery(
            keywords=candidate.keywords,
            k=penalty_model.refined_k(result.rank),
            delta_doc=candidate.delta_doc,
            rank=result.rank,
            penalty=penalty,
        )

    def _run_measured(
        self,
        context: QuestionContext,
        counters: SearchCounters,
        cache: Optional[DominatorCache] = None,
    ) -> Tuple[RefinedQuery, List[float]]:
        """Sequential shared-``p_c`` evaluation with per-unit timing."""
        best = context.basic_refined()
        work_times: List[float] = []
        for candidate in context.enumerator.iter_paper_order():
            counters.candidates_enumerated += 1
            if (
                context.penalty_model.keyword_penalty(candidate.delta_doc)
                >= best.penalty
            ):
                break
            unit_started = time.perf_counter()
            counters.candidates_evaluated += 1
            improved = self._evaluate_candidate(
                context, candidate, best.penalty, counters, cache=cache
            )
            work_times.append(time.perf_counter() - unit_started)
            if improved is not None:
                best = improved
        return best, work_times

    def _run_threads(
        self,
        context: QuestionContext,
        counters: SearchCounters,
        cache: Optional[DominatorCache] = None,
    ) -> RefinedQuery:
        """Real thread pool with a lock-protected shared incumbent."""
        best = context.basic_refined()
        lock = threading.Lock()
        state = {"best": best}

        def worker(candidate: Candidate) -> None:
            with lock:
                incumbent = state["best"].penalty
                counters.candidates_evaluated += 1
            improved = self._evaluate_candidate(
                context, candidate, incumbent, counters, lock=lock, cache=cache
            )
            if improved is not None:
                with lock:
                    if improved.penalty < state["best"].penalty:
                        state["best"] = improved

        candidates = list(context.enumerator.iter_paper_order())
        counters.candidates_enumerated += len(candidates)
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            list(pool.map(worker, candidates))
        return state["best"]


class ParallelKcR:
    """KcRBased with Fig 10's partitioned candidate batches.

    Each edit-distance batch is split round-robin into ``n_threads``
    sub-batches; Algorithm 3 runs per sub-batch with the incumbent
    shared across them, and the batch's simulated elapsed time is the
    max over sub-batch times.
    """

    def __init__(
        self,
        tree: Union[KcRTree, ShardedIndex],
        n_threads: int,
        model: SimilarityModel = JACCARD,
    ) -> None:
        if n_threads <= 0:
            raise InvalidParameterError(f"n_threads must be positive, got {n_threads}")
        self.tree = tree
        self.n_threads = n_threads
        self.model = model

    @property
    def name(self) -> str:
        return f"KcRBased-P{self.n_threads}"

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Best refined query; per-batch makespan over the sub-batches."""
        started = time.perf_counter()
        algorithm = KcRAlgorithm(self.tree, self.model)
        tree = algorithm.tree  # a shard set answers through its KcR view
        io_before = tree.stats.snapshot()
        context = QuestionContext.prepare(question, tree, self.model)
        counters = SearchCounters()
        elapsed = time.perf_counter() - started

        best = context.basic_refined()
        penalty_model = context.penalty_model
        for distance in range(1, context.enumerator.edit_universe + 1):
            if penalty_model.keyword_penalty(distance) >= best.penalty:
                break
            batch = context.enumerator.at_distance(distance)
            counters.candidates_enumerated += len(batch)
            if not batch:
                continue
            sub_batches = [
                batch[i :: self.n_threads] for i in range(self.n_threads)
            ]
            sub_times: List[float] = []
            for sub_batch in sub_batches:
                if not sub_batch:
                    continue
                sub_started = time.perf_counter()
                best = algorithm._bound_and_prune(
                    context, sub_batch, best, counters
                )
                sub_times.append(time.perf_counter() - sub_started)
            if sub_times:
                elapsed += max(sub_times)

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=elapsed,
            io=tree.stats.snapshot() - io_before,
            counters=counters,
        )
