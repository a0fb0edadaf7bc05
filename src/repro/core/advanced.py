"""The optimized basic algorithm (**AdvancedBS**, Algorithm 1).

Adds the three Section IV-C optimizations on top of BS, each
independently switchable so the Fig 11 ablation can isolate them:

* **Opt1 — early stop.**  Eqn 6 turns the incumbent penalty into the
  largest rank a candidate could reach while still improving; the
  per-candidate index search aborts once that many dominators are seen.
* **Opt2 — enumeration order.**  Candidates ascend by edit distance
  with ties broken by descending particularity gain (Eqn 7), which
  finds small penalties early *and* licenses terminating the whole
  enumeration once the keyword penalty alone reaches the incumbent
  (Algorithm 1 lines 6–7).
* **Opt3 — keyword set filtering.**  Dominators discovered by earlier
  searches are cached; if enough of them already dominate under a new
  candidate, the candidate is pruned without any index access
  (Algorithm 1 lines 10–13).

Opt4 (parallel processing) lives in :mod:`repro.core.parallel`, as a
subclass that schedules this loop's candidate evaluations on threads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ensure_not_none
from ..index.setr_tree import SetRTree
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock
from .candidates import Candidate
from .context import QuestionContext
from .dominator_cache import DominatorCache
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["AdvancedAlgorithm"]


class AdvancedAlgorithm:
    """AdvancedBS: Algorithm 1 with switchable optimizations."""

    def __init__(
        self,
        tree: SetRTree,
        model: SimilarityModel = JACCARD,
        *,
        early_stop: bool = True,
        ordering: bool = True,
        filtering: bool = True,
        cache: Optional[DominatorCache] = None,
    ) -> None:
        self.tree = tree
        self.model = model
        self.early_stop = early_stop
        self.ordering = ordering
        self.filtering = filtering
        # An externally owned Opt3 cache (the serving layer shares one
        # across a refinement dialogue).  Only valid while the caller
        # guarantees the cache was built for this question's
        # (query.loc, query.alpha, missing) triple — dominance does not
        # depend on the candidate keyword sets, so k/λ/keyword changes
        # within a dialogue are safe to share.
        self.cache = cache

    @property
    def name(self) -> str:
        if self.early_stop and self.ordering and self.filtering:
            return "AdvancedBS"
        tags = [
            tag
            for enabled, tag in (
                (self.early_stop, "Opt1"),
                (self.ordering, "Opt2"),
                (self.filtering, "Opt3"),
            )
            if enabled
        ]
        return "BS+" + "+".join(tags) if tags else "BS"

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Return the best refined query for ``question``."""
        started = clock()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        cache: Optional[DominatorCache] = None
        if self.filtering:
            cache = self.cache
            if cache is None:
                cache = DominatorCache(
                    context.dataset, context.query, context.missing, self.model
                )
        best, _ = self._search(context, counters, cache)
        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=clock() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )

    def _search(
        self,
        context: QuestionContext,
        counters: SearchCounters,
        cache: Optional[DominatorCache],
    ) -> Tuple[RefinedQuery, List[float]]:
        """Algorithm 1's candidate loop: the best refined query, and the
        :func:`clock` time of each candidate evaluation (Opt4's units)."""
        penalty_model = context.penalty_model
        best = context.basic_refined()
        units: List[float] = []
        candidates = (
            context.enumerator.iter_paper_order()
            if self.ordering
            else context.enumerator.iter_naive()
        )
        for candidate in candidates:
            counters.candidates_enumerated += 1

            # Algorithm 1 lines 6-7: the keyword penalty alone already
            # matches the incumbent.  Under the paper order Δdoc is
            # non-decreasing, so no later candidate can recover: stop
            # the enumeration.  Under the naive order just skip.
            if penalty_model.keyword_penalty(candidate.delta_doc) >= best.penalty:
                counters.pruned_by_keyword_penalty += 1
                if self.ordering:
                    break
                continue

            started = clock()
            improved = self._evaluate_candidate(
                context, candidate, best.penalty, counters, cache
            )
            units.append(clock() - started)
            if improved is not None:
                best = improved
        return best, units

    def _evaluate_candidate(
        self,
        context: QuestionContext,
        candidate: Candidate,
        incumbent_penalty: float,
        counters: SearchCounters,
        cache: Optional[DominatorCache] = None,
    ) -> Optional[RefinedQuery]:
        """One candidate against the incumbent: the better refined
        query, or None when the candidate cannot beat it.

        The caller has already pruned on the keyword penalty, so Eqn 6
        gives a finite rank bound.
        """
        penalty_model = context.penalty_model
        stop_limit = ensure_not_none(
            penalty_model.max_useful_rank(incumbent_penalty, candidate.delta_doc),
            "Eqn 6 bound missing after keyword-penalty prune",
        )

        # Opt3: count cached dominators that survive the keyword
        # change; if the rank bound is already unreachable, prune
        # without touching the index (Algorithm 1 lines 10-13).
        if cache is not None:
            survivors = cache.count_dominating(candidate.keywords, stop_limit)
            if survivors >= stop_limit:
                counters.pruned_by_cache += 1
                return None

        counters.candidates_evaluated += 1
        result = context.searcher.rank_of_missing(
            context.query,
            context.missing,
            keywords=candidate.keywords,
            stop_limit=stop_limit if self.early_stop else None,
        )
        if cache is not None:
            cache.record_dominators(result.dominators)
        if result.aborted:
            counters.aborted_early += 1
            return None
        rank = ensure_not_none(result.rank, "non-aborted rank search returned no rank")
        penalty = penalty_model.penalty(candidate.delta_doc, rank)
        if penalty >= incumbent_penalty:
            return None
        return RefinedQuery(
            keywords=candidate.keywords,
            k=penalty_model.refined_k(rank),
            delta_doc=candidate.delta_doc,
            rank=rank,
            penalty=penalty,
        )
