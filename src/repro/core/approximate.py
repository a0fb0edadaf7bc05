"""The sampling-based approximate algorithm (Section VI-B).

When ``|doc₀ ∪ M.doc|`` is large the candidate space is too big even
for the optimized algorithms.  The approximate algorithm evaluates
only a sample of ``T`` candidate keyword sets — the ``T`` with the
highest total particularity with respect to the missing objects, per
the paper's greedy sampling strategy — and returns the best refined
query within the sample (the basic refined query remains the
incumbent, so the answer is never worse than penalty ``λ``).

Any of the three exact machineries can process the sample; the paper's
Fig 12 runs all of them and observes identical penalties (same sample,
same best) with different runtimes, which this implementation
reproduces via the ``strategy`` knob.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import InvalidParameterError, ensure_not_none
from ..index.kcr_tree import KcRTree
from ..index.sharded import ShardedIndex
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock
from .advanced import AdvancedAlgorithm
from .candidates import Candidate
from .context import QuestionContext
from .dominator_cache import DominatorCache
from .kcr_algorithm import KcRAlgorithm
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["ApproximateAlgorithm"]

_STRATEGIES = ("bs", "advanced", "kcr")


class ApproximateAlgorithm:
    """Sample-``T`` approximate answering with a pluggable evaluator.

    Parameters
    ----------
    tree:
        A SetR-tree (or a shard set's SetR view) for the
        ``"bs"``/``"advanced"`` strategies; a :class:`KcRTree` or a
        :class:`~repro.index.sharded.ShardedIndex` for ``"kcr"``.
    sample_size:
        ``T`` — how many candidate keyword sets to evaluate.
    strategy:
        Which exact machinery processes the sample.
    """

    def __init__(
        self,
        tree: Any,
        sample_size: int,
        strategy: str = "kcr",
        model: SimilarityModel = JACCARD,
    ) -> None:
        if sample_size <= 0:
            raise InvalidParameterError(
                f"sample size must be positive, got {sample_size}"
            )
        if strategy not in _STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}"
            )
        if (strategy == "kcr") != isinstance(tree, (KcRTree, ShardedIndex)):
            needs = "a KcRTree or ShardedIndex" if strategy == "kcr" else "SetR data"
            raise InvalidParameterError(f"the {strategy!r} strategy needs {needs}")
        self.tree = tree
        self.sample_size = sample_size
        self.strategy = strategy
        self.model = model

    @property
    def name(self) -> str:
        return f"Approx-{self.strategy.upper()}(T={self.sample_size})"

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Best refined query within the particularity-greedy sample."""
        started = clock()
        kcr = None
        tree = self.tree
        if self.strategy == "kcr":
            kcr = KcRAlgorithm(self.tree, self.model)
            tree = kcr.tree  # a shard set answers through its KcR view
        io_before = tree.stats.snapshot()
        context = QuestionContext.prepare(question, tree, self.model)
        counters = SearchCounters()

        sample = context.enumerator.top_by_gain(self.sample_size)
        counters.candidates_enumerated = len(sample)
        best = context.basic_refined()

        if kcr is not None:
            best = self._evaluate_kcr(kcr, context, sample, best, counters)
        else:
            best = self._evaluate_sequential(context, sample, best, counters)

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=clock() - started,
            io=tree.stats.snapshot() - io_before,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # evaluators
    # ------------------------------------------------------------------
    def _evaluate_kcr(
        self,
        algorithm: KcRAlgorithm,
        context: QuestionContext,
        sample: Sequence[Candidate],
        best: RefinedQuery,
        counters: SearchCounters,
    ) -> RefinedQuery:
        """One Algorithm 3 traversal per edit-distance group.

        Grouping keeps the Algorithm 4 early-termination licence: once
        the keyword penalty of the next group reaches the incumbent, no
        remaining sample can win.
        """
        by_distance: dict = {}
        for candidate in sample:
            by_distance.setdefault(candidate.delta_doc, []).append(candidate)
        for distance in sorted(by_distance):
            if context.penalty_model.keyword_penalty(distance) >= best.penalty:
                break
            best = algorithm._bound_and_prune(
                context, by_distance[distance], best, counters
            )
        return best

    def _evaluate_sequential(
        self,
        context: QuestionContext,
        sample: Sequence[Candidate],
        best: RefinedQuery,
        counters: SearchCounters,
    ) -> RefinedQuery:
        """BS-style evaluation of every sample, or AdvancedBS's
        per-candidate step over the sample in paper order."""
        penalty_model = context.penalty_model
        if self.strategy == "advanced":
            advanced = AdvancedAlgorithm(self.tree, self.model)
            cache = DominatorCache(
                context.dataset, context.query, context.missing, self.model
            )
            for candidate in sorted(sample, key=lambda c: (c.delta_doc, -c.gain)):
                if penalty_model.keyword_penalty(candidate.delta_doc) >= best.penalty:
                    counters.pruned_by_keyword_penalty += 1
                    break
                best = advanced._evaluate_candidate(
                    context, candidate, best.penalty, counters, cache
                ) or best
            return best
        for candidate in sample:
            counters.candidates_evaluated += 1
            result = context.searcher.rank_of_missing(
                context.query, context.missing, keywords=candidate.keywords
            )
            rank = ensure_not_none(result.rank, "unlimited rank search returned no rank")
            penalty = penalty_model.penalty(candidate.delta_doc, rank)
            if penalty < best.penalty:
                best = RefinedQuery(
                    keywords=candidate.keywords,
                    k=penalty_model.refined_k(rank),
                    delta_doc=candidate.delta_doc,
                    rank=rank,
                    penalty=penalty,
                )
        return best
