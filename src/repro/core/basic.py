"""The basic why-not algorithm (**BS**, Section IV-B).

For every candidate keyword set, issue a spatial keyword query against
the SetR-tree and run it until the missing objects' rank is known, then
score the candidate with Eqn 4.  No early stop, no smart ordering, no
caching: this is the paper's baseline, deliberately kept naive so the
optimizations of Section IV-C have something to beat.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ensure_not_none
from ..index.setr_tree import SetRTree
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock
from .context import QuestionContext
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["BasicAlgorithm"]


class BasicAlgorithm:
    """BS: exhaustive candidate evaluation over the SetR-tree."""

    name = "BS"

    def __init__(self, tree: SetRTree, model: SimilarityModel = JACCARD) -> None:
        self.tree = tree
        self.model = model

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Return the best refined query for ``question``."""
        started = clock()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()

        best = context.basic_refined()
        penalty_model = context.penalty_model
        for candidate in context.enumerator.iter_naive():
            counters.candidates_enumerated += 1
            counters.candidates_evaluated += 1
            result = context.searcher.rank_of_missing(
                context.query, context.missing, keywords=candidate.keywords
            )
            # BS never sets a stop limit, so a rank always exists.
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

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=clock() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )
