"""Why-not answering via (k, α) refinement — the integrated framework.

The paper's conclusion sketches future work: an integrated framework
answering why-not questions "considering different parameters,
including the refinement of parameter α, the query keyword set, and
the location."  This module supplies the α axis, following the
preference-adjustment approach of the authors' earlier work (Chen et
al., ICDE 2015, reference [8]): keep the keywords fixed and adapt the
spatial/textual preference so the missing objects enter the result.

**Penalty.**  Mirroring Eqn 4's structure, a refined ``(k', α')`` pair
costs

``Penalty = λ·Δk/(R(M,q) − k₀) + (1−λ)·|α' − α₀| / max(α₀, 1 − α₀)``

— the Δk term is identical to keyword adaption's (so penalties from
the two refinement axes are commensurable inside
:class:`IntegratedAlgorithm`), and the α term is normalised by the
largest possible preference shift within ``(0, 1)``.

**Search.**  ``R(M, q_α)`` is piecewise constant in α, with
breakpoints where the missing object's score line crosses another
object's: ``ST_α(o) = α·s_o + (1−α)·t_o`` is linear in α.  Following
[8]'s sampling design, candidate α values are drawn from a uniform
grid over ``(0, 1)``, visited in ascending ``|α' − α₀|`` so the same
Eqn 6-style early stop and enumeration cut-off apply; each candidate's
rank is determined by the index search with the early-stop limit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..errors import InvalidParameterError, ensure_not_none
from ..model.numeric import approx_zero
from ..index.kcr_tree import KcRTree
from ..index.rtree import RTreeBase
from ..index.sharded import ShardedIndex
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock
from .context import QuestionContext
from .kcr_algorithm import KcRAlgorithm
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["AlphaRefinementAlgorithm", "IntegratedAlgorithm"]


class AlphaRefinementAlgorithm:
    """Adapt ``α`` (and ``k``) so the missing objects are revived."""

    name = "AlphaRefine"

    def __init__(
        self,
        tree: RTreeBase,
        model: SimilarityModel = JACCARD,
        *,
        n_samples: int = 64,
    ) -> None:
        if n_samples < 1:
            raise InvalidParameterError(
                f"n_samples must be positive, got {n_samples}"
            )
        self.tree = tree
        self.model = model
        self.n_samples = n_samples

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Best (k', α') refinement over the sampled preference grid."""
        started = clock()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        penalty_model = context.penalty_model
        query = context.query
        alpha0 = query.alpha
        alpha_norm = max(alpha0, 1.0 - alpha0)

        best = context.basic_refined()
        # Uniform grid over (0, 1), visited nearest-to-α₀ first so the
        # α-penalty is non-decreasing and licences early termination.
        step = 1.0 / (self.n_samples + 1)
        candidates = sorted(
            (step * i for i in range(1, self.n_samples + 1)),
            key=lambda a: abs(a - alpha0),
        )
        for alpha in candidates:
            counters.candidates_enumerated += 1
            alpha_pen = (1.0 - question.lam) * abs(alpha - alpha0) / alpha_norm
            if alpha_pen >= best.penalty:
                break  # sorted ascending in |α'−α₀|: nothing later improves
            stop_limit = self._max_useful_rank(
                penalty_model, best.penalty, alpha_pen
            )
            counters.candidates_evaluated += 1
            result = context.searcher.rank_of_missing(
                query.with_alpha(alpha), context.missing, stop_limit=stop_limit
            )
            if result.aborted:
                counters.aborted_early += 1
                continue
            rank = ensure_not_none(
                result.rank, "non-aborted rank search returned no rank"
            )
            penalty = penalty_model.k_penalty(rank) + alpha_pen
            if penalty < best.penalty:
                best = RefinedQuery(
                    keywords=query.doc,
                    k=penalty_model.refined_k(rank),
                    delta_doc=0,
                    rank=rank,
                    penalty=penalty,
                    alpha=alpha,
                )

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=clock() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )

    @staticmethod
    def _max_useful_rank(penalty_model, incumbent, fixed_pen) -> Optional[int]:
        """Largest rank still improving given a fixed non-k penalty.

        Same gallop/binary-search boundary as PenaltyModel's Eqn 6
        bound, with the α-penalty in place of the keyword penalty.
        """
        if fixed_pen >= incumbent:
            return None
        if approx_zero(penalty_model.lam):
            return 10**18
        lo = penalty_model.k0
        hi = lo + 1
        while penalty_model.k_penalty(hi) + fixed_pen < incumbent:
            hi = lo + 2 * (hi - lo) + 1
            if hi >= 10**15:
                return 10**18
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if penalty_model.k_penalty(mid) + fixed_pen < incumbent:
                lo = mid
            else:
                hi = mid
        return lo


class IntegratedAlgorithm:
    """The conclusion's integrated framework: refine keywords *or* α.

    Runs keyword adaption (KcRBased over the KcR-tree) and α-refinement
    (over either tree) on the same question and returns the answer with
    the smaller penalty.  The two penalties share the Δk term and
    normalise their second term to ``[0, 1]``, so the comparison is the
    natural one the conclusion implies.
    """

    name = "Integrated"

    def __init__(
        self,
        kcr_tree: Union[KcRTree, ShardedIndex],
        model: SimilarityModel = JACCARD,
        *,
        n_samples: int = 64,
    ) -> None:
        self.keyword_algorithm = KcRAlgorithm(kcr_tree, model)
        # α-refinement reads the same KcR data (a shard set's KcR view).
        self.alpha_algorithm = AlphaRefinementAlgorithm(
            self.keyword_algorithm.tree, model, n_samples=n_samples
        )

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Answer via both refinement axes; return the cheaper one."""
        started = clock()
        keyword_answer = self.keyword_algorithm.answer(question)
        alpha_answer = self.alpha_algorithm.answer(question)
        winner = (
            keyword_answer
            if keyword_answer.refined.penalty <= alpha_answer.refined.penalty
            else alpha_answer
        )
        counters = SearchCounters()
        counters.merge(keyword_answer.counters)
        counters.merge(alpha_answer.counters)
        return WhyNotAnswer(
            refined=winner.refined,
            initial_rank=winner.initial_rank,
            algorithm=f"{self.name}({winner.algorithm})",
            elapsed_seconds=clock() - started,
            io=keyword_answer.io + alpha_answer.io,
            counters=counters,
        )
