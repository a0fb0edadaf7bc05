"""Why-not answering via query-location refinement.

The third axis of the paper's future-work sketch: "it is of interest
to investigate the refinement of query location in spatial keyword
top-k queries."  The user's location is often only approximately where
they will actually be (a hotel near *which* entrance of the venue?),
so moving ``q.loc`` slightly toward the missing objects can revive
them without touching keywords or ``k``.

**Penalty.**  Mirroring Eqn 4,

``Penalty = λ·Δk/(R(M,q) − k₀) + (1−λ)·SDist(loc', loc₀)``

— the location shift is already normalised (``SDist`` divides by the
dataset diagonal), and the Δk term stays commensurable with the other
refinement axes.

**Search.**  Candidate locations are sampled on the segments from the
original location toward each missing object (moving anywhere else
both costs distance *and* lowers the missing objects' scores), at
geometrically spaced fractions.  Candidates are visited in ascending
shift cost so the usual early-termination and Eqn 6-style rank bound
apply.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, ensure_not_none
from ..index.rtree import RTreeBase
from ..model.geometry import Point
from ..model.query import WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock
from .alpha_refinement import AlphaRefinementAlgorithm
from .context import QuestionContext
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["LocationRefinementAlgorithm"]


class LocationRefinementAlgorithm:
    """Adapt ``loc`` (and ``k``) so the missing objects are revived."""

    name = "LocationRefine"

    def __init__(
        self,
        tree: RTreeBase,
        model: SimilarityModel = JACCARD,
        *,
        n_fractions: int = 12,
    ) -> None:
        if n_fractions < 1:
            raise InvalidParameterError(
                f"n_fractions must be positive, got {n_fractions}"
            )
        self.tree = tree
        self.model = model
        self.n_fractions = n_fractions

    def _candidate_locations(
        self, origin: Point, targets: Sequence[Point]
    ) -> List[Tuple[float, Point]]:
        """(shift-fraction, location) pairs toward each missing object.

        Fractions are geometric (1/2^j of the way) plus the full step —
        cheap shifts first, matching the ascending-cost visit order.
        """
        candidates: List[Tuple[float, Point]] = []
        fractions = sorted(
            {1.0 / (2**j) for j in range(self.n_fractions)} | {1.0}
        )
        for target in targets:
            dx = target[0] - origin[0]
            dy = target[1] - origin[1]
            for fraction in fractions:
                loc = (origin[0] + fraction * dx, origin[1] + fraction * dy)
                candidates.append((fraction, loc))
        return candidates

    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Best (k', loc') refinement over the sampled shift grid.

        The winning location rides on the returned answer as the
        ``refined_loc`` attribute (``None`` when the basic refinement
        wins)."""
        started = clock()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        penalty_model = context.penalty_model
        query = context.query
        dataset = self.tree.dataset

        best = context.basic_refined()
        best_loc: Optional[Point] = None
        candidates = self._candidate_locations(
            query.loc, [m.loc for m in context.missing]
        )
        # ascending shift cost = ascending normalised distance
        scored = sorted(
            (
                (dataset.normalized_distance(loc, query.loc), loc)
                for _, loc in candidates
            ),
            key=lambda pair: pair[0],
        )
        for shift, loc in scored:
            counters.candidates_enumerated += 1
            loc_pen = (1.0 - question.lam) * shift
            if loc_pen >= best.penalty:
                break  # ascending cost: no later candidate improves
            stop_limit = AlphaRefinementAlgorithm._max_useful_rank(
                penalty_model, best.penalty, loc_pen
            )
            counters.candidates_evaluated += 1
            moved = type(query)(
                loc=loc, doc=query.doc, k=query.k, alpha=query.alpha
            )
            result = context.searcher.rank_of_missing(
                moved, context.missing, stop_limit=stop_limit
            )
            if result.aborted:
                counters.aborted_early += 1
                continue
            rank = ensure_not_none(
                result.rank, "non-aborted rank search returned no rank"
            )
            penalty = penalty_model.k_penalty(rank) + loc_pen
            if penalty < best.penalty:
                best = RefinedQuery(
                    keywords=query.doc,
                    k=penalty_model.refined_k(rank),
                    delta_doc=0,
                    rank=rank,
                    penalty=penalty,
                )
                best_loc = loc

        answer = WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=clock() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )
        # The refined location rides along as an answer attribute: the
        # RefinedQuery dataclass models the paper's (doc', k', α')
        # axes, and the location axis is this module's extension.
        answer.refined_loc = best_loc  # type: ignore[attr-defined]
        return answer
