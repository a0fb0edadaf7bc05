"""Reverse keyword search for spatio-textual top-k queries.

The KcR-tree the paper builds on was introduced for *reverse keyword
search* (Lin, Xu & Hu, TKDE — the paper's reference [22]): given a
target object, a query location, and ``k``, find the query keyword
sets under which the target ranks in the top-``k``.  It is the
merchant question of Example 2 asked exhaustively — "*which* searches
find my restaurant?" — and the natural companion API to why-not
answering (why-not repairs one failing query; reverse search maps the
whole space of succeeding ones).

Candidates are the non-empty subsets of the target's own document (a
query containing a keyword the target lacks only dilutes its
similarity), optionally restricted by ``max_size`` or an explicit
pool.  Each candidate's rank is determined with the library's
rank-determination search using the Opt1-style early stop at ``k`` —
the search abandons a candidate the moment ``k`` dominators are seen,
since only rank ≤ k qualifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..errors import InvalidParameterError, ensure_not_none
from ..index.rtree import RTreeBase
from ..index.search import TopKSearcher
from ..model.query import SpatialKeywordQuery
from ..model.similarity import JACCARD, SimilarityModel
from ..storage.clock import clock

__all__ = ["ReverseMatch", "ReverseKeywordSearch"]

KeywordSet = FrozenSet[int]


@dataclass(frozen=True)
class ReverseMatch:
    """One qualifying keyword set: the target ranks ``rank <= k``."""

    keywords: KeywordSet
    rank: int
    score: float  # the target's ST under this keyword set


@dataclass
class ReverseSearchReport:
    """Outcome of a reverse keyword search."""

    matches: Tuple[ReverseMatch, ...]
    candidates_examined: int
    aborted_early: int
    elapsed_seconds: float

    def best(self) -> Optional[ReverseMatch]:
        """The qualifying set with the best (lowest) rank, preferring
        smaller keyword sets on ties — the cheapest thing to advertise."""
        if not self.matches:
            return None
        return min(self.matches, key=lambda m: (m.rank, len(m.keywords)))


class ReverseKeywordSearch:
    """[22]-style reverse search over a SetR-tree or KcR-tree."""

    def __init__(self, tree: RTreeBase, model: SimilarityModel = JACCARD) -> None:
        self.tree = tree
        self.model = model
        self.searcher = TopKSearcher(tree, model)

    def search(
        self,
        target_oid: int,
        loc: Tuple[float, float],
        k: int,
        *,
        alpha: float = 0.5,
        max_size: Optional[int] = None,
        pool: Optional[Iterable[int]] = None,
    ) -> ReverseSearchReport:
        """Find every keyword set ranking the target in the top-``k``.

        ``pool`` restricts the candidate keywords (defaults to the
        target's own document); ``max_size`` caps candidate subset
        sizes.  Returns qualifying sets sorted best-rank-first.
        """
        started = clock()
        target = self.tree.dataset.get(target_oid)
        keywords = frozenset(pool) if pool is not None else target.doc
        if not keywords:
            raise InvalidParameterError("the candidate keyword pool is empty")
        limit = max_size if max_size is not None else len(keywords)
        if limit < 1:
            raise InvalidParameterError(f"max_size must be >= 1, got {limit}")

        matches: List[ReverseMatch] = []
        examined = 0
        aborted = 0
        ordered = sorted(keywords)
        for size in range(1, min(limit, len(ordered)) + 1):
            for subset in itertools.combinations(ordered, size):
                examined += 1
                candidate = frozenset(subset)
                query = SpatialKeywordQuery(
                    loc=loc, doc=candidate, k=k, alpha=alpha
                )
                result = self.searcher.rank_of_missing(
                    query, [target], stop_limit=k
                )
                if result.aborted:
                    aborted += 1
                    continue  # rank > k: does not qualify
                rank = ensure_not_none(
                    result.rank, "non-aborted rank search returned no rank"
                )
                if rank <= k:
                    matches.append(
                        ReverseMatch(
                            keywords=candidate,
                            rank=rank,
                            score=self.searcher.score_object(
                                target, query, candidate
                            ),
                        )
                    )
        matches.sort(key=lambda m: (m.rank, len(m.keywords), sorted(m.keywords)))
        return ReverseSearchReport(
            matches=tuple(matches),
            candidates_examined=examined,
            aborted_early=aborted,
            elapsed_seconds=clock() - started,
        )
