"""The Opt3 dominator cache (Section IV-C3).

Similar keyword sets rank objects similarly: an object that dominated
the missing object under a previously processed candidate has a good
chance of dominating it under the next one.  The cache accumulates the
dominators every processed search discovered and, before a new
candidate's spatial keyword query is issued, counts how many cached
objects *already* dominate the missing objects under the new keyword
set.  If that count reaches the candidate's Eqn 6 rank bound, the
candidate is pruned without touching the index at all — which is why
the paper finds this the most effective optimization (Fig 11).

Scoring cached objects is pure in-memory arithmetic on objects already
retrieved by earlier searches, so it charges no I/O — exactly the
paper's accounting.

Concurrency
-----------

The cache is the one piece of state the Fig 10 parallel workers share
*and* write.  All ingestion goes through :meth:`record_dominators`,
the single lock-guarded mutable surface the flow checker's
``worker-read-only`` contract sanctions (see DESIGN.md); reads snapshot
the accumulated entries under the same lock so a counting pass never
races a concurrent ingest.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery
from ..model.similarity import SimilarityModel

__all__ = ["DominatorCache"]

KeywordSet = FrozenSet[int]


class DominatorCache:
    """Accumulates past dominators and counts survivors per candidate."""

    def __init__(
        self,
        dataset: Dataset,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        model: SimilarityModel,
    ) -> None:
        self.dataset = dataset
        self.query = query
        self.missing = tuple(missing)
        self.model = model
        self._lock = threading.Lock()
        # oid -> (1 - SDist(o, q)); the spatial half of the score never
        # changes across candidates, so it is cached per object.
        self._spatial: Dict[int, float] = {}
        self._docs: Dict[int, KeywordSet] = {}
        self._missing_spatial = [
            1.0 - dataset.normalized_distance(m.loc, query.loc) for m in self.missing
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def record_dominators(self, oids: Iterable[int]) -> None:
        """Record dominators discovered by a processed search.

        This is the sanctioned mutable surface for worker threads: the
        ingest runs under the cache lock, so concurrent workers may
        feed results as they finish.
        """
        with self._lock:
            self._ingest(oids)

    def _ingest(self, oids: Iterable[int]) -> None:
        for oid in oids:
            if oid not in self._docs:
                obj = self.dataset.get(oid)
                self._docs[oid] = obj.doc
                self._spatial[oid] = 1.0 - self.dataset.normalized_distance(
                    obj.loc, self.query.loc
                )

    def count_dominating(self, keywords: KeywordSet, limit: int) -> int:
        """How many cached objects dominate the worst missing object
        under ``keywords``; stops counting at ``limit``.

        "Dominate" means scoring strictly above the *minimum* missing
        object score — the object that determines ``R(M, q')``.
        Entries are snapshotted under the lock, so the count is over a
        consistent prefix of what concurrent workers have ingested.
        """
        with self._lock:
            entries: List[Tuple[float, KeywordSet]] = [
                (self._spatial[oid], doc) for oid, doc in self._docs.items()
            ]
        alpha = self.query.alpha
        beta = 1.0 - alpha
        threshold = min(
            alpha * spatial + beta * self.model.similarity(m.doc, keywords)
            for spatial, m in zip(self._missing_spatial, self.missing)
        )
        count = 0
        for spatial, doc in entries:
            score = alpha * spatial + beta * self.model.similarity(doc, keywords)
            if score > threshold:
                count += 1
                if count >= limit:
                    return count
        return count
