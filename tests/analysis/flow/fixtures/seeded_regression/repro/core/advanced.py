"""Fixture: a worker entry point that reaches the unguarded ingest."""

from .dominator_cache import DominatorCache


class AdvancedAlgorithm:
    def __init__(self, cache: DominatorCache) -> None:
        self.cache = cache

    def _evaluate_candidate(self, candidate: object) -> object:
        self._share_dominators()
        return candidate

    def _share_dominators(self) -> None:
        self.cache.ingest_unguarded([1, 2])
