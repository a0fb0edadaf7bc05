"""Unit tests for the Opt3 dominator cache."""

import pytest

from repro import Dataset, Scorer, SpatialKeywordQuery, SpatialObject
from repro.core.dominator_cache import DominatorCache
from repro.model.similarity import JACCARD


def _setup():
    objects = [
        SpatialObject(oid=0, loc=(0.5, 0.0), doc=frozenset({1, 2, 3})),  # missing
        SpatialObject(oid=1, loc=(0.1, 0.0), doc=frozenset({1, 3})),
        SpatialObject(oid=2, loc=(0.6, 0.0), doc=frozenset({1, 2})),
        SpatialObject(oid=3, loc=(0.8, 0.0), doc=frozenset({1})),
        SpatialObject(oid=4, loc=(0.3, 0.0), doc=frozenset({2, 3})),
    ]
    dataset = Dataset(objects, diagonal=1.0)
    query = SpatialKeywordQuery(loc=(0.0, 0.0), doc=frozenset({1, 2}), k=1)
    missing = [dataset.get(0)]
    cache = DominatorCache(dataset, query, missing, JACCARD)
    return dataset, query, missing, cache


class TestCacheAccumulation:
    def test_add_deduplicates(self):
        _, _, _, cache = _setup()
        cache.record_dominators([1, 2])
        cache.record_dominators([2, 3])
        assert len(cache) == 3

    def test_empty_cache_counts_zero(self):
        _, _, _, cache = _setup()
        assert cache.count_dominating(frozenset({1, 2}), limit=10) == 0


class TestCounting:
    def test_count_matches_scorer(self):
        dataset, query, missing, cache = _setup()
        cache.record_dominators([1, 2, 3, 4])
        scorer = Scorer(dataset)
        for keywords in (frozenset({1, 2}), frozenset({2, 3}), frozenset({1})):
            threshold = scorer.st_with_keywords(missing[0], query, keywords)
            expected = sum(
                1
                for oid in (1, 2, 3, 4)
                if scorer.st_with_keywords(dataset.get(oid), query, keywords)
                > threshold
            )
            assert cache.count_dominating(keywords, limit=100) == expected

    def test_limit_short_circuits(self):
        dataset, query, missing, cache = _setup()
        cache.record_dominators([1, 2, 3, 4])
        keywords = frozenset({1, 2})
        full = cache.count_dominating(keywords, limit=100)
        if full >= 1:
            assert cache.count_dominating(keywords, limit=1) == 1

    def test_multi_missing_uses_worst(self):
        dataset, query, _, _ = _setup()
        missing = [dataset.get(0), dataset.get(4)]
        cache = DominatorCache(dataset, query, missing, JACCARD)
        cache.record_dominators([1, 2, 3])
        scorer = Scorer(dataset)
        keywords = frozenset({1, 2})
        threshold = min(
            scorer.st_with_keywords(m, query, keywords) for m in missing
        )
        expected = sum(
            1
            for oid in (1, 2, 3)
            if scorer.st_with_keywords(dataset.get(oid), query, keywords) > threshold
        )
        assert cache.count_dominating(keywords, limit=100) == expected
