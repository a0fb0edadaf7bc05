"""Unit tests for the KcR-tree (keyword-count maps)."""

import pytest

from repro import Dataset, KcRTree, SpatialKeywordQuery, SpatialObject


def _dataset():
    # Mirrors the structure of the paper's Fig 3 example: restaurants
    # with overlapping cuisine keywords.
    objects = [
        SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1, 2})),  # Chinese rest.
        SpatialObject(oid=1, loc=(0.2, 0.1), doc=frozenset({1, 2})),
        SpatialObject(oid=2, loc=(0.15, 0.2), doc=frozenset({2})),  # restaurant only
        SpatialObject(oid=3, loc=(0.8, 0.8), doc=frozenset({3, 2})),  # Italian rest.
        SpatialObject(oid=4, loc=(0.9, 0.85), doc=frozenset({3})),
        SpatialObject(oid=5, loc=(0.85, 0.9), doc=frozenset({2, 3})),
    ]
    return Dataset(objects, diagonal=2.0**0.5)


@pytest.fixture(scope="module")
def tree():
    return KcRTree(_dataset(), capacity=3)


class TestCountMaps:
    def test_root_counts(self, tree):
        cnt, kcm = tree.fetch_kcm(tree.root_summary_record)
        assert cnt == 6
        assert kcm == {1: 2, 2: 5, 3: 3}

    def test_counts_consistent_everywhere(self, tree):
        """Each node's kcm must equal the true per-keyword counts of
        the objects below it (the Fig 3 invariant)."""
        stack = [(tree.root_id, tree.root_summary_record)]
        while stack:
            node_id, aux = stack.pop()
            cnt, kcm = tree.fetch_kcm(aux)
            docs = []
            inner = [node_id]
            while inner:
                node = tree.buffer.fetch(inner.pop())
                if node.is_leaf:
                    docs.extend(tree.fetch_docs(node.object_entries))
                else:
                    inner.extend(e.child_id for e in node.entries)
            assert cnt == len(docs)
            expected = {}
            for doc in docs:
                for term in doc:
                    expected[term] = expected.get(term, 0) + 1
            assert kcm == expected
            node = tree.buffer.fetch(node_id)
            if not node.is_leaf:
                stack.extend((e.child_id, e.aux_record) for e in node.entries)


class TestScoreBound:
    def test_bound_dominates_objects(self, tree):
        query = SpatialKeywordQuery(
            loc=(0.3, 0.3), doc=frozenset({2, 3}), k=1, alpha=0.4
        )
        dataset = tree.dataset
        root = tree.root()
        for entry in root.child_entries:
            bound = tree.entry_score_bound(entry, query, query.doc)
            stack = [entry.child_id]
            while stack:
                node = tree.fetch_node(stack.pop())
                if node.is_leaf:
                    entries = node.object_entries
                    for oe, doc in zip(entries, tree.fetch_docs(entries)):
                        dist = dataset.normalized_distance(oe.loc, query.loc)
                        tsim = len(doc & query.doc) / len(doc | query.doc)
                        score = query.alpha * (1 - dist) + (1 - query.alpha) * tsim
                        assert score <= bound + 1e-12
                else:
                    stack.extend(e.child_id for e in node.entries)

    def test_empty_keywords_bound_is_spatial_only(self, tree):
        query = SpatialKeywordQuery(loc=(0.1, 0.1), doc=frozenset({1}), k=1, alpha=0.5)
        root = tree.root()
        entry = root.child_entries[0]
        bound = tree.entry_score_bound(entry, query, frozenset())
        min_d = entry.rect.min_dist(query.loc) / tree.dataset.diagonal
        assert bound == pytest.approx(query.alpha * (1 - min_d))
