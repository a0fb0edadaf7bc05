"""Unit tests for the SetR-tree (union/intersection payloads, Theorem 1)."""

import pytest

from repro import Dataset, SetRTree, SpatialKeywordQuery, SpatialObject


def _dataset():
    objects = [
        SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1, 2})),
        SpatialObject(oid=1, loc=(0.15, 0.12), doc=frozenset({1, 3})),
        SpatialObject(oid=2, loc=(0.9, 0.9), doc=frozenset({4})),
        SpatialObject(oid=3, loc=(0.85, 0.95), doc=frozenset({4, 5})),
        SpatialObject(oid=4, loc=(0.5, 0.5), doc=frozenset({1, 4})),
        SpatialObject(oid=5, loc=(0.55, 0.45), doc=frozenset({2, 4})),
    ]
    return Dataset(objects, diagonal=2.0**0.5)


@pytest.fixture(scope="module")
def tree():
    return SetRTree(_dataset(), capacity=2)


class TestSetPayloads:
    def test_root_union_covers_all_keywords(self, tree):
        union, intersection = tree.fetch_set_pair(tree.root_summary_record)
        assert union == {1, 2, 3, 4, 5}
        assert intersection == set()  # no keyword is in all six documents

    def test_leaf_level_pairs_consistent(self, tree):
        """Every node's union/intersection must match its subtree."""
        stack = [(tree.root_id, tree.root_summary_record)]
        while stack:
            node_id, aux = stack.pop()
            union, intersection = tree.fetch_set_pair(aux)
            docs = []
            inner = [node_id]
            while inner:
                node = tree.buffer.fetch(inner.pop())
                if node.is_leaf:
                    docs.extend(tree.fetch_docs(node.object_entries))
                else:
                    inner.extend(e.child_id for e in node.entries)
            assert union == frozenset().union(*docs)
            assert intersection == frozenset.intersection(*docs)
            node = tree.buffer.fetch(node_id)
            if not node.is_leaf:
                stack.extend((e.child_id, e.aux_record) for e in node.entries)


class TestTheorem1Bound:
    def test_bound_dominates_every_object(self, tree):
        """Eqn 5: the node bound is >= the score of any object below."""
        query = SpatialKeywordQuery(
            loc=(0.2, 0.3), doc=frozenset({1, 4}), k=1, alpha=0.6
        )
        dataset = tree.dataset
        root = tree.root()
        stack = [(entry, tree.entry_score_bound(entry, query, query.doc))
                 for entry in (root.child_entries if not root.is_leaf else [])]
        while stack:
            entry, bound = stack.pop()
            node = tree.fetch_node(entry.child_id)
            if node.is_leaf:
                entries = node.object_entries
                for oe, doc in zip(entries, tree.fetch_docs(entries)):
                    dist = dataset.normalized_distance(oe.loc, query.loc)
                    tsim = len(doc & query.doc) / len(doc | query.doc)
                    score = query.alpha * (1 - dist) + (1 - query.alpha) * tsim
                    assert score <= bound + 1e-12
            else:
                for child in node.entries:
                    child_bound = tree.entry_score_bound(child, query, query.doc)
                    assert child_bound <= bound + 1e-9  # bounds tighten downwards
                    stack.append((child, child_bound))

    def test_bound_with_keyword_override(self, tree):
        query = SpatialKeywordQuery(loc=(0.2, 0.3), doc=frozenset({1}), k=1)
        root = tree.root()
        entry = root.child_entries[0]
        with_override = tree.entry_score_bound(entry, query, frozenset({4, 5}))
        direct = tree.entry_score_bound(
            entry, query.with_keywords({4, 5}), frozenset({4, 5})
        )
        assert with_override == pytest.approx(direct)

    def test_far_node_spatial_bound_caps(self, tree):
        """A node far away cannot out-bound alpha when textually empty."""
        query = SpatialKeywordQuery(
            loc=(0.0, 0.0), doc=frozenset({99}), k=1, alpha=0.5
        )
        root = tree.root()
        for entry in root.child_entries:
            bound = tree.entry_score_bound(entry, query, query.doc)
            assert bound <= query.alpha  # textual term must be 0 for keyword 99
