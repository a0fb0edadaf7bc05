"""Tests for dynamic R-tree insertion with summary maintenance."""

import numpy as np
import pytest

from repro import (
    Dataset,
    DatasetError,
    IndexStructureError,
    InvertedFileIndex,
    KcRTree,
    Oracle,
    SetRTree,
    SpatialKeywordQuery,
    SpatialObject,
    TopKSearcher,
    WhyNotEngine,
    WhyNotQuestion,
    make_euro_like,
)


def _split_dataset(n=400, keep=200, seed=31):
    full, _ = make_euro_like(n, seed=seed)
    objects = list(full.objects)
    initial = Dataset(objects[:keep], diagonal=full.diagonal)
    return initial, objects[keep:], full


def _score_multiset(oracle, dataset, query, oids):
    scores = oracle.scores(query)
    row = {o.oid: i for i, o in enumerate(dataset.objects)}
    return sorted(round(scores[row[oid]], 10) for oid in oids)


class TestDatasetAdd:
    def test_add_updates_statistics(self):
        ds = Dataset(
            [SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1}))],
            diagonal=1.0,
        )
        ds.add(SpatialObject(oid=1, loc=(0.2, 0.2), doc=frozenset({1, 2})))
        assert len(ds) == 2
        assert ds.frequency(1) == 2
        assert ds.frequency(2) == 1
        assert ds.get(1).doc == {1, 2}

    def test_duplicate_id_rejected(self):
        ds = Dataset(
            [SpatialObject(oid=0, loc=(0.1, 0.1), doc=frozenset({1}))],
            diagonal=1.0,
        )
        with pytest.raises(DatasetError):
            ds.add(SpatialObject(oid=0, loc=(0.5, 0.5), doc=frozenset({2})))

    def test_diagonal_fixed(self):
        ds = Dataset(
            [SpatialObject(oid=0, loc=(0.0, 0.0), doc=frozenset({1}))],
            diagonal=1.0,
        )
        ds.add(SpatialObject(oid=1, loc=(5.0, 5.0), doc=frozenset({1})))
        assert ds.diagonal == 1.0


class TestTreeInsertion:
    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_structure_valid_after_inserts(self, tree_cls):
        initial, rest, _ = _split_dataset()
        tree = tree_cls(initial, capacity=8)
        for obj in rest:
            initial.add(obj)
            tree.insert(obj)
        tree.validate()

    @pytest.mark.parametrize("tree_cls", [SetRTree, KcRTree])
    def test_top_k_correct_after_inserts(self, tree_cls):
        initial, rest, full = _split_dataset()
        tree = tree_cls(initial, capacity=8)
        for obj in rest:
            initial.add(obj)
            tree.insert(obj)
        oracle = Oracle(initial)
        searcher = TopKSearcher(tree)
        rng = np.random.default_rng(5)
        for _ in range(4):
            seed_obj = initial.objects[int(rng.integers(0, len(initial)))]
            doc = frozenset(list(seed_obj.doc)[:3])
            query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=12)
            got = [oid for _, oid in searcher.top_k(query)]
            expected = oracle.top_k_ids(query)
            assert _score_multiset(oracle, initial, query, got) == _score_multiset(
                oracle, initial, query, expected
            )

    def test_setr_payloads_consistent_after_inserts(self):
        initial, rest, _ = _split_dataset(n=150, keep=60)
        tree = SetRTree(initial, capacity=4)
        for obj in rest:
            initial.add(obj)
            tree.insert(obj)
        # every node's (union, intersection) must match its subtree
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

    def test_kcr_counts_consistent_after_inserts(self):
        initial, rest, _ = _split_dataset(n=150, keep=60)
        tree = KcRTree(initial, capacity=4)
        for obj in rest:
            initial.add(obj)
            tree.insert(obj)
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

    def test_insert_unknown_object_rejected(self):
        initial, rest, _ = _split_dataset(n=60, keep=50)
        tree = SetRTree(initial, capacity=8)
        with pytest.raises(IndexStructureError):
            tree.insert(rest[0])  # not added to the dataset first

    def test_root_split_grows_height(self):
        objects = [
            SpatialObject(oid=i, loc=(i / 20.0, i / 20.0), doc=frozenset({i % 3}))
            for i in range(3)
        ]
        ds = Dataset(objects, diagonal=2.0**0.5)
        tree = SetRTree(ds, capacity=4)
        assert tree.height == 1
        for i in range(3, 30):
            obj = SpatialObject(
                oid=i, loc=(i / 40.0, (i * 7 % 40) / 40.0), doc=frozenset({i % 3})
            )
            ds.add(obj)
            tree.insert(obj)
        assert tree.height >= 2
        tree.validate()


class TestInvertedInsertion:
    def test_postings_updated(self):
        initial, rest, _ = _split_dataset(n=120, keep=80)
        index = InvertedFileIndex(initial, capacity=8)
        for obj in rest:
            initial.add(obj)
            index.insert(obj)
        oracle = Oracle(initial)
        seed_obj = initial.objects[10]
        doc = frozenset(list(seed_obj.doc)[:2])
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=8)
        got = [oid for _, oid in index.top_k(query)]
        expected = oracle.top_k_ids(query)
        assert _score_multiset(oracle, initial, query, got) == _score_multiset(
            oracle, initial, query, expected
        )


class TestEngineInsertion:
    def test_why_not_answer_matches_fresh_engine(self):
        initial, rest, full = _split_dataset(n=500, keep=400, seed=77)
        engine = WhyNotEngine(initial)
        _ = engine.setr_tree  # build before the inserts
        _ = engine.kcr_tree
        for obj in rest:
            engine.insert(obj)

        fresh = WhyNotEngine(Dataset(list(initial.objects), diagonal=initial.diagonal))
        oracle = Oracle(initial)
        rng = np.random.default_rng(13)
        checked = 0
        attempts = 0
        while checked < 2 and attempts < 60:
            attempts += 1
            seed_obj = initial.objects[int(rng.integers(0, len(initial)))]
            doc = frozenset(list(seed_obj.doc)[:3])
            if len(doc) < 2:
                continue
            query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5)
            try:
                missing = oracle.object_at_rank(query, 16)
            except ValueError:
                continue
            if len(initial.get(missing).doc - query.doc) > 5:
                continue
            question = WhyNotQuestion(query, (missing,), lam=0.5)
            for method in ("advanced", "kcr"):
                a = engine.answer(question, method=method)
                b = fresh.answer(question, method=method)
                assert a.refined.penalty == pytest.approx(b.refined.penalty)
            checked += 1
        assert checked == 2
