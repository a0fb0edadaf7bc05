"""Parity harness for the vectorized scoring kernels.

The contract under test (see :mod:`repro.core.vectorized`): **the
vectorized path is an optimization, never a semantics change**.  On
randomized micro worlds, every observable — ST scores, top-k order,
rank determination, why-not answers, penalty values — must be
*bit-identical* between the scalar and vectorized paths, across all
three similarity models and on the degraded ScanFallback path.  The
packed columnar layout must also round-trip through index persistence
v2 and survive dynamic vocabulary widening.

No ``approx`` anywhere in this file: every comparison is ``==`` on raw
floats.  The CI ``bench`` job re-runs this suite with
``REPRO_VECTORIZE=0`` to prove the scalar fallback answers match too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    KcRAlgorithm,
    KcRTree,
    ScanFallback,
    SetRTree,
    SpatialKeywordQuery,
    SpatialObject,
    TopKSearcher,
    WhyNotQuestion,
    load_index,
    save_index,
)
from repro.core.penalty import PenaltyModel
from repro.core.vectorized import (
    PackedLeaf,
    VocabularyIndex,
    batch_penalties,
    batch_similarity,
    leaf_scores,
)
from repro.model.similarity import COSINE, DICE, JACCARD

MODELS = [JACCARD, DICE, COSINE]


@st.composite
def micro_worlds(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    objects = []
    for i in range(n):
        x = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        y = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        # min_size=0: empty documents exercise the empty-operand
        # convention through the whole stack
        doc = draw(st.frozensets(st.integers(0, 7), min_size=0, max_size=4))
        objects.append(SpatialObject(oid=i, loc=(x, y), doc=doc))
    dataset = Dataset(objects, diagonal=2.0**0.5)
    qx = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    qy = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    qdoc = draw(st.frozensets(st.integers(0, 9), min_size=1, max_size=3))
    k = draw(st.integers(min_value=1, max_value=n))
    alpha = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    query = SpatialKeywordQuery(loc=(qx, qy), doc=qdoc, k=k, alpha=alpha)
    target = draw(st.integers(min_value=0, max_value=n - 1))
    return dataset, query, target


class TestSearcherParity:
    """TopKSearcher: vectorized leaf expansion vs the scalar loop."""

    @given(micro_worlds(), st.sampled_from(MODELS))
    @settings(max_examples=60, deadline=None)
    def test_top_k_bit_identical(self, world, model):
        dataset, query, _ = world
        tree = SetRTree(dataset, capacity=4)
        scalar = TopKSearcher(tree, model, vectorize=False)
        vector = TopKSearcher(tree, model, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)

    @given(micro_worlds(), st.sampled_from(MODELS))
    @settings(max_examples=40, deadline=None)
    def test_rank_and_dominators_bit_identical(self, world, model):
        dataset, query, target = world
        tree = SetRTree(dataset, capacity=4)
        scalar = TopKSearcher(tree, model, vectorize=False)
        vector = TopKSearcher(tree, model, vectorize=True)
        missing = [dataset.get(target)]
        got = vector.rank_of_missing(query, missing)
        want = scalar.rank_of_missing(query, missing)
        assert (got.rank, got.dominators, got.aborted) == (
            want.rank,
            want.dominators,
            want.aborted,
        )

    @given(micro_worlds())
    @settings(max_examples=30, deadline=None)
    def test_kcr_tree_top_k_parity(self, world):
        dataset, query, _ = world
        tree = KcRTree(dataset, capacity=4)
        scalar = TopKSearcher(tree, vectorize=False)
        vector = TopKSearcher(tree, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)


class TestScanFallbackParity:
    """The degraded path shares the kernels and the contract."""

    @given(micro_worlds(), st.sampled_from(MODELS))
    @settings(max_examples=40, deadline=None)
    def test_top_k_and_rank(self, world, model):
        dataset, query, target = world
        scalar = ScanFallback(dataset, model, vectorize=False)
        vector = ScanFallback(dataset, model, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)
        missing = [dataset.get(target)]
        assert vector.rank_of_missing(query, missing) == scalar.rank_of_missing(
            query, missing
        )

    @given(micro_worlds(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=15, deadline=None)
    def test_whynot_answer_parity(self, world, lam):
        dataset, query, target = world
        question = WhyNotQuestion(query, (target,), lam=lam)
        answers = []
        for vectorize in (False, True):
            fallback = ScanFallback(dataset, vectorize=vectorize)
            if fallback.rank_of_missing(
                query, [dataset.get(target)]
            ) <= query.k:
                return  # nothing to explain; both paths agree trivially
            answers.append(fallback.answer(question))
        scalar, vector = answers
        assert vector.refined.keywords == scalar.refined.keywords
        assert vector.refined.penalty == scalar.refined.penalty  # bitwise
        assert vector.refined.rank == scalar.refined.rank
        assert vector.initial_rank == scalar.initial_rank
        assert vector.degraded and scalar.degraded


class TestAlgorithmParity:
    """Full why-not algorithms over the index, both modes."""

    @given(micro_worlds(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=15, deadline=None)
    def test_kcr_answer_parity(self, world, lam):
        dataset, query, target = world
        oracle_rank = ScanFallback(dataset).rank_of_missing(
            query, [dataset.get(target)]
        )
        if oracle_rank <= query.k:
            return
        question = WhyNotQuestion(query, (target,), lam=lam)
        answers = []
        for vectorize in (False, True):
            tree = KcRTree(dataset, capacity=4)
            algorithm = KcRAlgorithm(tree, vectorize=vectorize)
            answers.append(algorithm.answer(question))
        scalar, vector = answers
        assert vector.refined.keywords == scalar.refined.keywords
        assert vector.refined.penalty == scalar.refined.penalty
        assert vector.refined.rank == scalar.refined.rank


class TestKernelParity:
    """Kernels against the scalar model arithmetic, element by element."""

    @given(
        st.lists(st.frozensets(st.integers(0, 30), max_size=6), min_size=1,
                 max_size=20),
        st.frozensets(st.integers(0, 35), max_size=5),
        st.sampled_from(MODELS),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_similarity(self, docs, qdoc, model):
        vocab = VocabularyIndex()
        for doc in docs:
            vocab.extend(doc)
        packed = PackedLeaf.build(
            [(i, (0.0, 0.0), doc) for i, doc in enumerate(docs)], vocab
        )
        inter = np.array(
            [float(len(doc & qdoc)) for doc in docs], dtype=np.float64
        )
        got = batch_similarity(model.name, inter, packed.doc_lens, len(qdoc))
        want = [model.similarity(doc, qdoc) for doc in docs]
        assert got.tolist() == want

    @given(micro_worlds(), st.sampled_from(MODELS))
    @settings(max_examples=40, deadline=None)
    def test_leaf_scores_vs_scalar_eqn1(self, world, model):
        dataset, query, _ = world
        vocab = VocabularyIndex.from_dataset(dataset)
        packed = PackedLeaf.of_dataset(dataset, vocab)
        got = leaf_scores(
            packed,
            query.loc,
            query.alpha,
            vocab.encode(query.doc),
            len(query.doc),
            model.name,
            dataset,
        )
        want = []
        for obj in dataset:
            dist = dataset.normalized_distance(obj.loc, query.loc)
            tsim = model.similarity(obj.doc, query.doc)
            want.append(
                query.alpha * (1.0 - dist) + (1.0 - query.alpha) * tsim
            )
        assert got == want

    @given(
        st.integers(min_value=1, max_value=20),  # k0
        st.integers(min_value=1, max_value=40),  # margin above k0
        st.floats(min_value=0.0, max_value=1.0),  # lam
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # delta_doc
                st.integers(min_value=1, max_value=200),  # rank
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_penalties(self, k0, margin, lam, pairs):
        initial_rank = k0 + margin
        universe = 13
        model = PenaltyModel(
            k0=k0, initial_rank=initial_rank, doc_universe_size=universe,
            lam=lam,
        )
        deltas = [d for d, _ in pairs]
        ranks = [r for _, r in pairs]
        got = batch_penalties(
            lam, k0, initial_rank - k0, universe, deltas, ranks
        )
        want = [model.penalty(d, r) for d, r in pairs]
        assert got.tolist() == want


class TestPackedLayout:
    """Construction, maintenance, and persistence of the packed blocks."""

    def _assert_leaves_packed(self, tree):
        """Every leaf carries a healthy packed mirror of its entries."""
        stack = [tree.root_id]
        checked = 0
        while stack:
            node = tree.fetch_node(stack.pop())
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.child_entries)
                continue
            packed = tree.packed_leaf(node)
            assert packed is not None
            entries = node.object_entries
            assert len(packed) == len(entries)
            docs = tree.fetch_docs(entries)
            for row, (entry, doc) in enumerate(zip(entries, docs)):
                assert int(packed.oids[row]) == entry.oid
                assert float(packed.xs[row]) == entry.loc[0]
                assert float(packed.ys[row]) == entry.loc[1]
                assert float(packed.doc_lens[row]) == float(len(doc))
                assert np.array_equal(
                    packed.masks[row][: tree.vocab.n_blocks],
                    tree.vocab.encode(doc)[: packed.width],
                ) or np.array_equal(packed.masks[row], tree.vocab.encode(doc))
            checked += 1
        assert checked > 0

    @given(micro_worlds())
    @settings(max_examples=25, deadline=None)
    def test_bulk_load_packs_every_leaf(self, world):
        dataset, _, _ = world
        self._assert_leaves_packed(SetRTree(dataset, capacity=4))

    @given(world=micro_worlds())
    @settings(max_examples=15, deadline=None)
    def test_persistence_round_trip(self, tmp_path_factory, world):
        dataset, query, _ = world
        tree = SetRTree(dataset, capacity=4)
        path = tmp_path_factory.mktemp("idx") / "tree.json"
        save_index(tree, path)
        loaded = load_index(path, dataset)
        self._assert_leaves_packed(loaded)
        # and the loaded tree answers bit-identically, both modes
        for vectorize in (False, True):
            assert TopKSearcher(loaded, vectorize=vectorize).top_k(
                query
            ) == TopKSearcher(tree, vectorize=False).top_k(query)

    def test_vocab_widening_keeps_stale_masks_correct(self):
        """A leaf packed under a narrower vocabulary must stay correct
        after inserts introduce new terms (append-only bit assignment +
        common-prefix intersection)."""
        objects = [
            SpatialObject(oid=i, loc=(0.1 * i, 0.1 * i), doc=frozenset({i}))
            for i in range(6)
        ]
        dataset = Dataset(objects, diagonal=2.0**0.5)
        tree = SetRTree(dataset, capacity=4)
        width_before = tree.vocab.n_blocks
        # 70 new terms force extra uint64 blocks
        for i in range(6, 9):
            obj = SpatialObject(
                oid=i,
                loc=(0.1 * i, 0.05),
                doc=frozenset(range(100 + 70 * i, 100 + 70 * i + 70)),
            )
            dataset.add(obj)
            tree.insert(obj)
        assert tree.vocab.n_blocks > width_before
        query = SpatialKeywordQuery(
            loc=(0.2, 0.2), doc=frozenset({1, 2, 170}), k=9, alpha=0.5
        )
        scalar = TopKSearcher(tree, vectorize=False)
        vector = TopKSearcher(tree, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)

    def test_deletion_keeps_parity(self):
        objects = [
            SpatialObject(
                oid=i, loc=(0.07 * i, 0.09 * i), doc=frozenset({i % 5, 5})
            )
            for i in range(20)
        ]
        dataset = Dataset(objects, diagonal=2.0**0.5)
        tree = SetRTree(dataset, capacity=4)
        for oid in (3, 7, 11, 15):
            tree.delete(dataset.get(oid))
        query = SpatialKeywordQuery(
            loc=(0.3, 0.3), doc=frozenset({2, 5}), k=10, alpha=0.5
        )
        scalar = TopKSearcher(tree, vectorize=False)
        vector = TopKSearcher(tree, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)
        self._assert_leaves_packed(tree)


class TestAlphaLambdaSweeps:
    """Dense deterministic sweeps over the two query-shaping knobs."""

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("model", MODELS)
    def test_alpha_sweep_top_k(self, alpha, model):
        objects = [
            SpatialObject(
                oid=i,
                loc=((i * 7 % 10) / 10.0, (i * 3 % 10) / 10.0),
                doc=frozenset({i % 4, (i * 2) % 6}),
            )
            for i in range(24)
        ]
        dataset = Dataset(objects, diagonal=2.0**0.5)
        tree = SetRTree(dataset, capacity=4)
        query = SpatialKeywordQuery(
            loc=(0.4, 0.6), doc=frozenset({1, 2, 5}), k=12, alpha=alpha
        )
        scalar = TopKSearcher(tree, model, vectorize=False)
        vector = TopKSearcher(tree, model, vectorize=True)
        assert vector.top_k(query) == scalar.top_k(query)

    @pytest.mark.parametrize("lam", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_lambda_sweep_scan_answers(self, lam):
        objects = [
            SpatialObject(
                oid=i,
                loc=((i * 7 % 12) / 12.0, (i * 5 % 12) / 12.0),
                doc=frozenset({i % 3, (i * 2) % 5}),
            )
            for i in range(18)
        ]
        dataset = Dataset(objects, diagonal=2.0**0.5)
        query = SpatialKeywordQuery(
            loc=(0.1, 0.9), doc=frozenset({0, 4}), k=2, alpha=0.5
        )
        target = ScanFallback(dataset).top_k(
            query, k=len(objects)
        )[-1][1]
        if ScanFallback(dataset).rank_of_missing(
            query, [dataset.get(target)]
        ) <= query.k:
            pytest.skip("degenerate world: target already in top-k")
        question = WhyNotQuestion(query, (target,), lam=lam)
        scalar = ScanFallback(dataset, vectorize=False).answer(question)
        vector = ScanFallback(dataset, vectorize=True).answer(question)
        assert vector.refined.keywords == scalar.refined.keywords
        assert vector.refined.penalty == scalar.refined.penalty
