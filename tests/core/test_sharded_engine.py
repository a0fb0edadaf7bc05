"""One engine path: the default engine is the one-shard engine.

Pins four contracts of running every engine over a shard set:

* a one-shard engine costs exactly what a bare tree costs (I/O and
  algorithm counters), because merging one shard's reply does no work;
* concurrent questions over one index never share a shard's KcR worker
  state or interleave on its worker pipes;
* inserts, removes and keyword updates go to the owning tile's shard,
  stay exact against the brute-force oracle, and a storage fault
  mid-mutation quarantines only that shard tree until ``recover()``;
* all nine methods run over a sharded engine and reach the
  brute-force-optimal penalty on their refinement axis.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    AdvancedAlgorithm,
    CorruptRecordError,
    KcRAlgorithm,
    KcRTree,
    Oracle,
    PenaltyModel,
    SetRTree,
    SpatialKeywordQuery,
    SpatialObject,
    WhyNotEngine,
    WhyNotQuestion,
    make_euro_like,
)
from repro.core.alpha_refinement import AlphaRefinementAlgorithm
from repro.core.candidates import CandidateEnumerator
from repro.core.engine import METHODS
from repro.core.location_refinement import LocationRefinementAlgorithm
from repro.index.search import TopKSearcher
from repro.storage.faults import FaultInjector


def _bare(tree):
    """The engine's buffer policy (25% of the pages, min 32) on a tree."""
    pages = max(32, int(tree.buffer.total_pages * 0.25))
    tree.resize_buffer(min(pages, tree.buffer.capacity_pages or pages))
    return tree


def _assert_same_io(actual, expected):
    """Equal I/O; under ``REPRO_FAULTS`` the injected retries differ per
    pool, so only the deterministic fields must match."""
    if FaultInjector.from_env() is None:
        assert actual == expected
    else:
        for field in ("page_reads", "page_writes", "node_fetches", "buffer_hits"):
            assert getattr(actual, field) == getattr(expected, field)


def _questions(dataset, count, seed, rank=26):
    oracle = Oracle(dataset)
    rng = np.random.default_rng(seed)
    questions = []
    while len(questions) < count:
        seed_obj = dataset.objects[int(rng.integers(0, len(dataset)))]
        doc = frozenset(list(seed_obj.doc)[:3])
        if len(doc) < 2:
            continue
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5, alpha=0.5)
        try:
            missing = oracle.object_at_rank(query, rank)
        except ValueError:
            continue
        if len(dataset.get(missing).doc - query.doc) > 4:
            continue
        questions.append(WhyNotQuestion(query, (missing,), lam=0.5))
    return questions


# ----------------------------------------------------------------------
# one shard costs what one tree costs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bare_trees(euro_small):
    dataset, _ = euro_small
    return _bare(SetRTree(dataset)), _bare(KcRTree(dataset))


@pytest.mark.parametrize("shards", [None, 1])
class TestOneShardIsOneTree:
    def _engine(self, dataset, shards):
        if shards is None:
            return WhyNotEngine(dataset)
        return WhyNotEngine(dataset, shards=shards)

    def test_top_k_io_equals_bare_searcher(
        self, euro_small, euro_cases, bare_trees, shards
    ):
        dataset, _ = euro_small
        engine = self._engine(dataset, shards)
        setr, _ = bare_trees
        searcher = TopKSearcher(setr)
        ledger = engine.setr_tree.stats  # the one shard's SetR ledger
        for case in euro_cases:
            for k in (1, 10):
                query = case.query.with_k(k)
                engine.reset_buffers()
                setr.reset_buffer()
                before = ledger.snapshot()
                outcome = engine.run_top_k(query)
                engine_io = ledger.snapshot() - before
                before = setr.stats.snapshot()
                expected = searcher.top_k(query)
                assert outcome.results == expected
                _assert_same_io(engine_io, setr.stats.snapshot() - before)

    def test_answer_io_and_counters_equal_bare_tree(
        self, euro_small, euro_cases, bare_trees, shards
    ):
        dataset, _ = euro_small
        engine = self._engine(dataset, shards)
        setr, kcr = bare_trees
        for case in euro_cases[:3]:
            for method, algorithm, tree in (
                ("advanced", AdvancedAlgorithm(setr), setr),
                ("kcr", KcRAlgorithm(kcr), kcr),
            ):
                engine.reset_buffers()
                tree.reset_buffer()
                answer = engine.answer(case, method=method)
                expected = algorithm.answer(case)
                assert answer.refined == expected.refined
                _assert_same_io(answer.io, expected.io)
                assert answer.counters == expected.counters


# ----------------------------------------------------------------------
# concurrent fan-outs keep their worker state apart
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "shards,mode", [(1, "simulate"), (4, "simulate"), (4, "process")]
)
def test_concurrent_kcr_answers_match_sequential(euro_small, shards, mode):
    dataset, _ = euro_small
    questions = _questions(dataset, 4, seed=13)
    reference = WhyNotEngine(dataset, shards=shards)
    expected = [reference.answer(q, method="kcr") for q in questions]
    engine = WhyNotEngine(dataset, shards=shards, shard_mode=mode)
    engine.sharded_index.ensure_built("kcr", engine.model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ThreadPoolExecutor(max_workers=4)
    try:
        answers = list(
            pool.map(
                lambda q: engine.answer(q, method="kcr"),
                questions * 2,
                timeout=300,
            )
        )
        if mode == "simulate":
            # Every batch dropped its traversals when it ended.
            backends = engine.sharded_index._backends.values()
            assert not any(backend.state.get("kcr") for backend in backends)
    finally:
        sys.setswitchinterval(interval)
        engine.close()  # also frees a thread stuck on a worker pipe
        pool.shutdown()
    for answer, base in zip(answers, expected * 2):
        assert answer.refined == base.refined
        assert answer.counters == base.counters
        assert not answer.degraded


# ----------------------------------------------------------------------
# mutations routed to the owning shard
# ----------------------------------------------------------------------
def _assert_exact(engine, questions):
    """Top-k and why-not answers equal the brute-force oracle's."""
    oracle = Oracle(engine.dataset)
    for question in questions:
        query = question.query
        ids = [oid for _, oid in engine.top_k(query.with_k(10))]
        assert ids == list(oracle.top_k_ids(query.with_k(10)))
        if all(oid in engine.dataset for oid in question.missing) and (
            oracle.rank_of_set(question.missing, query) > query.k
        ):
            answer = engine.answer(question, method="advanced")
            assert answer.refined.penalty == pytest.approx(
                _keyword_optimum(engine.dataset, question), abs=1e-9
            )


def _mutable_world(mode):
    """A private four-shard engine (mutations change its dataset)."""
    full, _ = make_euro_like(240, seed=71)
    engine = WhyNotEngine(
        type(full)(list(full.objects), diagonal=full.diagonal),
        shards=4,
        shard_mode=mode,
    )
    questions = _questions(engine.dataset, 2, seed=5, rank=16)
    _ = engine.answer(questions[0], method="kcr")
    _ = engine.answer(questions[0], method="advanced")  # both kinds built
    return engine, questions


@pytest.mark.parametrize("mode", ["simulate", "process"])
class TestShardedMutations:
    @pytest.fixture()
    def world(self, mode):
        engine, questions = _mutable_world(mode)
        yield engine, questions
        engine.close()

    def test_insert_remove_update_stay_exact(self, world):
        engine, questions = world
        dataset = engine.dataset
        fresh = max(dataset.doc_frequency) + 1
        asked = {oid for question in questions for oid in question.missing}
        victims = [o.oid for o in dataset.objects if o.oid not in asked][:6]
        for oid in victims[:3]:
            engine.remove(oid)
        for oid in victims[3:]:
            engine.update_keywords(oid, {fresh, 1})
        base = dataset.objects[10]
        engine.insert(
            SpatialObject(oid=10_000, loc=base.loc, doc=frozenset({fresh, 2}))
        )
        assert not engine.quarantined
        index = engine.sharded_index
        assert sum(len(shard.dataset) for shard in index.shards) == len(dataset)
        assert 10_000 in index.shards[index.plan.tile_of(base.loc)].dataset
        _assert_exact(engine, questions)

    def test_insert_into_empty_tile(self, world):
        engine, questions = world
        index = engine.sharded_index
        shard = index.shards[2]
        emptied = list(shard.dataset.objects)
        for obj in emptied:
            engine.remove(obj.oid)
        assert shard.is_empty
        _assert_exact(engine, questions)
        for obj in emptied[:3]:
            engine.insert(obj)
        assert len(shard.dataset) == 3
        _assert_exact(engine, questions)

    def test_fault_during_insert_quarantines_one_shard_tree(
        self, mode, monkeypatch
    ):
        new_oid = 20_000
        real = KcRTree.insert

        def torn(tree, obj):
            if obj.oid == new_oid:
                raise CorruptRecordError(0, "torn write mid-insert")
            return real(tree, obj)

        # Patched before the world builds, so process workers fork with it.
        monkeypatch.setattr(KcRTree, "insert", torn)
        engine, questions = _mutable_world(mode)
        index = engine.sharded_index
        base = engine.dataset.objects[20]
        tid = index.plan.tile_of(base.loc)
        engine.insert(
            SpatialObject(oid=new_oid, loc=base.loc, doc=frozenset({1, 2}))
        )
        assert set(engine.quarantined) == {f"shard-{tid}:kcr"}
        answer = engine.answer(questions[0], method="kcr")
        assert answer.degraded
        assert answer.refined.penalty == pytest.approx(
            _keyword_optimum(engine.dataset, questions[0]), abs=1e-9
        )
        assert engine.recover()
        assert not engine.quarantined
        answer = engine.answer(questions[0], method="kcr")
        assert not answer.degraded
        assert answer.refined.penalty == pytest.approx(
            _keyword_optimum(engine.dataset, questions[0]), abs=1e-9
        )
        _assert_exact(engine, questions)
        engine.close()


# ----------------------------------------------------------------------
# all nine methods over a sharded engine, against the oracle
# ----------------------------------------------------------------------
def _penalty_model(oracle, dataset, question):
    query = question.query
    missing_doc = frozenset().union(*(dataset.get(m).doc for m in question.missing))
    return PenaltyModel(
        k0=query.k,
        initial_rank=oracle.rank_of_set(question.missing, query),
        doc_universe_size=len(query.doc | missing_doc),
        lam=question.lam,
    ), missing_doc


def _keyword_optimum(dataset, question):
    oracle = Oracle(dataset)
    model, missing_doc = _penalty_model(oracle, dataset, question)
    best = model.basic_penalty
    for candidate in CandidateEnumerator(question.query.doc, missing_doc).iter_naive():
        rank = oracle.rank_of_set(question.missing, question.query, candidate.keywords)
        best = min(best, model.penalty(candidate.delta_doc, rank))
    return best


def _alpha_optimum(dataset, question, n_samples=64):
    oracle = Oracle(dataset)
    model, _ = _penalty_model(oracle, dataset, question)
    query, lam = question.query, question.lam
    norm = max(query.alpha, 1.0 - query.alpha)
    best = model.basic_penalty
    for i in range(1, n_samples + 1):
        alpha = i / (n_samples + 1)
        rank = oracle.rank_of_set(question.missing, query.with_alpha(alpha))
        shift = (1.0 - lam) * abs(alpha - query.alpha) / norm
        best = min(best, model.k_penalty(rank) + shift)
    return best


def _location_optimum(dataset, question):
    oracle = Oracle(dataset)
    model, _ = _penalty_model(oracle, dataset, question)
    query = question.query
    targets = [dataset.get(m).loc for m in question.missing]
    best = model.basic_penalty
    sampler = LocationRefinementAlgorithm(None)
    for _, loc in sampler._candidate_locations(query.loc, targets):
        moved = SpatialKeywordQuery(loc=loc, doc=query.doc, k=query.k, alpha=query.alpha)
        rank = oracle.rank_of_set(question.missing, moved)
        shift = (1.0 - question.lam) * dataset.normalized_distance(loc, query.loc)
        best = min(best, model.k_penalty(rank) + shift)
    return best


@pytest.fixture(scope="module")
def four_shards(euro_small):
    dataset, _ = euro_small
    engine = WhyNotEngine(dataset, shards=4)
    yield engine
    engine.close()


@pytest.mark.parametrize("method", METHODS)
def test_every_method_sharded_matches_oracle(four_shards, euro_small, euro_cases, method):
    dataset, _ = euro_small
    for question in euro_cases[:2]:
        keyword = _keyword_optimum(dataset, question)
        expected = {
            "alpha": lambda: _alpha_optimum(dataset, question),
            "location": lambda: _location_optimum(dataset, question),
            "integrated": lambda: min(keyword, _alpha_optimum(dataset, question)),
        }.get(method, lambda: keyword)()
        options = {"sample_size": 100_000} if method == "approximate" else {}
        answer = four_shards.answer(question, method=method, **options)
        assert answer.refined.penalty == pytest.approx(expected, abs=1e-9)
        assert not answer.degraded
