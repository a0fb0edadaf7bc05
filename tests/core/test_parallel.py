"""Tests for the parallel candidate processing (Fig 10)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    InvalidParameterError,
    KcRAlgorithm,
    ParallelAdvanced,
    ParallelKcR,
    WhyNotEngine,
)
from repro.core.parallel import makespan
from repro.storage.clock import clock

from .test_io_exactness import _world


class TestMakespan:
    def test_single_worker_is_sum(self):
        times = [0.5, 1.0, 0.25]
        assert makespan(times, 1) == pytest.approx(1.75)

    def test_many_workers_is_max(self):
        times = [0.5, 1.0, 0.25]
        assert makespan(times, 10) == pytest.approx(1.0)

    def test_greedy_assignment(self):
        # units 3,3,2,2,2 on 2 workers: greedy gives 3+2 / 3+2+... ->
        # loads [3,3] -> [5,3] -> [5,5] -> [5,7]? step through:
        # 3->w0, 3->w1, 2->w0(3==3 tie min picks w0:5), 2->w1(5), 2->w0/1(7)
        assert makespan([3, 3, 2, 2, 2], 2) == pytest.approx(7.0)

    def test_monotone_in_workers(self):
        times = [0.1, 0.9, 0.4, 0.4, 0.2, 0.7]
        spans = [makespan(times, t) for t in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))

    def test_zero_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            makespan([1.0], 0)


class TestParallelAdvanced:
    def test_validation(self, euro_engine):
        with pytest.raises(InvalidParameterError):
            ParallelAdvanced(euro_engine.setr_tree, 0)

    def test_simulated_answer_is_exact(self, euro_engine, euro_cases):
        question = euro_cases[0]
        exact = euro_engine.answer(question, method="kcr")
        for n_threads in (1, 4):
            answer = euro_engine.answer(
                question, method="parallel-advanced", n_threads=n_threads
            )
            assert answer.refined.penalty == pytest.approx(exact.refined.penalty)

    def test_more_threads_not_slower_simulated(self, euro_engine, euro_cases):
        """The simulated makespan is monotone non-increasing in T for
        the same measured unit times; across separate runs we allow a
        generous tolerance for timing noise."""
        question = euro_cases[1]
        t1 = euro_engine.answer(
            question, method="parallel-advanced", n_threads=1
        ).elapsed_seconds
        t8 = euro_engine.answer(
            question, method="parallel-advanced", n_threads=8
        ).elapsed_seconds
        assert t8 <= t1 * 1.5

    def test_name(self, euro_engine):
        assert ParallelAdvanced(euro_engine.setr_tree, 4).name == "AdvancedBS-P4"

    def test_filtering_toggle_stays_exact(self, euro_engine, euro_cases):
        """Opt3 dominator sharing is a pure pruning optimisation: the
        answer must be identical with it on or off."""
        question = euro_cases[2]
        exact = euro_engine.answer(question, method="kcr")
        for filtering in (True, False):
            answer = euro_engine.answer(
                question,
                method="parallel-advanced",
                n_threads=4,
                filtering=filtering,
            )
            assert answer.refined.penalty == pytest.approx(
                exact.refined.penalty
            ), filtering

    def test_cache_prune_skips_bad_candidate_without_io(self, euro_engine, euro_cases):
        """A candidate whose cached dominators already exceed the stop
        limit is pruned through the shared cache, with zero page I/O."""
        from repro.core.context import QuestionContext
        from repro.core.dominator_cache import DominatorCache
        from repro.core.result import SearchCounters

        tree = euro_engine.setr_tree
        algo = ParallelAdvanced(tree, 4, model=euro_engine.model)
        context = QuestionContext.prepare(
            euro_cases[0], tree, euro_engine.model
        )
        cache = DominatorCache(
            context.dataset, context.query, context.missing, euro_engine.model
        )
        # Worker A evaluated a poor candidate and shared its dominators.
        for candidate in context.enumerator.iter_paper_order():
            result = context.searcher.rank_of_missing(
                context.query, context.missing, keywords=candidate.keywords
            )
            if result.rank is not None and result.rank > 40:
                break
        else:
            pytest.skip("no deep-rank candidate in this workload")
        cache.record_dominators(result.dominators)
        stop_limit = context.penalty_model.max_useful_rank(
            0.2, candidate.delta_doc
        )
        assert stop_limit is not None and len(cache) >= stop_limit

        # Worker B hits the same candidate: pruned from the cache alone.
        counters = SearchCounters()
        before = tree.stats.snapshot()
        outcome = algo._evaluate_candidate(
            context, candidate, 0.2, counters, cache=cache
        )
        io_delta = tree.stats.snapshot() - before
        assert outcome is None
        assert counters.pruned_by_cache == 1
        assert io_delta.page_reads == 0


class TestParallelKcR:
    def test_validation(self, euro_engine):
        with pytest.raises(InvalidParameterError):
            ParallelKcR(euro_engine.kcr_tree, 0)

    @pytest.mark.parametrize("n_threads", [1, 2, 8])
    def test_partitioned_answer_is_exact(self, euro_engine, euro_cases, n_threads):
        question = euro_cases[2]
        exact = euro_engine.answer(question, method="kcr")
        answer = euro_engine.answer(
            question, method="parallel-kcr", n_threads=n_threads
        )
        assert answer.refined.penalty == pytest.approx(exact.refined.penalty)

    def test_name(self, euro_engine):
        assert ParallelKcR(euro_engine.kcr_tree, 2).name == "KcRBased-P2"


# ----------------------------------------------------------------------
# Opt4 runs AdvancedBS's and KcRBased's own loops
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def exactness_world():
    dataset, questions = _world()
    engine = WhyNotEngine(dataset)
    yield engine, questions
    engine.close()


def _outcome(answer):
    refined = answer.refined
    io = answer.io
    return (
        tuple(sorted(refined.keywords)),
        refined.k,
        refined.penalty,
        answer.initial_rank,
        # The I/O fields that stay deterministic under REPRO_FAULTS
        # (retry counts follow the injector's stream, not the answer).
        (io.page_reads, io.page_writes, io.node_fetches, io.buffer_hits),
        answer.counters,
    )


@pytest.mark.parametrize(
    "method, n_threads, reference",
    [
        ("parallel-advanced", 1, "advanced"),
        ("parallel-advanced", 4, "advanced"),
        ("parallel-advanced", 8, "advanced"),
        ("parallel-kcr", 1, "kcr"),
    ],
)
def test_opt4_matches_its_sequential_algorithm(
    exactness_world, method, n_threads, reference
):
    """Same refined query, I/O and every algorithm counter as the
    sequential algorithm whose loop Opt4 schedules."""
    engine, questions = exactness_world
    for question in questions:
        engine.reset_buffers()
        expected = _outcome(engine.answer(question, reference))
        engine.reset_buffers()
        got = _outcome(engine.answer(question, method, n_threads=n_threads))
        assert got == expected


# ----------------------------------------------------------------------
# elapsed time on the makespan clock
# ----------------------------------------------------------------------
def _booked():
    """The overlap booked so far in this context (to within the few
    hundred nanoseconds between the two timer reads)."""
    return time.perf_counter() - clock()


@pytest.mark.parametrize("method", ["parallel-advanced", "parallel-kcr"])
def test_opt4_books_its_overlap(exactness_world, method):
    """At one shard only Opt4 books overlap: questions with dozens of
    candidate units on four workers overlap by far more than 0.1 ms."""
    engine, questions = exactness_world
    for question in questions[2:]:
        before = _booked()
        engine.answer(question, method, n_threads=4)
        assert _booked() > before + 1e-4


@pytest.fixture(scope="module")
def four_shard_world():
    dataset, questions = _world()
    engine = WhyNotEngine(dataset, shards=4)
    for kind in ("setr", "kcr"):
        engine.sharded_index.ensure_built(kind)
    yield engine, questions
    engine.close()


def _timed(engine, question, method, **options):
    started = time.perf_counter()
    answer = engine.answer(question, method, **options)
    return answer.elapsed_seconds, time.perf_counter() - started


@pytest.mark.parametrize("method", ["parallel-advanced", "parallel-kcr"])
def test_sharded_opt4_elapsed_is_positive_and_within_wall(four_shard_world, method):
    engine, questions = four_shard_world
    for question in questions:
        elapsed, wall = _timed(engine, question, method, n_threads=4)
        assert 0.0 < elapsed <= wall


@pytest.mark.parametrize("method", ["advanced", "kcr"])
def test_shard_fan_out_books_its_overlap(four_shard_world, method):
    """Each four-shard round runs its shards in turn and books all but
    the slowest shard's busy time."""
    engine, questions = four_shard_world
    for question in questions:
        before = _booked()
        engine.answer(question, method)
        assert _booked() > before + 1e-4


def test_direct_algorithm_leaves_no_overlap_for_the_next_answer(four_shard_world):
    engine, questions = four_shard_world
    for question in questions:
        KcRAlgorithm(engine.sharded_index).answer(question)
        elapsed, wall = _timed(engine, question, "advanced")
        assert 0.0 < elapsed <= wall


def test_concurrent_answers_keep_their_own_overlap(four_shard_world):
    """A kcr and an advanced answer racing on one index: neither may
    take the overlap the other's shard rounds booked."""
    engine, questions = four_shard_world
    barrier = threading.Barrier(2, timeout=30)

    def run(method, question):
        barrier.wait()
        return _timed(engine, question, method)

    for question in questions[2:]:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=2) as pool:
                timings = list(
                    pool.map(run, ("kcr", "advanced"), (question, question))
                )
            for elapsed, wall in timings:
                assert 0.0 < elapsed <= wall
