"""Span recording, self-time arithmetic and instrumentation hygiene."""

import pytest

from perfbench.trace import Tracer, instrument, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # parent [0, 10] with children [1, 4] and [3, 6] (overlapping: union
    # 5) and 1.5 s of hot calls directly under it -> self 3.5
    spans = [
        (1, "engine.answer", 0.0, 10.0, 0, 7, 1.5),
        (2, "search.rank", 1.0, 4.0, 1, 7, 0.0),
        (3, "search.rank", 3.0, 6.0, 1, 7, 0.5),
        (4, "buffer.x", 2.0, 3.0, 2, 7, 0.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.5)
    assert own[2] == pytest.approx(2.0)  # 3 - child 1
    assert own[3] == pytest.approx(2.5)  # 3 - hot 0.5
    assert own[4] == pytest.approx(1.0)


def test_child_outside_parent_is_clipped():
    spans = [(1, "a", 0.0, 2.0, 0, None, 0.0), (2, "b", 1.0, 5.0, 1, None, 0.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_wrappers_record_spans_and_hot_aggregates():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    hot_leaf = tracer.hot_span(leaf, "bounds.max_dom")

    def inner():
        clock.now += 2.0
        hot_leaf()
        hot_leaf()

    traced_inner = tracer.span(inner, "search.rank_of_missing")

    def outer():
        clock.now += 1.0
        traced_inner()
        hot_leaf()

    traced_outer = tracer.span(outer, "engine.answer")
    with tracer.request(42):
        traced_outer()
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["engine.answer"][2:4] == (0.0, 6.0)
    assert by_name["engine.answer"][5] == 42
    assert by_name["search.rank_of_missing"][4] == by_name["engine.answer"][0]
    assert tracer.hot["bounds.max_dom"] == [3, 3.0, 3.0]
    own = self_times(tracer.spans)
    assert own[by_name["engine.answer"][0]] == pytest.approx(1.0)
    assert own[by_name["search.rank_of_missing"][0]] == pytest.approx(2.0)


def test_instrument_restores_every_binding():
    from repro.core import kcr_algorithm, vectorized
    from repro.core.context import QuestionContext
    from repro.core.engine import WhyNotEngine
    from repro.index.search import TopKSearcher
    from repro.storage.buffer_pool import BufferPool

    before = (
        WhyNotEngine.answer,
        QuestionContext.__dict__["prepare"],
        TopKSearcher.rank_of_missing,
        vectorized.leaf_scores,
        kcr_algorithm.max_dom,
        BufferPool.fetch,
    )
    with instrument(Tracer()):
        assert kcr_algorithm.max_dom is not before[4]
        assert BufferPool.fetch is not before[5]
    after = (
        WhyNotEngine.answer,
        QuestionContext.__dict__["prepare"],
        TopKSearcher.rank_of_missing,
        vectorized.leaf_scores,
        kcr_algorithm.max_dom,
        BufferPool.fetch,
    )
    assert after == before
