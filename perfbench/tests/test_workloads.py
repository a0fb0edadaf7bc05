"""Short runs of each workload, seeded inputs and deterministic work."""

import dataclasses

import pytest

from perfbench import layers, merchant_churn, serve_open, whynot_cold
from perfbench.common import Verifier, unsharded_engine
from perfbench.trace import Tracer
from perfbench.yardstick import Yardstick

END_TO_END = {name for name, *_ in layers.END_TO_END} - {"ok_share"}
PER_LAYER = {name for name, _ in layers.PER_LAYER}


@pytest.mark.parametrize("module", [whynot_cold, serve_open, merchant_churn])
def test_short_run_reports_every_metric(module):
    outcome = module.run(5, 2.0)
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert outcome.verifier.wrong == 0 and outcome.verifier.checked > 0
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value, _, _ in outcome.metrics.values())


@pytest.mark.parametrize("module", [whynot_cold, serve_open, merchant_churn])
def test_short_traced_run_reports_every_layer(module):
    outcome = module.run(5, 2.0, trace=True, tracer=Tracer())
    assert outcome.failed == 0
    assert set(outcome.metrics) == PER_LAYER
    assert outcome.metrics["fallback.calls"][0] == 0
    assert outcome.metrics["trace.overhead_share"][0] > 0
    bounds = outcome.metrics["bounds.max_dom_calls"][0]
    assert (bounds > 0) == (module is whynot_cold)


def test_inputs_depend_only_on_the_seed():
    assert whynot_cold.generate(3, 12) == whynot_cold.generate(3, 12)
    assert whynot_cold.generate(3, 12) != whynot_cold.generate(4, 12)
    assert merchant_churn.generate(3, 40) == merchant_churn.generate(3, 40)
    first = serve_open.generate(3, 1.0, 0.2)
    assert first == serve_open.generate(3, 1.0, 0.2)
    assert first.fixed != serve_open.generate(4, 1.0, 0.2).fixed
    assert len(first.ladder) == serve_open.LADDER_SIZE


def test_whynot_cold_work_counters_repeat():
    questions = whynot_cold.generate(7, 6)

    def work():
        engine = unsharded_engine([], Yardstick())
        result = whynot_cold.run_pass(
            engine, questions, 60.0, Verifier(engine.dataset), Yardstick()
        )
        assert result.ops == 6 and result.wrong == 0
        return [
            (s.op, s.kind, whynot_cold.work(answer))
            for s, answer in zip(result.samples, result.answers)
        ]

    assert work() == work()


def test_merchant_churn_work_counters_repeat():
    ops = merchant_churn.generate(7, 40)

    def work():
        engine = unsharded_engine([], Yardstick())
        result = merchant_churn.run_pass(
            engine, ops, 60.0, Verifier(engine.dataset), Yardstick()
        )
        assert result.ops == 40 and result.wrong == 0
        return dataclasses.asdict(layers.io_totals(engine))

    assert work() == work()
