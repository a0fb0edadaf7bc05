"""Metric catalogue, the closed-loop driver and the per-layer figures of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric lists; the
tests check that ``BENCHMARK.json`` declares exactly these.  Every run
reports every metric of its mode, so the end-to-end metrics mean the
same on each workload: ``p50_ms``/``p90_ms`` over all timed operations,
``whynot_p50_ms`` over why-not answers, ``capacity_ops_s`` as operations
per busy second (per CPU-second of the server on ``serve-open``),
``setup_s`` and ``ok_share`` (1 - failed share; a metric must never read
0).  Their timings are at reference host speed
(:mod:`perfbench.yardstick`); per-layer timings are raw.  A per-layer
metric a workload does not exercise reads 0 there (the bounds layer on
``serve-open``, say): that zero is the prediction that the layer is
bypassed.

Units of the per-layer figures: ``ms/op`` and ``1/op`` are totals over
the traced pass divided by the workload operations in it (questions,
requests or churn operations), so layers of one workload add up;
``ms`` is a per-call or per-request percentile; ``count`` is a raw count
over the traced pass.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.storage.stats import IOSnapshot

from .common import (
    SETUP_REPEATS,
    TIME_CAP,
    Outcome,
    Pass,
    Verifier,
    median,
    percentile,
    unsharded_engine,
)
from .trace import Tracer, instrument, layer_of, self_times
from .yardstick import Yardstick

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.02),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
    ("whynot_p50_ms", "ms", "lower", 0.25),
    ("capacity_ops_s", "1/s", "higher", 0.25),
)

LAYERS = (
    "serve", "engine", "advanced", "context", "search", "vectorized", "dominator_cache",
    "bounds", "kcr", "buffer", "rtree", "sharded", "fallback",
)

#: (name, unit)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serve.admission_wait_ms.p50", "ms"),
    ("serve.admission_wait_ms.p99", "ms"),
    ("serve.busy_ms.topk", "ms"),
    ("serve.busy_ms.whynot", "ms"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.session_cache_hits", "count"),
    ("serve.generator_late_ms.p99", "ms"),
    ("engine.answer_ms.advanced", "ms/op"),
    ("engine.answer_ms.kcr", "ms/op"),
    ("engine.run_top_k_ms", "ms/op"),
    ("engine.insert_ms", "ms/op"),
    ("engine.remove_ms", "ms/op"),
    ("engine.update_keywords_ms", "ms/op"),
    ("context.prepare_calls", "1/op"),
    ("context.prepare_ms", "ms/op"),
    ("search.rank_of_missing_calls", "1/op"),
    ("search.rank_of_missing_ms", "ms/op"),
    ("search.aborted_share", "share"),
    ("search.top_k_calls", "1/op"),
    ("search.top_k_ms", "ms/op"),
    ("vectorized.leaf_scores_calls", "1/op"),
    ("vectorized.leaf_scores_ms", "ms/op"),
    ("vectorized.objects_scored", "1/op"),
    ("advanced.candidates_enumerated", "1/op"),
    ("advanced.candidates_evaluated", "1/op"),
    ("advanced.pruned_by_keyword_penalty", "1/op"),
    ("advanced.pruned_by_cache", "1/op"),
    ("advanced.aborted_early", "1/op"),
    ("dominator_cache.count_dominating_calls", "1/op"),
    ("dominator_cache.count_dominating_ms", "ms/op"),
    ("dominator_cache.prune_share", "share"),
    ("bounds.max_dom_calls", "1/op"),
    ("bounds.max_dom_ms", "ms/op"),
    ("bounds.min_dom_calls", "1/op"),
    ("bounds.min_dom_ms", "ms/op"),
    ("kcr.nodes_expanded", "1/op"),
    ("kcr.pruned_by_bounds", "1/op"),
    ("kcr.candidates_evaluated", "1/op"),
    ("kcr.sweep_candidates_ms", "ms/op"),
    ("buffer.fetch_calls", "1/op"),
    ("buffer.fetch_ms", "ms/op"),
    ("buffer.node_fetches", "1/op"),
    ("buffer.page_reads", "1/op"),
    ("buffer.buffer_hits", "1/op"),
    ("buffer.hit_ratio", "share"),
    ("buffer.page_writes", "1/op"),
    ("buffer.read_retries", "1/op"),
    ("rtree.insert_ms.setr", "ms/op"),
    ("rtree.insert_ms.kcr", "ms/op"),
    ("rtree.delete_ms.setr", "ms/op"),
    ("rtree.delete_ms.kcr", "ms/op"),
    ("sharded.request_many_calls", "1/op"),
    ("sharded.request_many_ms", "ms/op"),
    ("sharded.top_k_ms", "ms/op"),
    ("sharded.rank_of_missing_ms", "ms/op"),
    ("fallback.calls", "count"),
    ("setup.dataset_s", "s"),
    ("setup.workload_gen_s", "s"),
    ("setup.setr_build_s", "s"),
    ("setup.kcr_build_s", "s"),
    ("setup.shard_build_s", "s"),
    ("trace.overhead_share", "ratio"),
) + tuple((f"self_ms.{layer}", "ms/op") for layer in LAYERS)

#: span name -> metric (inclusive ms/op)
_SPAN_MS = {
    "engine.answer.advanced": "engine.answer_ms.advanced",
    "engine.answer.kcr": "engine.answer_ms.kcr",
    "engine.run_top_k": "engine.run_top_k_ms",
    "engine.insert": "engine.insert_ms",
    "engine.remove": "engine.remove_ms",
    "engine.update_keywords": "engine.update_keywords_ms",
    "context.prepare": "context.prepare_ms",
    "search.rank_of_missing": "search.rank_of_missing_ms",
    "search.top_k": "search.top_k_ms",
    "rtree.insert.setr": "rtree.insert_ms.setr",
    "rtree.insert.kcr": "rtree.insert_ms.kcr",
    "rtree.delete.setr": "rtree.delete_ms.setr",
    "rtree.delete.kcr": "rtree.delete_ms.kcr",
    "sharded.request_many": "sharded.request_many_ms",
    "sharded.top_k": "sharded.top_k_ms",
    "sharded.rank_of_missing": "sharded.rank_of_missing_ms",
}
#: span name -> metric (calls/op)
_SPAN_CALLS = {
    "context.prepare": "context.prepare_calls",
    "search.rank_of_missing": "search.rank_of_missing_calls",
    "search.top_k": "search.top_k_calls",
    "sharded.request_many": "sharded.request_many_calls",
}
#: hot aggregate -> (calls metric, ms metric)
_HOT = {
    "vectorized.leaf_scores": ("vectorized.leaf_scores_calls", "vectorized.leaf_scores_ms"),
    "dominator_cache.count_dominating": (
        "dominator_cache.count_dominating_calls",
        "dominator_cache.count_dominating_ms",
    ),
    "bounds.max_dom": ("bounds.max_dom_calls", "bounds.max_dom_ms"),
    "bounds.min_dom": ("bounds.min_dom_calls", "bounds.min_dom_ms"),
    "kcr.sweep_candidates": (None, "kcr.sweep_candidates_ms"),
    "buffer.fetch": ("buffer.fetch_calls", "buffer.fetch_ms"),
}


def io_totals(engine: Any) -> IOSnapshot:
    """The engine's I/O ledger over both index kinds."""
    if engine.is_sharded:
        index = engine.sharded_index
        return index.ledger_total("setr") + index.ledger_total("kcr")
    return engine.setr_tree.stats.snapshot() + engine.kcr_tree.stats.snapshot()


def _outermost(spans: Sequence[Any]) -> List[Any]:
    """Spans not nested under a span of the same name (recursion and
    re-entry are counted once)."""
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        parent = by_id.get(span[4])
        while parent is not None and parent[1] != span[1]:
            parent = by_id.get(parent[4])
        if parent is None:
            kept.append(span)
    return kept


def _trace_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    per_op = 1.0 / max(1, ops)
    out: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    for span in _outermost(tracer.spans):
        inclusive[span[1]] = inclusive.get(span[1], 0.0) + (span[3] - span[2])
    for span in tracer.spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    for name, metric in _SPAN_MS.items():
        out[metric] = inclusive.get(name, 0.0) * 1000.0 * per_op
    for name, metric in _SPAN_CALLS.items():
        out[metric] = calls.get(name, 0) * per_op
    rank_calls = calls.get("search.rank_of_missing", 0)
    out["search.aborted_share"] = (
        tracer.counters.get("search.aborted", 0.0) / rank_calls if rank_calls else 0.0
    )
    out["fallback.calls"] = float(
        sum(n for name, n in calls.items() if name.startswith("fallback."))
    )
    for name, (calls_metric, ms_metric) in _HOT.items():
        n, total, _ = tracer.hot.get(name, (0, 0.0, 0.0))
        if calls_metric is not None:
            out[calls_metric] = n * per_op
        out[ms_metric] = total * 1000.0 * per_op
    out["vectorized.objects_scored"] = (
        tracer.counters.get("vectorized.objects_scored", 0.0) * per_op
    )
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    own = self_times(tracer.spans)
    for span in tracer.spans:
        layer = layer_of(span[1])
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own[span[0]]
    for name, (_, _, self_s) in tracer.hot.items():
        layer = layer_of(name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = self_by_layer[layer] * 1000.0 * per_op
    return out


def _counter_metrics(answers: Iterable[Any], io: IOSnapshot, tracer: Tracer, ops: int) -> Dict[str, float]:
    per_op = 1.0 / max(1, ops)
    totals: Dict[str, float] = {}
    for answer in answers:
        family = "kcr" if answer.algorithm.startswith("KcR") else "advanced"
        for field in (
            "candidates_enumerated",
            "candidates_evaluated",
            "pruned_by_keyword_penalty",
            "pruned_by_cache",
            "aborted_early",
            "nodes_expanded",
            "pruned_by_bounds",
        ):
            key = f"{family}.{field}"
            totals[key] = totals.get(key, 0.0) + getattr(answer.counters, field)
    out = {
        name: totals.get(name, 0.0) * per_op
        for name in (
            "advanced.candidates_enumerated",
            "advanced.candidates_evaluated",
            "advanced.pruned_by_keyword_penalty",
            "advanced.pruned_by_cache",
            "advanced.aborted_early",
            "kcr.nodes_expanded",
            "kcr.pruned_by_bounds",
            "kcr.candidates_evaluated",
        )
    }
    reached = totals.get("advanced.pruned_by_cache", 0.0) + totals.get(
        "advanced.candidates_evaluated", 0.0
    )
    out["dominator_cache.prune_share"] = (
        totals.get("advanced.pruned_by_cache", 0.0) / reached if reached else 0.0
    )
    out["buffer.node_fetches"] = io.node_fetches * per_op
    out["buffer.page_reads"] = io.page_reads * per_op
    out["buffer.buffer_hits"] = io.buffer_hits * per_op
    out["buffer.page_writes"] = io.page_writes * per_op
    out["buffer.read_retries"] = io.read_retries * per_op
    fetches = tracer.hot.get("buffer.fetch", (0, 0.0, 0.0))[0]
    out["buffer.hit_ratio"] = io.buffer_hits / fetches if fetches else 0.0
    return out


def _setup_metrics(setups: Sequence[Dict[str, float]], gen_seconds: float) -> Dict[str, float]:
    def part(name: str) -> float:
        return median([s.get(name, 0.0) for s in setups])

    return {
        "setup.dataset_s": part("dataset"),
        "setup.workload_gen_s": gen_seconds,
        "setup.setr_build_s": part("setr_build"),
        "setup.kcr_build_s": part("kcr_build"),
        "setup.shard_build_s": part("shard_build"),
    }


def _assemble(values: Dict[str, float], samples: int) -> Dict[str, Tuple[float, str, int]]:
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: (float(values[name]), unit, samples) for name, unit in PER_LAYER}


def run_closed_loop(
    run_pass: Callable[..., Pass],
    end_to_end: Callable[[Pass, Sequence[Dict[str, float]]], Tuple[Dict, Dict]],
    *,
    count: int,
    seconds: float,
    gen_seconds: float,
    trace: bool,
    plant_wrong: bool,
    tracer: Any,
) -> Outcome:
    """Drive a closed-loop workload over its ``count`` operations.

    ``run_pass(engine, seconds=, verifier=, yard=, limit=)`` applies the
    first ``limit`` operations to ``engine``; ``end_to_end(pass,
    setups)`` turns an untraced pass into metrics and details.  Untraced,
    one pass over every operation gives the end-to-end metrics.  Traced,
    an untraced pass over half of them is replayed under the tracer on a
    second, identically built engine (a workload's writes change the
    corpus), and the two give the per-layer metrics.
    """
    yard = Yardstick()
    setups: List[Dict[str, float]] = []
    engines = [unsharded_engine(setups, yard) for _ in range(SETUP_REPEATS)]
    verifier = Verifier(engines[0].dataset, plant_wrong=plant_wrong)
    details: Dict[str, Tuple[float, str, int]] = {}
    if trace:
        plain = run_pass(
            engines[0], seconds=TIME_CAP * seconds / 2, verifier=verifier, yard=yard,
            limit=count // 2,
        )
        twin = Verifier(engines[1].dataset)
        io_before = io_totals(engines[1])
        with instrument(tracer):
            traced = run_pass(
                engines[1], seconds=seconds, verifier=twin, yard=yard, limit=plain.ops
            )
        verifier.absorb(twin)
        passes = [plain, traced]
        metrics = _closed_loop_metrics(
            tracer,
            ops=traced.ops,
            io=io_totals(engines[1]) - io_before,
            setups=setups,
            gen_seconds=gen_seconds,
            overhead=sum(s.ms for s in traced.samples)
            / sum(s.ms for s in plain.samples[: len(traced.samples)]),
            answers=traced.answers,
        )
    else:
        plain = run_pass(
            engines[0], seconds=TIME_CAP * seconds, verifier=verifier, yard=yard, limit=None
        )
        passes = [plain]
        metrics, details = end_to_end(plain, setups)
    outcome = Outcome(attempted=0, failed=0, metrics=metrics, verifier=verifier, details=details)
    for result in passes:
        outcome.attempted += result.ops
        outcome.failed += result.wrong + len(result.errors)
        outcome.notes += [f"failed: {error}" for error in result.errors[:20]]
    return outcome


def _closed_loop_metrics(
    tracer: Tracer,
    *,
    ops: int,
    io: IOSnapshot,
    setups: Sequence[Dict[str, float]],
    gen_seconds: float,
    overhead: float,
    answers: Sequence[Any],
) -> Dict[str, Tuple[float, str, int]]:
    values = {name: 0.0 for name, _ in PER_LAYER if name.startswith("serve.")}
    values.update(_trace_metrics(tracer, ops))
    values.update(_counter_metrics(answers, io, tracer, ops))
    values.update(_setup_metrics(setups, gen_seconds))
    values["trace.overhead_share"] = overhead
    return _assemble(values, ops)


def serve_metrics(
    tracer: Tracer,
    *,
    phase: Any,
    health_before: Dict[str, Any],
    health: Dict[str, Any],
    io: IOSnapshot,
    setups: Sequence[Dict[str, float]],
    gen_seconds: float,
    overhead: float,
) -> Dict[str, Tuple[float, str, int]]:
    ops = phase.attempted
    waits = [
        (span[2] - phase.submitted_at[span[5]]) * 1000.0
        for span in tracer.spans
        if span[1] == "serve.execute" and span[5] in phase.submitted_at
    ]
    busy: Dict[str, List[float]] = {"topk": [], "whynot": []}
    answers = []
    for _, response in phase.responses:
        busy[response.kind].append(response.busy_ms)
        if response.kind == "whynot" and response.result is not None:
            answers.append(response.result)

    def delta(section: str, key: str) -> float:
        return float(health[section][key] - health_before[section][key])

    values = {
        "serve.admission_wait_ms.p50": percentile(waits, 50),
        "serve.admission_wait_ms.p99": percentile(waits, 99),
        "serve.busy_ms.topk": percentile(busy["topk"], 50),
        "serve.busy_ms.whynot": percentile(busy["whynot"], 50),
        "serve.rejected": delta("responses", "rejected"),
        "serve.timeouts": delta("responses", "timeout"),
        "serve.session_cache_hits": delta("sessions", "cache_hits"),
        "serve.generator_late_ms.p99": percentile(phase.late_ms, 99),
    }
    values.update(_trace_metrics(tracer, ops))
    values.update(_counter_metrics(answers, io, tracer, ops))
    values.update(_setup_metrics(setups, gen_seconds))
    values["trace.overhead_share"] = overhead
    return _assemble(values, ops)
