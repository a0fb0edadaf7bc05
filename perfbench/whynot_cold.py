"""``whynot-cold``: the paper's per-question protocol, one closed-loop client.

An unsharded engine over the euro-like corpus answers a seeded stream of
why-not questions, each by ``advanced`` and ``kcr`` back to back (which
goes first alternates), with ``engine.reset_buffers()`` before every
answer.  The buffer pool holds 25% of each index's pages, so reads are
cold.  Timings are reported at reference host speed (see
:mod:`perfbench.yardstick`), one yardstick block per pattern.  The stream
repeats a ten-question pattern: six questions with one
missing object at rank ``5·k₀+1`` (k₀=10, four keywords, at most four
extra keywords, as the figure emitters cap it) and two each with two and
three missing objects drawn from ranks 11–51 (the Fig 9 protocol, at most
three extra keywords).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine import WhyNotEngine
from repro.experiments.workload import WorkloadGenerator
from repro.model.query import WhyNotQuestion

from .common import (
    Outcome,
    Pass,
    Verifier,
    derive_seed,
    make_dataset,
    percentile,
    setup_figures,
)
from .layers import run_closed_loop
from .yardstick import Yardstick

#: |M| of each position in the repeating ten-question pattern.
PATTERN = (1, 2, 1, 1, 3, 1, 1, 2, 1, 1)
METHODS = ("advanced", "kcr")
#: Questions per second of run time: a run answers a fixed
#: ``QUESTIONS_PER_SECOND * seconds`` questions (whole patterns), which
#: takes 70-100% of the run on the host the benchmark was built on.
QUESTIONS_PER_SECOND = 4.5


def _stratum(n_missing: int) -> Dict[str, Any]:
    if n_missing == 1:
        return dict(k0=10, n_keywords=4, alpha=0.5, lam=0.5, max_extra_keywords=4)
    return dict(
        k0=10,
        n_keywords=4,
        alpha=0.5,
        lam=0.5,
        n_missing=n_missing,
        missing_rank_range=(11, 51),
        max_extra_keywords=3,
    )


def generate(seed: int, count: int) -> List[WhyNotQuestion]:
    """``count`` questions following :data:`PATTERN`."""
    dataset = make_dataset()
    per_size: Dict[int, List[WhyNotQuestion]] = {}
    for size in sorted(set(PATTERN)):
        needed = sum(
            1 for i in range(count) if PATTERN[i % len(PATTERN)] == size
        )
        if needed:
            generator = WorkloadGenerator(
                dataset, seed=derive_seed(seed, "whynot-cold", size)
            )
            per_size[size] = [
                case.question for case in generator.generate(needed, **_stratum(size))
            ]
    cursors = {size: 0 for size in per_size}
    questions = []
    for i in range(count):
        size = PATTERN[i % len(PATTERN)]
        questions.append(per_size[size][cursors[size]])
        cursors[size] += 1
    return questions


def work(answer: Any) -> Dict[str, int]:
    """The deterministic work an answer did, recorded beside its time so
    that host-speed drift can be told apart from a change in work."""
    return {
        "page_reads": answer.io.page_reads,
        "node_fetches": answer.io.node_fetches,
        "candidates_evaluated": answer.counters.candidates_evaluated,
        "nodes_expanded": answer.counters.nodes_expanded,
    }


def run_pass(
    engine: WhyNotEngine,
    questions: Sequence[WhyNotQuestion],
    seconds: float,
    verifier: Verifier,
    yard: Yardstick,
    limit: Optional[int] = None,
) -> Pass:
    """Answer the first ``limit`` questions (default: all) in order,
    stopping early if ``seconds`` elapse, one pattern per yardstick
    block; the answers are checked once the timed work is over."""
    result = Pass()
    clock = time.perf_counter
    deadline = clock() + seconds
    todo = questions[:limit]
    answered: List[Dict[str, Any]] = []
    for first in range(0, len(todo), len(PATTERN)):
        if clock() >= deadline:
            break
        with yard.bracket() as block:
            for index in range(first, min(first + len(PATTERN), len(todo))):
                if clock() >= deadline:
                    break
                order = METHODS if index % 2 == 0 else METHODS[::-1]
                answers = {}
                for method in order:
                    engine.reset_buffers()
                    answers[method] = result.timed(
                        index, method, block, engine.answer, todo[index], method
                    )
                    result.answers.append(answers[method])
                answered.append(answers)
                result.ops += 1
    for question, answers in zip(todo, answered):
        ok = verifier.whynot(question, answers["advanced"])
        ok = verifier.whynot(question, answers["kcr"]) and ok
        ok = verifier.same_penalty(question, answers["advanced"], answers["kcr"]) and ok
        result.wrong += not ok
    return result


def run(
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    plant_wrong: bool = False,
    tracer: Any = None,
) -> Outcome:
    clock = time.perf_counter
    mark = clock()
    count = len(PATTERN) * max(1, round(seconds * QUESTIONS_PER_SECOND / len(PATTERN)))
    questions = generate(seed, count)
    return run_closed_loop(
        functools.partial(run_pass, questions=questions),
        _end_to_end,
        count=count,
        seconds=seconds,
        gen_seconds=clock() - mark,
        trace=trace,
        plant_wrong=plant_wrong,
        tracer=tracer,
    )


def _end_to_end(result: Pass, setups: Sequence[Dict[str, float]]):
    every = [s.ms for s in result.samples]
    n = len(every)
    setup_s, setup_raw = setup_figures(setups)
    metrics = {
        "setup_s": (setup_s, "s", len(setups)),
        "p50_ms": (percentile(every, 50), "ms", n),
        "p90_ms": (percentile(every, 90), "ms", n),
        "whynot_p50_ms": (percentile(every, 50), "ms", n),
        "capacity_ops_s": (1000.0 * n / sum(every), "1/s", n),
    }
    details = {
        "raw.p50_ms": (percentile([s.raw_ms for s in result.samples], 50), "ms", n),
        "raw.setup_s": (setup_raw, "s", len(setups)),
    }
    for method in METHODS:
        values = [s.ms for s in result.samples if s.kind == method]
        details[f"{method}_p50_ms"] = (percentile(values, 50), "ms", len(values))
        details[f"{method}_p90_ms"] = (percentile(values, 90), "ms", len(values))
    for method in METHODS:
        done = [
            work(answer)
            for sample, answer in zip(result.samples, result.answers)
            if sample.kind == method
        ]
        for counter in done[0] if done else ():
            details[f"work.{method}.{counter}_per_answer"] = (
                sum(w[counter] for w in done) / len(done),
                "count",
                len(done),
            )
    return metrics, details
