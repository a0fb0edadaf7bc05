"""``merchant-churn``: index writes beside reads, one closed-loop client.

An unsharded engine (SetR- and KcR-trees both maintained) serves a seeded
stream that repeats a ten-operation pattern: four top-k reads, two
inserts of a new listing, two removals of a live listing and two rounds
of the merchant loop — a why-not question about one's own listing
answered by ``advanced``, then ``update_keywords`` to the suggested
keywords.  This is the only workload that runs R-tree insert and delete,
node-summary and packed-leaf maintenance, and page writes.

Every input is drawn before timing starts, on a shadow copy of the
corpus that replays the inserts and removals, so a removal always names
a live listing.  Merchant questions are drawn on the initial corpus
(missing listing at rank ``5·k₀+1``) and their listings are never
removed; churn moves such a listing's rank by a few places at most.  A
merchant adds the suggested keywords to the listing, so only that
update depends on the program's own answer.  Timings are reported at
reference host speed (see :mod:`perfbench.yardstick`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.errors import ReproError
from repro.experiments.workload import WorkloadGenerator
from repro.model.objects import SpatialObject
from repro.model.query import SpatialKeywordQuery, WhyNotQuestion

from .common import (
    Outcome,
    Pass,
    Verifier,
    derive_seed,
    draw_query,
    make_dataset,
    percentile,
    setup_figures,
)
from .layers import run_closed_loop
from .yardstick import Block, Yardstick

READ, INSERT, REMOVE, MERCHANT = "read", "insert", "remove", "merchant"
PATTERN = (READ, INSERT, MERCHANT, REMOVE, READ, READ, INSERT, MERCHANT, REMOVE, READ)
#: Operations per second of run time: a run applies a fixed
#: ``OPS_PER_SECOND * seconds`` operations (whole patterns), which takes
#: 70-100% of the run on the host the benchmark was built on.
OPS_PER_SECOND = 38
#: Operations per yardstick block (about two seconds of work).
BLOCK = 8 * len(PATTERN)
#: Every n-th read is checked against the oracle on the current corpus.
READ_CHECK_EVERY = 3
FIRST_NEW_OID = 1_000_000


@dataclass(frozen=True)
class Op:
    kind: str
    query: Optional[SpatialKeywordQuery] = None
    obj: Optional[SpatialObject] = None
    oid: Optional[int] = None
    question: Optional[WhyNotQuestion] = None


def generate(seed: int, count: int) -> List[Op]:
    """``count`` operations following :data:`PATTERN`."""
    shadow = make_dataset()
    merchants = count // len(PATTERN) * PATTERN.count(MERCHANT) + PATTERN.count(MERCHANT)
    # One question per listing: a listing that adopted suggested
    # keywords may already rank in the top k of a later question.
    drawn = WorkloadGenerator(
        shadow, seed=derive_seed(seed, "merchant-churn", "questions")
    ).generate(2 * merchants, k0=10, n_keywords=4, max_extra_keywords=4)
    questions: List[WhyNotQuestion] = []
    protected = set()
    for case in drawn:
        listing = case.question.missing[0]
        if listing not in protected and len(questions) < merchants:
            protected.add(listing)
            questions.append(case.question)
    rng = np.random.default_rng(derive_seed(seed, "merchant-churn", "ops"))
    removable = [obj.oid for obj in shadow.objects if obj.oid not in protected]
    next_oid = FIRST_NEW_OID
    ops: List[Op] = []
    for i in range(count):
        kind = PATTERN[i % len(PATTERN)]
        if kind == READ:
            ops.append(Op(READ, query=draw_query(rng, shadow)))
        elif kind == INSERT:
            anchor = shadow.get(removable[int(rng.integers(0, len(removable)))])
            jitter = rng.normal(0.0, 0.01, size=2)
            loc = (
                float(min(1.0, max(0.0, anchor.loc[0] + jitter[0]))),
                float(min(1.0, max(0.0, anchor.loc[1] + jitter[1]))),
            )
            obj = SpatialObject(oid=next_oid, loc=loc, doc=anchor.doc)
            next_oid += 1
            shadow.add(obj)
            removable.append(obj.oid)
            ops.append(Op(INSERT, obj=obj))
        elif kind == REMOVE:
            oid = removable.pop(int(rng.integers(0, len(removable))))
            shadow.remove(oid)
            ops.append(Op(REMOVE, oid=oid))
        else:
            ops.append(Op(MERCHANT, question=questions.pop(0)))
    return ops


def run_pass(
    engine: WhyNotEngine,
    ops: Sequence[Op],
    seconds: float,
    verifier: Verifier,
    yard: Yardstick,
    limit: Optional[int] = None,
) -> Pass:
    """Apply the first ``limit`` operations (default: all) in order,
    stopping early if ``seconds`` elapse, :data:`BLOCK` operations per
    yardstick block; answers are checked between timed calls.  A merchant
    round adds a ``whynot`` and an ``update`` sample."""
    result = Pass()
    clock = time.perf_counter
    deadline = clock() + seconds
    todo = ops[:limit]
    reads = 0
    for first in range(0, len(todo), BLOCK):
        if clock() >= deadline:
            break
        with yard.bracket() as block:
            for index in range(first, min(first + BLOCK, len(todo))):
                if clock() >= deadline:
                    break
                op = todo[index]
                result.ops += 1
                if op.kind == READ:
                    outcome = result.timed(index, READ, block, engine.run_top_k, op.query)
                    reads += 1
                    if reads % READ_CHECK_EVERY == 0 and not verifier.top_k(
                        op.query, outcome.results
                    ):
                        result.wrong += 1
                elif op.kind == INSERT:
                    result.timed(index, INSERT, block, engine.insert, op.obj)
                    verifier.changed()
                elif op.kind == REMOVE:
                    result.timed(index, REMOVE, block, engine.remove, op.oid)
                    verifier.changed()
                else:
                    _merchant_round(engine, index, op.question, block, verifier, result)
    return result


def _merchant_round(
    engine: WhyNotEngine,
    index: int,
    question: WhyNotQuestion,
    block: Block,
    verifier: Verifier,
    result: Pass,
) -> None:
    """Ask why one's listing is missing, then adopt the suggested keywords."""
    try:
        answer = result.timed(index, "whynot", block, engine.answer, question, "advanced")
    except ReproError as exc:
        result.errors.append(f"merchant question about {question.missing}: {exc}")
        return
    result.answers.append(answer)
    if not verifier.whynot(question, answer):
        result.wrong += 1
    listing = engine.dataset.get(question.missing[0])
    result.timed(
        index, "update", block, engine.update_keywords,
        listing.oid, listing.doc | answer.refined.keywords,
    )
    verifier.changed()


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
    count = len(PATTERN) * max(1, round(seconds * OPS_PER_SECOND / len(PATTERN)))
    ops = generate(seed, count)
    return run_closed_loop(
        functools.partial(run_pass, ops=ops),
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
    whynot = [s.ms for s in result.samples if s.kind == "whynot"]
    n = len(every)
    setup_s, setup_raw = setup_figures(setups)
    metrics = {
        "setup_s": (setup_s, "s", len(setups)),
        "p50_ms": (percentile(every, 50), "ms", n),
        "p90_ms": (percentile(every, 90), "ms", n),
        "whynot_p50_ms": (percentile(whynot, 50), "ms", len(whynot)),
        "capacity_ops_s": (1000.0 * result.ops / sum(every), "1/s", result.ops),
    }
    details = {
        "raw.p50_ms": (percentile([s.raw_ms for s in result.samples], 50), "ms", n),
        "raw.setup_s": (setup_raw, "s", len(setups)),
        "whynot_p90_ms": (percentile(whynot, 90), "ms", len(whynot)),
    }
    for kind in (INSERT, REMOVE, "update", READ):
        values = [s.ms for s in result.samples if s.kind == kind]
        details[f"{kind}_p50_ms"] = (percentile(values, 50), "ms", len(values))
        details[f"{kind}_p90_ms"] = (percentile(values, 90), "ms", len(values))
    return metrics, details
