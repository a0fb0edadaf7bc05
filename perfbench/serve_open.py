"""``serve-open``: open-loop Poisson traffic through the asyncio server.

One :class:`WhyNotServer` (two workers) fronts a four-shard engine in
simulate mode.  Traffic is 80% top-k lookups and 20% why-not dialogue
rounds answered by ``advanced``: each of a fixed panel of dialogue
sessions keeps its (location, α, missing object) and varies ``k`` and
``λ`` from round to round, so the session's dominator cache is reused.
Buffers stay warm.

Every request is timed from the moment it was *due*, so a stall that
delays later requests is charged to them; the generator's own lateness
is reported beside it.  Latencies are reported at reference host speed
(see :mod:`perfbench.yardstick`), one yardstick block per fixed-rate
chunk.  ``capacity_ops_s`` is the
fixed-rate phase's requests per CPU-second of the serving process (the
GIL lets the two workers use about one core), also at reference speed.

After the fixed-rate phase, a bisection over a fixed ladder of offered
rates (5% apart) finds ``max_rps``: the highest rate whose p99 stays
within :data:`LATENCY_LIMIT_MS` with refused and failed requests counted
as misses and without a growing backlog.  Its short probes make it too
noisy on a shared host to bound, so it is printed as a detail.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.experiments.workload import WorkloadGenerator
from repro.model.query import SpatialKeywordQuery, WhyNotQuestion
from repro.serve.protocol import (
    CLASS_TOPK,
    CLASS_WHYNOT,
    STATUS_DEGRADED,
    STATUS_OK,
    ServeRequest,
)
from repro.serve.server import ServerConfig, WhyNotServer

from .common import (
    DATASET_SEED,
    SETUP_REPEATS,
    Outcome,
    Verifier,
    derive_seed,
    draw_query,
    make_dataset,
    median,
    percentile,
    setup_figures,
)
from .yardstick import Yardstick

#: Offered load of the fixed-rate phase, requests per second.  ``max_rps``
#: measured 27-53 req/s over ten seeds on the host the benchmark was built
#: on, so this is 0.19-0.37 of it, below the half that was the aim: at
#: 14-16 req/s, four batches of five seeds spread p90 (interquartile
#: range over median) by 0.28-0.65, past the metric's bound of 0.25, as
#: slow periods of the host pushed the server into queueing.
FIXED_RATE = 10.0
#: Share of requests that are why-not dialogue rounds.
WHYNOT_SHARE = 0.2
SHARDS = 4
WORKERS = 2
SESSIONS = 8
#: The latency limit ``max_rps`` must meet at p99.
LATENCY_LIMIT_MS = 250.0
#: The rate ladder: ``LADDER_BASE * LADDER_STEP**i`` req/s.
LADDER_BASE = 20.0
LADDER_STEP = 1.05
LADDER_SIZE = 32
#: Share of the run spent at the fixed rate, in ``CHUNKS`` schedules
#: with the yardstick run between them; the rest goes to the ladder.
FIXED_SHARE = 0.85
CHUNKS = 6
LADDER_PROBES = 5
#: A run whose generator lateness p99 exceeds this is discarded: the
#: offered arrivals would bunch up so much that the schedule is no longer
#: the one drawn (due-time latencies already include the lateness).
MAX_GENERATOR_LATE_MS = 100.0
#: Every n-th top-k response is checked against the oracle.
TOPK_CHECK_EVERY = 4
WARMUP_REQUESTS = 40


@dataclass(frozen=True)
class Arrival:
    due: float  # seconds after the phase starts
    kind: str
    session: str
    query: Optional[SpatialKeywordQuery] = None
    question: Optional[WhyNotQuestion] = None


@dataclass
class Inputs:
    warmup: List[Arrival]
    fixed: List[List[Arrival]]  # CHUNKS schedules at FIXED_RATE
    ladder: Dict[int, List[Arrival]]


def ladder_rate(index: int) -> float:
    return LADDER_BASE * LADDER_STEP ** index


def _schedule(
    rng: np.random.Generator,
    dataset: Any,
    sessions: Sequence[WhyNotQuestion],
    rate: float,
    seconds: float,
    rounds: Optional[Iterator[int]] = None,
) -> List[Arrival]:
    """Poisson arrivals at ``rate`` for ``seconds``.  Dialogue rounds go
    to the sessions in turn (``rounds`` numbers them; pass one counter
    to schedules that continue each other), so every session sees about
    the same number of rounds."""
    rounds = rounds if rounds is not None else itertools.count()
    arrivals: List[Arrival] = []
    due = float(rng.exponential(1.0 / rate))
    while due < seconds:
        if rng.random() < WHYNOT_SHARE:
            index = next(rounds) % len(sessions)
            base = sessions[index]
            k = int(rng.integers(5, 16))
            lam = float(rng.choice((0.3, 0.5, 0.7)))
            question = WhyNotQuestion(base.query.with_k(k), base.missing, lam=lam)
            arrivals.append(
                Arrival(due, CLASS_WHYNOT, f"dialogue-{index}", question=question)
            )
        else:
            user = int(rng.integers(0, 64))
            arrivals.append(
                Arrival(due, CLASS_TOPK, f"user-{user}", query=draw_query(rng, dataset))
            )
        due += float(rng.exponential(1.0 / rate))
    return arrivals


def generate(seed: int, chunk_seconds: float, probe_seconds: float) -> Inputs:
    """All arrivals of one run, drawn before anything is timed.

    ``probe_seconds=0`` draws no ladder (the traced run has none)."""
    dataset = make_dataset()
    # The dialogue panel is fixed, like the corpus: base questions drawn
    # per seed made the why-not median swing by 30% between seeds.  The
    # seed draws the arrivals, the top-k queries and every round's k and
    # λ.  The warm-up opens each dialogue, so fixed-rate rounds reuse
    # their session's dominator cache.
    generator = WorkloadGenerator(
        dataset, seed=derive_seed(DATASET_SEED, "serve-open", "sessions")
    )
    sessions = [
        case.question
        for case in generator.generate(
            SESSIONS, k0=10, n_keywords=4, max_extra_keywords=4
        )
    ]
    rng = np.random.default_rng(derive_seed(seed, "serve-open", "warmup"))
    warmup = _schedule(rng, dataset, sessions, 1000.0, WARMUP_REQUESTS / 1000.0)
    rounds = itertools.count()
    fixed = [
        _schedule(
            np.random.default_rng(derive_seed(seed, "serve-open", "fixed", chunk)),
            dataset,
            sessions,
            FIXED_RATE,
            chunk_seconds,
            rounds,
        )
        for chunk in range(CHUNKS)
    ]
    ladder = {}
    for index in range(LADDER_SIZE if probe_seconds > 0 else 0):
        rng = np.random.default_rng(derive_seed(seed, "serve-open", "ladder", index))
        ladder[index] = _schedule(
            rng, dataset, sessions, ladder_rate(index), probe_seconds
        )
    return Inputs(warmup, fixed, ladder)


@dataclass
class PhaseResult:
    """Offered schedules: due-time latencies by arrival index."""

    latency_ms: Dict[int, float] = field(default_factory=dict)
    #: latency at reference speed, by arrival index
    scaled_ms: Dict[int, float] = field(default_factory=dict)
    #: process CPU seconds spent on the offered chunks, at reference speed
    cpu_seconds: float = 0.0
    late_ms: List[float] = field(default_factory=list)
    responses: List[Tuple[Arrival, Any]] = field(default_factory=list)
    submitted_at: Dict[int, float] = field(default_factory=dict)
    misses: int = 0
    backlog: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.responses)


def _request(seq: int, arrival: Arrival) -> ServeRequest:
    if arrival.kind == CLASS_TOPK:
        return ServeRequest(kind=CLASS_TOPK, session=arrival.session, seq=seq, query=arrival.query)
    return ServeRequest(
        kind=CLASS_WHYNOT,
        session=arrival.session,
        seq=seq,
        question=arrival.question,
        method="advanced",
    )


async def run_phase(
    server: WhyNotServer,
    arrivals: Sequence[Arrival],
    first: int = 0,
    result: Optional[PhaseResult] = None,
) -> PhaseResult:
    """Offer ``arrivals`` on their schedule; time each from its due time.

    Arrival ``i`` is recorded under index ``first + i``, which is also
    its request id (the key of its traced spans)."""
    result = result if result is not None else PhaseResult()
    outstanding = 0
    clock = time.perf_counter
    start = clock() + 0.005

    async def one(index: int, arrival: Arrival, request: ServeRequest, due: float) -> None:
        nonlocal outstanding
        response = await server.submit(request)
        latency = (clock() - due) * 1000.0
        outstanding -= 1
        result.latency_ms[index] = latency
        if response.status not in (STATUS_OK, STATUS_DEGRADED) or latency > LATENCY_LIMIT_MS:
            result.misses += 1
        result.responses.append((arrival, response))

    tasks = []
    for index, arrival in enumerate(arrivals, start=first):
        due = start + arrival.due
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        request = _request(index, arrival)
        sent = clock()
        result.late_ms.append(max(0.0, sent - due) * 1000.0)
        result.submitted_at[request.seq] = sent
        result.backlog.append((sent - start, outstanding))
        outstanding += 1
        tasks.append(asyncio.create_task(one(index, arrival, request, due)))
    await asyncio.gather(*tasks)
    return result


async def run_chunks(
    server: WhyNotServer, chunks: Sequence[Sequence[Arrival]], yard: Yardstick
) -> PhaseResult:
    """Offer each chunk in turn, one yardstick block per chunk."""
    result = PhaseResult()
    first = 0
    for chunk in chunks:
        with yard.bracket() as block:
            cpu = time.process_time()
            await run_phase(server, chunk, first, result)
            cpu = time.process_time() - cpu
        result.cpu_seconds += cpu * block.scale
        for index in range(first, first + len(chunk)):
            result.scaled_ms[index] = result.latency_ms[index] * block.scale
        first += len(chunk)
    return result


def backlog_growing(backlog: Sequence[Tuple[float, int]]) -> bool:
    """Whether outstanding requests trend upward over the phase: the
    mean backlog of the last third exceeds the first third's by more
    than two requests."""
    if len(backlog) < 6:
        return False
    third = len(backlog) // 3
    head = sum(n for _, n in backlog[:third]) / third
    tail = sum(n for _, n in backlog[-third:]) / third
    return tail > head + 2.0


def probe_passes(result: PhaseResult) -> bool:
    """p99 within the limit, refused and failed requests counting as
    misses, and no growing backlog."""
    if not result.attempted:
        return False
    allowed = int(math.floor(0.01 * result.attempted))
    return result.misses <= allowed and not backlog_growing(result.backlog)


async def find_max_rps(
    server: WhyNotServer, inputs: Inputs
) -> Tuple[float, List[Tuple[float, bool]], List[PhaseResult]]:
    """Bisect the ladder: the highest passing rate, every probe made and
    the probes' results."""
    lo, hi = -1, LADDER_SIZE
    probes: List[Tuple[float, bool]] = []
    results: List[PhaseResult] = []
    for _ in range(LADDER_PROBES):
        if hi - lo <= 1:
            break
        mid = (lo + hi) // 2
        result = await run_phase(server, inputs.ladder[mid])
        results.append(result)
        passed = probe_passes(result)
        probes.append((ladder_rate(mid), passed))
        if passed:
            lo = mid
        else:
            hi = mid
    # No passing probe: report the rung below the lowest one.
    best = ladder_rate(lo) if lo >= 0 else LADDER_BASE / LADDER_STEP
    return best, probes, results


def verify(result: PhaseResult, verifier: Verifier) -> Tuple[int, int]:
    """Check answers: (responses not ok, wrong answers)."""
    bad = 0
    wrong = 0
    topk_seen = 0
    for arrival, response in result.responses:
        if response.status not in (STATUS_OK, STATUS_DEGRADED):
            bad += 1
            continue
        if arrival.kind == CLASS_WHYNOT:
            if not verifier.whynot(arrival.question, response.result):
                wrong += 1
        else:
            topk_seen += 1
            if topk_seen % TOPK_CHECK_EVERY == 0 and not verifier.top_k(
                arrival.query, response.result.results
            ):
                wrong += 1
    return bad, wrong


async def _start_server(engine: WhyNotEngine, inputs: Inputs) -> WhyNotServer:
    server = WhyNotServer(engine, ServerConfig(workers=WORKERS))
    await server.start()
    await run_phase(server, inputs.warmup, first=-len(inputs.warmup))
    return server


async def _setup(
    inputs: Inputs, setups: List[Dict[str, float]], yard: Yardstick
) -> Tuple[WhyNotEngine, WhyNotServer]:
    """Dataset, shard partition, both shard index kinds, server start
    and warm-up — the set-up a deployment pays once."""
    clock = time.perf_counter
    parts: Dict[str, float] = {}
    with yard.bracket() as block:
        start = clock()
        dataset = make_dataset()
        parts["dataset"] = clock() - start
        engine = WhyNotEngine(dataset, shards=SHARDS, shard_mode="simulate")
        mark = clock()
        index = engine.sharded_index
        parts["shard_build"] = clock() - mark
        for kind in ("setr", "kcr"):
            mark = clock()
            index.ensure_built(kind, engine.model)
            parts[f"{kind}_build"] = clock() - mark
        server = await _start_server(engine, inputs)
        parts["total"] = clock() - start
    parts["scale"] = block.scale
    setups.append(parts)
    return engine, server


async def _run(seed: int, seconds: float, trace: bool, plant_wrong: bool, tracer: Any) -> Outcome:
    from . import layers
    from .trace import instrument

    clock = time.perf_counter
    mark = clock()
    if trace:
        inputs = generate(seed, seconds / (2 * CHUNKS), 0.0)
    else:
        inputs = generate(
            seed,
            seconds * FIXED_SHARE / CHUNKS,
            seconds * (1.0 - FIXED_SHARE) / LADDER_PROBES,
        )
    gen_seconds = clock() - mark

    yard = Yardstick()
    setups: List[Dict[str, float]] = []
    probes: List[PhaseResult] = []
    engine: Optional[WhyNotEngine] = None
    server: Optional[WhyNotServer] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                await server.stop()
                engine.close()
            engine, server = await _setup(inputs, setups, yard)
        fixed = [await run_chunks(server, inputs.fixed, yard)]
        verifier = Verifier(engine.dataset, plant_wrong=plant_wrong)
        outcome = Outcome(attempted=0, failed=0, metrics={}, verifier=verifier)
        late_p99 = percentile(fixed[0].late_ms, 99)
        if late_p99 > MAX_GENERATOR_LATE_MS:
            outcome.discarded = (
                f"generator lateness p99 {late_p99:.1f} ms > {MAX_GENERATOR_LATE_MS} ms"
            )
        if trace:
            # A fresh server (warm buffers, empty session registry) so
            # the traced replay does the same work as the untraced one.
            await server.stop()
            server = await _start_server(engine, inputs)
            health_before = server.health()
            io_before = layers.io_totals(engine)
            with instrument(tracer, server):
                traced = await run_chunks(server, inputs.fixed, yard)
            fixed.append(traced)
            outcome.metrics = layers.serve_metrics(
                tracer,
                phase=traced,
                health_before=health_before,
                health=server.health(),
                io=layers.io_totals(engine) - io_before,
                setups=setups,
                gen_seconds=gen_seconds,
                overhead=median(list(traced.scaled_ms.values()))
                / median(list(fixed[0].scaled_ms.values())),
            )
        else:
            max_rps, ladder, probes = await find_max_rps(server, inputs)
            outcome.metrics, outcome.details = _end_to_end(
                inputs, fixed[0], setups, max_rps, late_p99
            )
            outcome.notes.append(
                "ladder probes: "
                + ", ".join(
                    f"{rate:.1f}/s {'pass' if passed else 'miss'}" for rate, passed in ladder
                )
            )
    finally:
        if server is not None:
            await server.stop()
        if engine is not None:
            engine.close()
    for phase in fixed:
        outcome.attempted += phase.attempted
        outcome.failed += sum(verify(phase, verifier))
    for phase in probes:
        # Refusals are expected above capacity; wrong answers are not.
        outcome.failed += verify(phase, verifier)[1]
    return outcome


def _end_to_end(
    inputs: Inputs,
    fixed: PhaseResult,
    setups: Sequence[Dict[str, float]],
    max_rps: float,
    late_p99: float,
):
    arrivals = [arrival for chunk in inputs.fixed for arrival in chunk]
    every = list(fixed.scaled_ms.values())
    whynot = [ms for i, ms in fixed.scaled_ms.items() if arrivals[i].kind == CLASS_WHYNOT]
    setup_s, setup_raw = setup_figures(setups)
    metrics = {
        "setup_s": (setup_s, "s", len(setups)),
        "p50_ms": (percentile(every, 50), "ms", len(every)),
        "p90_ms": (percentile(every, 90), "ms", len(every)),
        "whynot_p50_ms": (percentile(whynot, 50), "ms", len(whynot)),
        "capacity_ops_s": (len(every) / fixed.cpu_seconds, "1/s", len(every)),
    }
    details = {
        "raw.p50_ms": (percentile(list(fixed.latency_ms.values()), 50), "ms", len(every)),
        "raw.setup_s": (setup_raw, "s", len(setups)),
        "max_rps": (max_rps, "1/s", LADDER_PROBES),
        "serve_p95_ms": (percentile(every, 95), "ms", len(every)),
        "serve_whynot_p90_ms": (percentile(whynot, 90), "ms", len(whynot)),
        "generator_late_p99_ms": (late_p99, "ms", len(fixed.late_ms)),
        "fixed_rate": (FIXED_RATE, "1/s", len(every)),
    }
    return metrics, details


def run(
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    plant_wrong: bool = False,
    tracer: Any = None,
) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, plant_wrong, tracer))
