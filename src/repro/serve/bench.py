"""``serve-bench``: simulated heavy traffic over measured busy costs.

A single-core container cannot *run* thousands of concurrent users,
but it can *simulate* them exactly, which is the same trick the
sharded index uses for fan-out (the makespan clock): measure what
each piece of work costs in ``time.process_time`` busy seconds, then
replay the fleet in **virtual time** where those costs overlap across
``W`` simulated workers.  Wall clock never enters the books, so the
reported p50/p99 are core-count-independent and the bench gate's
calibration bracket normalizes away machine speed like every other
figure.

The bench has three moving parts:

1. **Probe** — a small request mix executes *for real* through a real
   :class:`~repro.serve.server.WhyNotServer` (admission, deadline
   scope, session caches — the full path) and yields the mean busy
   cost per request class.
2. **Simulation** — a discrete-event loop drives the *real*
   :class:`~repro.serve.admission.AdmissionQueue` with a seeded
   arrival process; service times are the probed costs with seeded
   ±15% jitter.  Everything downstream of the seed is deterministic:
   same seed, same shed/timeout counts, same latency multiset.
3. **Burst** — the overload scenario: ``burst_factor ×`` the admission
   capacity arrives at one instant, pinning the shed count to an exact
   arithmetic consequence of the class limits.

Arrival rate is expressed as a *load factor* — the ratio of offered
work to fleet capacity ``W / mean_service`` — so the queueing regime
(and therefore the shape of the latency distribution) is the same on
a fast machine and a slow one.
"""

from __future__ import annotations

import asyncio
import heapq
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import WhyNotEngine
from ..errors import InvalidParameterError
from ..experiments.workload import WorkloadCase
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from .admission import AdmissionQueue
from .protocol import CLASS_TOPK, CLASS_WHYNOT, STATUS_REJECTED
from .server import ServerConfig, WhyNotServer

__all__ = ["probe_costs", "simulate_load", "run_serve_bench", "run_dialogue"]


def probe_costs(
    engine: WhyNotEngine,
    cases: Sequence[WorkloadCase],
    *,
    method: str = "kcr",
    repetitions: int = 2,
) -> Dict[str, float]:
    """Mean busy cost (ms) per request class, measured for real.

    Each case contributes one top-k (its underlying query) and one
    why-not request per repetition, executed through a real server so
    the measured path is the served path.
    """
    if not cases:
        raise InvalidParameterError("probe needs at least one workload case")
    config = ServerConfig(
        budgets={CLASS_TOPK: None, CLASS_WHYNOT: None},
        limits={CLASS_TOPK: max(4, len(cases)), CLASS_WHYNOT: max(4, len(cases))},
    )

    async def _drive() -> Tuple[List[float], List[float]]:
        topk_ms: List[float] = []
        whynot_ms: List[float] = []
        async with WhyNotServer(engine, config) as server:
            for rep in range(repetitions):
                for idx, case in enumerate(cases):
                    session = f"probe-{idx}"
                    top = await server.top_k(
                        session, case.question.query
                    )
                    topk_ms.append(top.busy_ms)
                    why = await server.why_not(
                        session, case.question, method=method
                    )
                    whynot_ms.append(why.busy_ms)
        return topk_ms, whynot_ms

    topk_ms, whynot_ms = asyncio.run(_drive())
    return {
        CLASS_TOPK: sum(topk_ms) / len(topk_ms),
        CLASS_WHYNOT: sum(whynot_ms) / len(whynot_ms),
    }


def simulate_load(
    service_ms: Dict[str, float],
    *,
    n_requests: int,
    users: int,
    seed: int,
    workers: int = 4,
    load_factor: float = 0.65,
    whynot_share: float = 0.2,
    limits: Optional[Dict[str, int]] = None,
    budget_factor: float = 12.0,
    burst: bool = False,
) -> Dict[str, Any]:
    """Discrete-event replay of ``n_requests`` over ``workers`` workers.

    ``burst=True`` collapses the arrival process to a single instant
    (the overload scenario); otherwise inter-arrivals are exponential
    at ``load_factor × workers / mean_service``.  Latency = completion
    − arrival in virtual ms; a request whose latency exceeds
    ``budget_factor ×`` its class's service mean counts as a timeout
    (it still completes — deadlines bound promises, not work).
    """
    if n_requests < 1 or users < 1 or workers < 1:
        raise InvalidParameterError(
            "simulate_load needs n_requests, users, workers >= 1"
        )
    if not 0.0 <= whynot_share <= 1.0:
        raise InvalidParameterError(
            f"whynot share must be in [0, 1], got {whynot_share}"
        )
    limits = dict(limits or {CLASS_TOPK: 64, CLASS_WHYNOT: 16})
    rng = random.Random(seed)
    mean_service = (
        (1.0 - whynot_share) * service_ms[CLASS_TOPK]
        + whynot_share * service_ms[CLASS_WHYNOT]
    )
    budgets = {name: budget_factor * cost for name, cost in service_ms.items()}

    # -- arrival schedule (all seeded, generated up front) -------------
    arrivals: List[Tuple[float, int, str, str, float]] = []
    clock = 0.0
    rate_per_ms = load_factor * workers / mean_service
    for seq in range(n_requests):
        if not burst:
            clock += rng.expovariate(rate_per_ms)
        kind = CLASS_WHYNOT if rng.random() < whynot_share else CLASS_TOPK
        session = f"user-{rng.randrange(users)}"
        service = service_ms[kind] * rng.uniform(0.85, 1.15)
        arrivals.append((clock, seq, kind, session, service))

    # -- event loop ----------------------------------------------------
    queue = AdmissionQueue(limits)
    events: List[Tuple[float, int, int, Any]] = []  # (time, priority, order, payload)
    ARRIVE, COMPLETE = 0, 1
    order = 0
    for arrival in arrivals:
        heapq.heappush(events, (arrival[0], ARRIVE, order, arrival))
        order += 1
    idle_workers = workers
    latencies: Dict[str, List[float]] = {CLASS_TOPK: [], CLASS_WHYNOT: []}
    shed = {CLASS_TOPK: 0, CLASS_WHYNOT: 0}
    timeouts = {CLASS_TOPK: 0, CLASS_WHYNOT: 0}

    def start(now: float, entry: Tuple[float, int, str, str, float]) -> None:
        nonlocal idle_workers, order
        idle_workers -= 1
        heapq.heappush(events, (now + entry[4], COMPLETE, order, entry))
        order += 1

    while events:
        now, event_kind, _, payload = heapq.heappop(events)
        if event_kind == ARRIVE:
            _, _, kind, session, _ = payload
            if not queue.offer(kind, session, payload):
                shed[kind] += 1
                continue
            if idle_workers > 0:
                start(now, queue.take())
        else:
            arrived_at, _, kind, _, _ = payload
            latency = now - arrived_at
            latencies[kind].append(latency)
            if latency > budgets[kind]:
                timeouts[kind] += 1
            idle_workers += 1
            entry = queue.take()
            if entry is not None:
                start(now, entry)

    every = sorted(latencies[CLASS_TOPK] + latencies[CLASS_WHYNOT])
    return {
        "latencies_ms": every,
        "shed": dict(shed),
        "timeouts": dict(timeouts),
        "completed": {name: len(vals) for name, vals in latencies.items()},
        "budget_ms": {name: round(value, 4) for name, value in budgets.items()},
        "admission": queue.snapshot(),
        "workers": workers,
        "load_factor": load_factor,
    }


def run_serve_bench(
    engine: WhyNotEngine,
    cases: Sequence[WorkloadCase],
    *,
    n_requests: int = 2000,
    users: int = 300,
    seed: int = 2016,
    workers: int = 4,
    load_factor: float = 0.65,
    whynot_share: float = 0.2,
    limits: Optional[Dict[str, int]] = None,
    budget_factor: float = 12.0,
    method: str = "kcr",
    burst: bool = False,
) -> Dict[str, Any]:
    """Probe + simulate in one call; the CLI/bench entry point."""
    service = probe_costs(engine, cases, method=method)
    report = simulate_load(
        service,
        n_requests=n_requests,
        users=users,
        seed=seed,
        workers=workers,
        load_factor=load_factor,
        whynot_share=whynot_share,
        limits=limits,
        budget_factor=budget_factor,
        burst=burst,
    )
    report["service_ms"] = {
        name: round(value, 4) for name, value in service.items()
    }
    report["simulated_users"] = users
    report["requests"] = n_requests
    return report


def run_dialogue(
    engine: WhyNotEngine,
    question: WhyNotQuestion,
    *,
    rounds: int = 4,
    session: str = "dialogue",
    reuse_cache: bool = True,
) -> Dict[str, Any]:
    """One refinement dialogue through the server, advanced method.

    Rounds vary ``k`` and ``λ`` while keeping the (location, α,
    missing) triple fixed — the regime where the session layer shares
    one dominator cache across rounds.  ``reuse_cache=False`` runs
    each round in its own session as the no-sharing baseline.
    """
    if rounds < 1:
        raise InvalidParameterError(f"dialogue needs >= 1 round, got {rounds}")
    base = question.query
    config = ServerConfig(budgets={CLASS_TOPK: None, CLASS_WHYNOT: None})

    async def _drive() -> Dict[str, Any]:
        busy: List[float] = []
        statuses: List[str] = []
        async with WhyNotServer(engine, config) as server:
            for round_no in range(rounds):
                varied = SpatialKeywordQuery(
                    loc=base.loc,
                    doc=base.doc,
                    k=base.k + round_no,
                    alpha=base.alpha,
                )
                round_question = WhyNotQuestion(
                    varied,
                    question.missing,
                    lam=min(0.9, question.lam + 0.1 * round_no),
                )
                who = session if reuse_cache else f"{session}-{round_no}"
                response = await server.why_not(
                    who, round_question, method="advanced"
                )
                if response.status == STATUS_REJECTED:  # pragma: no cover
                    raise InvalidParameterError(
                        "dialogue request shed; raise the limits"
                    )
                busy.append(response.busy_ms)
                statuses.append(response.status)
            hits = server.sessions.snapshot()["cache_hits"]
        return {
            "busy_ms": busy,
            "statuses": statuses,
            "cache_hits": hits,
            "rounds": rounds,
            "reused": reuse_cache,
        }

    return asyncio.run(_drive())
