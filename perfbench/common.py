"""Shared pieces: seeds, set-up timing, percentiles and answer checks."""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.data.synthetic import make_euro_like
from repro.model.objects import Dataset
from repro.model.oracle import Oracle
from repro.model.query import SpatialKeywordQuery, WhyNotQuestion

from .yardstick import Block, Yardstick

#: Size of the euro-like corpus every workload serves.
DATASET_SIZE = 4000
#: The corpus is fixed, like the paper's real datasets; ``--seed`` draws
#: everything that varies per run (questions, arrivals, churn).
DATASET_SEED = 2016
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A timed pass of fixed work is cut at this multiple of its share of the
#: run, so a slow host cannot stretch a run without bound.
TIME_CAP = 1.3


def derive_seed(seed: int, *labels: Any) -> int:
    """Stable sub-seed: CRC-32 of the labels (``hash()`` is salted per
    process, which would make inputs differ between runs)."""
    return zlib.crc32(repr((seed,) + labels).encode("utf-8"))


def make_dataset() -> Dataset:
    dataset, _ = make_euro_like(DATASET_SIZE, seed=DATASET_SEED)
    return dataset


def unsharded_engine(setups: List[Dict[str, float]], yard: Yardstick) -> WhyNotEngine:
    """Build the corpus and both indexes; record the set-up times (and
    the yardstick scale of the build)."""
    clock = time.perf_counter
    parts: Dict[str, float] = {}
    with yard.bracket() as block:
        start = clock()
        dataset = make_dataset()
        parts["dataset"] = clock() - start
        engine = WhyNotEngine(dataset)
        for kind in ("setr", "kcr"):
            mark = clock()
            getattr(engine, f"{kind}_tree")
            parts[f"{kind}_build"] = clock() - mark
        parts["total"] = clock() - start
    parts["scale"] = block.scale
    setups.append(parts)
    return engine


def setup_figures(setups: Sequence[Dict[str, float]]) -> Tuple[float, float]:
    """Median set-up time at reference speed, and raw."""
    return (
        median([p["total"] * p["scale"] for p in setups]),
        median([p["total"] for p in setups]),
    )


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 when empty."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n * (100.0 - q) / 100.0 >= 10.0


def draw_query(rng: np.random.Generator, dataset: Dataset) -> SpatialKeywordQuery:
    """A top-10 query (α = 0.5) issued near a random object with four of
    its keywords, topped up from the vocabulary (the question
    generator's recipe)."""
    objects = dataset.objects
    anchor = objects[int(rng.integers(0, len(objects)))]
    keywords = sorted(anchor.doc)
    rng.shuffle(keywords)
    keywords = keywords[:4]
    terms = sorted(dataset.doc_frequency)
    while len(keywords) < 4:
        term = int(terms[int(rng.integers(0, len(terms)))])
        if term not in keywords:
            keywords.append(term)
    jitter = rng.normal(0.0, 0.01, size=2)
    loc = (
        float(min(1.0, max(0.0, anchor.loc[0] + jitter[0]))),
        float(min(1.0, max(0.0, anchor.loc[1] + jitter[1]))),
    )
    return SpatialKeywordQuery(loc=loc, doc=frozenset(keywords), k=10, alpha=0.5)


@dataclass
class Verifier:
    """Checks answers against the brute-force oracle on the *current*
    dataset.

    The oracle is a snapshot, so it is rebuilt whenever ``changed`` has
    been called since it was built.  ``plant_wrong`` corrupts the first
    why-not answer checked (the negative control for this checker).
    """

    dataset: Dataset
    plant_wrong: bool = False
    wrong: int = 0
    checked: int = 0
    problems: List[str] = field(default_factory=list)
    _oracle: Optional[Oracle] = None

    def changed(self) -> None:
        self._oracle = None

    def absorb(self, other: "Verifier") -> None:
        """Add another verifier's tallies to this one."""
        self.wrong += other.wrong
        self.checked += other.checked
        self.problems += other.problems[: max(0, 20 - len(self.problems))]

    @property
    def oracle(self) -> Oracle:
        if self._oracle is None:
            self._oracle = Oracle(self.dataset)
        return self._oracle

    def _fail(self, message: str) -> bool:
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)
        return False

    def whynot(self, question: WhyNotQuestion, answer: Any) -> bool:
        """``R(M, q') <= k'`` for the refined query, and no worse than
        the basic refinement's penalty ``λ``."""
        self.checked += 1
        refined = answer.refined
        k = refined.k
        if self.plant_wrong:
            self.plant_wrong = False
            k = 0
        rank = self.oracle.rank_of_set(
            question.missing, question.query, keywords=refined.keywords
        )
        if rank > k:
            return self._fail(
                f"why-not {question.missing}: oracle rank {rank} > k'={k}"
            )
        if refined.penalty > question.lam + 1e-12:
            return self._fail(
                f"why-not {question.missing}: penalty {refined.penalty} > λ"
            )
        return True

    def same_penalty(self, question: WhyNotQuestion, first: Any, second: Any) -> bool:
        self.checked += 1
        if first.refined.penalty != second.refined.penalty:
            return self._fail(
                f"why-not {question.missing}: {first.algorithm} penalty "
                f"{first.refined.penalty} != {second.algorithm} penalty "
                f"{second.refined.penalty}"
            )
        return True

    def top_k(self, query: SpatialKeywordQuery, results: Sequence[Tuple[float, int]]) -> bool:
        self.checked += 1
        expected = self.oracle.top_k_ids(query)
        got = [oid for _, oid in results]
        if got != expected:
            return self._fail(f"top-k at {query.loc}: {got} != oracle {expected}")
        return True


@dataclass
class Sample:
    """One timed call and the yardstick block it ran in."""

    op: int
    kind: str
    raw_ms: float
    block: Block

    @property
    def ms(self) -> float:
        """The timing at reference host speed."""
        return self.raw_ms * self.block.scale


@dataclass
class Pass:
    """One closed-loop pass over a workload's operations."""

    samples: List[Sample] = field(default_factory=list)
    #: Why-not answers, in the order they were given.
    answers: List[Any] = field(default_factory=list)
    ops: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)

    def timed(self, op: int, kind: str, block: Block, call: Callable[..., Any], *args: Any) -> Any:
        """Call ``call(*args)`` and record its time as a sample."""
        start = time.perf_counter()
        value = call(*args)
        self.samples.append(Sample(op, kind, (time.perf_counter() - start) * 1000.0, block))
        return value


@dataclass
class Outcome:
    """What one workload run hands back to the reporter."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str, int]]  # name -> (value, unit, samples)
    verifier: Verifier
    notes: List[str] = field(default_factory=list)
    #: Workload-specific figures printed beside the metrics.
    details: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Why the run's measurements cannot be used (empty when they can).
    discarded: str = ""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
