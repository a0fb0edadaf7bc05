"""High-level facade: one object that answers why-not questions.

:class:`WhyNotEngine` owns the dataset and one
:class:`~repro.index.sharded.ShardedIndex` over it — a single tile by
default, ``shards=N`` STR tiles on request.  Each shard builds its two
trees lazily (the SetR-tree for BS/AdvancedBS, the KcR-tree for
KcRBased), and the engine dispatches a
:class:`~repro.model.query.WhyNotQuestion` to any of the paper's
methods by name.  It is the recommended entry point:

>>> engine = WhyNotEngine(dataset)
>>> answer = engine.answer(question, method="kcr")
>>> answer.refined.describe(vocabulary)

**Fault tolerance.**  Pass ``faults=FaultInjector(...)`` to attach a
deterministic fault schedule to the storage layer (each shard tree gets
an independent fork, so injection replays identically regardless of
build order).  Transient faults are absorbed by the buffer pool's retry
loop.  An *unrecoverable* fault (checksum mismatch, lost record,
exhausted retries) quarantines only the shard tree it hit — the unit
``"shard-<tid>:<kind>"`` — and that shard's partition is served by the
exact index-free scan, so the caller gets an exact answer flagged
``degraded`` instead of an exception.  With one tile the scan covers
the whole dataset.  :meth:`WhyNotEngine.recover` rebuilds quarantined
shard trees from their datasets; :meth:`WhyNotEngine.health` reports
quarantine state and scans live trees for corruption.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError
from ..index.kcr_tree import KcRTree
from ..index.rtree import DEFAULT_CAPACITY, RTreeBase
from ..index.setr_tree import SetRTree
from ..index.sharded import KINDS, ShardedIndex
from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import SimilarityModel, get_model
from ..storage.faults import FaultInjector
from .advanced import AdvancedAlgorithm
from .alpha_refinement import AlphaRefinementAlgorithm, IntegratedAlgorithm
from .approximate import ApproximateAlgorithm
from .basic import BasicAlgorithm
from .kcr_algorithm import KcRAlgorithm
from .location_refinement import LocationRefinementAlgorithm
from .parallel import ParallelAdvanced, ParallelKcR
from .result import FaultEvent, TopKOutcome, WhyNotAnswer

__all__ = ["WhyNotEngine"]

METHODS = (
    "basic",
    "advanced",
    "kcr",
    "approximate",
    "parallel-advanced",
    "parallel-kcr",
    "alpha",
    "location",
    "integrated",
)


class WhyNotEngine:
    """Facade over the dataset, its shard set, and the algorithms."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        capacity: int = DEFAULT_CAPACITY,
        similarity: str = "jaccard",
        buffer_fraction: Optional[float] = 0.25,
        faults: Optional[FaultInjector] = None,
        shards: int = 1,
        shard_mode: str = "simulate",
        fault_shards: Optional[Sequence[int]] = None,
    ) -> None:
        """``buffer_fraction`` re-sizes each tree's buffer pool to that
        fraction of the tree's on-disk pages (min 32), preserving the
        paper's buffer-pressure ratio on scaled-down datasets; pass
        ``None`` to keep the paper's absolute 4 MB buffer.
        ``faults`` attaches a deterministic fault schedule: each shard
        tree gets an independent fork, and rebuilt trees (after
        :meth:`recover`) get fresh forks so recovery does not replay
        the exact faults that broke them.

        ``shards=N`` partitions the dataset across ``N`` STR tiles;
        every method, top-k query and mutation runs over the tiles with
        results bit-identical to one tile.  ``shard_mode`` picks
        between the deterministic makespan simulation (``"simulate"``)
        and real forked workers (``"process"``).  With faults attached,
        ``fault_shards`` restricts injection to those shard ids — the
        containment story: only the faulted shard degrades."""
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        self.dataset = dataset
        self.capacity = capacity
        self.model: SimilarityModel = get_model(similarity)
        self.buffer_fraction = buffer_fraction
        self.faults = faults
        self.shards = shards
        self.shard_mode = shard_mode
        self.fault_shards = (
            None if fault_shards is None else tuple(fault_shards)
        )
        self._index: Optional[ShardedIndex] = None

    @property
    def is_sharded(self) -> bool:
        """Whether the dataset is split over more than one tile."""
        return self.shards > 1

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    @property
    def sharded_index(self) -> ShardedIndex:
        """The shard set, built on first use (its trees build lazily)."""
        if self._index is None:
            self._index = ShardedIndex.build(
                self.dataset,
                self.shards,
                mode=self.shard_mode,
                capacity=self.capacity,
                buffer_fraction=self.buffer_fraction,
                faults=self.faults,
                fault_shards=self.fault_shards,
            )
        return self._index

    def attach_sharded_index(self, index: ShardedIndex) -> None:
        """Adopt a pre-built shard set (e.g. from ``build_streaming``).

        Saves a redundant in-memory rebuild when the caller already
        paid for a streaming bulk load.  The index must match this
        engine's configuration exactly — answers are served from it.
        """
        if len(index.shards) != self.shards or index.mode != self.shard_mode:
            raise InvalidParameterError(
                f"shard set ({len(index.shards)} shards, {index.mode!r} mode)"
                f" does not match engine (shards={self.shards},"
                f" shard_mode={self.shard_mode!r})"
            )
        if index.dataset is not self.dataset:
            raise InvalidParameterError(
                "shard set was built over a different dataset object"
            )
        self._index = index

    def _lone_tree(self, kind: str) -> RTreeBase:
        """The one shard's tree of ``kind``, built on first use."""
        if self.shards > 1 or self.shard_mode != "simulate":
            raise InvalidParameterError(
                f"{kind}_tree needs a one-shard simulate engine, not "
                f"shards={self.shards}, shard_mode={self.shard_mode!r}"
            )
        index = self.sharded_index
        index.ensure_built(kind, self.model)
        return index.shards[0].built_tree(kind)

    @property
    def setr_tree(self) -> SetRTree:
        """The SetR-tree of a one-shard engine, for callers that drive a
        tree directly (benchmarks, ablations, examples)."""
        return self._lone_tree("setr")  # type: ignore[return-value]

    @property
    def kcr_tree(self) -> KcRTree:
        """The KcR-tree of a one-shard engine (see :attr:`setr_tree`)."""
        return self._lone_tree("kcr")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # quarantine and recovery
    # ------------------------------------------------------------------
    def _fault_events(self) -> List[FaultEvent]:
        return [] if self._index is None else self._index.runtime.fault_events

    @property
    def quarantined(self) -> Dict[str, Tuple[FaultEvent, ...]]:
        """Quarantined units (``"shard-<tid>:<kind>"``) mapped to the
        faults that broke them; every other shard tree stays live."""
        grouped: Dict[str, List[FaultEvent]] = {}
        for event in self._fault_events():
            grouped.setdefault(event.tree, []).append(event)
        return {name: tuple(events) for name, events in grouped.items()}

    def recover(
        self, only: Optional[Iterable[str]] = None
    ) -> Tuple[FaultEvent, ...]:
        """Drop quarantined shard trees for rebuild from their datasets.

        The datasets are authoritative (trees never own object data),
        so recovery is a rebuild: quarantined trees are discarded and
        lazily reconstructed on next use, with a *fresh* fault-injector
        fork so the rebuilt tree does not replay the exact schedule
        that broke it.  Returns the fault events that were cleared.

        ``only`` limits recovery to the named quarantine units.  The
        serving layer's circuit breakers rely on this to half-open one
        unit at a time instead of resurrecting everything.
        """
        selected = None if only is None else set(only)
        cleared = tuple(
            event
            for event in self._fault_events()
            if selected is None or event.tree in selected
        )
        if self._index is not None:
            self._index.recover(only=selected)
        return cleared

    def health(self) -> Dict[str, Any]:
        """Fault-tolerance status report.

        Returns a dict with ``quarantined`` (unit -> fault events),
        ``corruption`` (unit ->
        :class:`~repro.analysis.sanitize.SanitizerReport`: one
        ``quarantined-subtree`` violation per quarantine event, or a
        corruption scan of each live tree held in this process), and
        ``injector`` (the schedule's injection ledger, if any).
        """
        from ..analysis.sanitize import SanitizerReport, scan_corruption

        quarantined = self.quarantined
        corruption: Dict[str, Any] = {}
        for name, events in quarantined.items():
            report = SanitizerReport()
            for event in events:
                report.add("quarantined-subtree", f"tree {name}", event.format())
            corruption[name] = report
        for shard in [] if self._index is None else self._index.shards:
            for kind in KINDS:
                name = f"shard-{shard.tid}:{kind}"
                if name not in quarantined and shard.has_tree(kind):
                    corruption[name] = scan_corruption(shard.built_tree(kind))
        return {
            "quarantined": quarantined,
            "corruption": corruption,
            "injector": None if self.faults is None else self.faults.summary(),
        }

    def reset_buffers(self) -> None:
        """Cold-start every shard tree's buffer pool (between experiments)."""
        if self._index is not None:
            self._index.reset_buffers()

    def close(self) -> None:
        """Release shard workers and their per-shard state."""
        if self._index is not None:
            self._index.close()

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Add an object to the dataset and its tile's shard.

        Trees not built yet pick the object up when they are built;
        built trees receive a dynamic R-tree insertion with summary
        maintenance.  Brute-force oracles constructed from the dataset
        before the insert are snapshots and must be rebuilt.

        An unrecoverable storage fault mid-insertion leaves that shard
        tree half-updated, so it is quarantined (the datasets, which
        are authoritative, still gain the object); its partition is
        served by the scan until :meth:`recover` rebuilds it.
        """
        self.sharded_index.insert(obj)

    def remove(self, oid: int) -> None:
        """Remove an object from its tile's shard and the dataset.

        Like :meth:`insert`, a storage fault mid-deletion quarantines
        the affected shard tree instead of propagating.
        """
        self.sharded_index.remove(oid)

    def update_keywords(self, oid: int, keywords: Iterable[int]) -> None:
        """Replace an object's document (delete + reinsert).

        This is the merchant loop closed: answer a why-not question
        about your own listing, then apply the suggested keywords.
        The object keeps its id and location; document frequencies,
        node summaries, and count maps all update.
        """
        old = self.dataset.get(oid)
        updated = SpatialObject(oid=oid, loc=old.loc, doc=frozenset(keywords))
        self.remove(oid)
        self.insert(updated)

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def top_k(self, query: SpatialKeywordQuery) -> List[Tuple[float, int]]:
        """Run a plain spatial keyword top-k query (Definition 1).

        Degradation-transparent: see :meth:`run_top_k` for the variant
        that also reports whether a shard was served by the scan.
        """
        return self.run_top_k(query).results

    def run_top_k(self, query: SpatialKeywordQuery) -> TopKOutcome:
        """Top-k with an explicit fault-tolerance verdict.

        Fans the query across the shards' SetR-trees; a quarantined
        shard's partition is served by the exact scan, so the merged
        answer is bit-identical either way and flagged ``degraded``
        while any shard tree is down.
        """
        index = self.sharded_index
        results = index.searcher("setr", self.model).top_k(query)
        events = tuple(index.runtime.fault_events)
        return TopKOutcome(results=results, degraded=bool(events), events=events)

    def answer(
        self,
        question: WhyNotQuestion,
        method: str = "kcr",
        *,
        sample_size: int = 200,
        n_threads: int = 4,
        **options: Any,
    ) -> WhyNotAnswer:
        """Answer a why-not question with the chosen method.

        ``method`` selects among ``basic`` (BS), ``advanced``
        (AdvancedBS; accepts ``early_stop``/``ordering``/``filtering``
        toggles via ``options``), ``kcr`` (KcRBased), ``approximate``
        (accepts ``strategy``), the two ``parallel-*`` variants, and
        the ``alpha``/``location``/``integrated`` refinement axes.

        Storage faults never propagate: the shard fan-out contains
        them per shard tree, so the answer is always the exact one —
        flagged ``degraded`` while any shard tree is down.  The elapsed
        time is read on :mod:`repro.storage.clock`'s makespan clock, so
        each shard fan-out counts as its slowest shard.
        """
        if method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        index = self.sharded_index
        answer = self._algorithm(
            method, index, sample_size, n_threads, options
        ).answer(question)
        if index.runtime.fault_events:
            answer.degraded = True
            answer.fault_events = tuple(index.runtime.fault_events)
        return answer

    def _algorithm(
        self,
        method: str,
        index: ShardedIndex,
        sample_size: int,
        n_threads: int,
        options: Dict[str, Any],
    ) -> Any:
        """The chosen method over the shard set: the SetR view, or the
        index itself for the KcR round driver."""
        model = self.model

        def over(kind: str) -> Any:
            # Built before the answer starts, so no build I/O lands in
            # the answer's ledger.
            index.ensure_built(kind, model)
            return index if kind == "kcr" else index.view(kind)

        if method == "basic":
            return BasicAlgorithm(over("setr"), model)
        if method == "advanced":
            return AdvancedAlgorithm(over("setr"), model, **options)
        if method == "kcr":
            return KcRAlgorithm(over("kcr"), model)
        if method == "approximate":
            strategy = options.pop("strategy", "kcr")
            return ApproximateAlgorithm(
                over("kcr" if strategy == "kcr" else "setr"),
                sample_size,
                strategy=strategy,
                model=model,
                **options,
            )
        if method == "parallel-advanced":
            return ParallelAdvanced(over("setr"), n_threads, model=model, **options)
        if method == "parallel-kcr":
            return ParallelKcR(over("kcr"), n_threads, model=model)
        if method == "alpha":
            return AlphaRefinementAlgorithm(over("setr"), model, **options)
        if method == "location":
            return LocationRefinementAlgorithm(over("setr"), model, **options)
        return IntegratedAlgorithm(over("kcr"), model, **options)
