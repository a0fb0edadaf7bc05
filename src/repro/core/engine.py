"""High-level facade: one object that answers why-not questions.

:class:`WhyNotEngine` owns the dataset, builds the two indexes lazily
(the SetR-tree for BS/AdvancedBS, the KcR-tree for KcRBased), and
dispatches a :class:`~repro.model.query.WhyNotQuestion` to any of the
paper's methods by name.  It is the recommended entry point:

>>> engine = WhyNotEngine(dataset)
>>> answer = engine.answer(question, method="kcr")
>>> answer.refined.describe(vocabulary)

**Fault tolerance.**  Pass ``faults=FaultInjector(...)`` to attach a
deterministic fault schedule to the storage layer (each index gets an
independent fork, so injection replays identically regardless of build
order).  Transient faults are absorbed by the buffer pool's retry
loop; an *unrecoverable* fault mid-query (checksum mismatch, lost
record, exhausted retries) quarantines the damaged index and re-routes
the query through the index-free :class:`~repro.core.degraded.ScanFallback`
— the caller gets an exact answer flagged ``degraded`` instead of an
exception.  :meth:`WhyNotEngine.recover` rebuilds quarantined indexes
from the authoritative in-memory dataset; :meth:`WhyNotEngine.health`
reports quarantine state and scans live indexes for corruption.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, StorageError
from ..index.kcr_tree import KcRTree
from ..index.rtree import DEFAULT_CAPACITY
from ..index.search import TopKSearcher
from ..index.setr_tree import SetRTree
from ..model.objects import Dataset, SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel, get_model
from ..storage.faults import FaultInjector
from .advanced import AdvancedAlgorithm
from .alpha_refinement import AlphaRefinementAlgorithm, IntegratedAlgorithm
from .approximate import ApproximateAlgorithm
from .basic import BasicAlgorithm
from .degraded import ScanFallback
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

#: Which index each method reads — the quarantine/degradation unit.
#: ``approximate`` is strategy-dependent; see
#: :meth:`WhyNotEngine._method_tree`.
TREE_OF_METHOD: Dict[str, str] = {
    "basic": "setr",
    "advanced": "setr",
    "alpha": "setr",
    "location": "setr",
    "parallel-advanced": "setr",
    "kcr": "kcr",
    "parallel-kcr": "kcr",
    "integrated": "kcr",
    "approximate": "kcr",
}


class WhyNotEngine:
    """Facade over the dataset, the indexes, and the five algorithms."""

    #: Methods available when the engine runs over a sharded index.
    SHARDED_METHODS = ("basic", "advanced", "kcr")

    def __init__(
        self,
        dataset: Dataset,
        *,
        capacity: int = DEFAULT_CAPACITY,
        similarity: str = "jaccard",
        buffer_fraction: Optional[float] = 0.25,
        faults: Optional[FaultInjector] = None,
        shards: Optional[int] = None,
        shard_mode: str = "simulate",
        fault_shards: Optional[Sequence[int]] = None,
    ) -> None:
        """``buffer_fraction`` re-sizes each index's buffer pool to that
        fraction of the index's on-disk pages (min 32), preserving the
        paper's buffer-pressure ratio on scaled-down datasets; pass
        ``None`` to keep the paper's absolute 4 MB buffer.
        ``faults`` attaches a deterministic fault schedule: each index
        gets an independent fork, and rebuilt indexes (after
        :meth:`recover`) get fresh forks so recovery does not replay
        the exact faults that broke them.

        ``shards=N`` partitions the dataset across ``N`` STR tiles and
        answers ``basic``/``advanced``/``kcr`` questions (and top-k
        queries) by per-shard fan-out with bit-identical results;
        ``shard_mode`` picks between the deterministic makespan
        simulation (``"simulate"``) and real forked workers
        (``"process"``).  With faults attached, ``fault_shards``
        restricts injection to those shard ids — the containment story:
        only the faulted shard degrades.  The sharded engine is
        read-only (no insert/remove)."""
        if shards is not None and shards < 1:
            raise InvalidParameterError(
                f"shards must be >= 1 when set, got {shards}"
            )
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
        self._setr: Optional[SetRTree] = None
        self._kcr: Optional[KcRTree] = None
        self._sharded: Optional[Any] = None
        self._quarantined: Dict[str, List[FaultEvent]] = {}
        self._rebuilds: Dict[str, int] = {"setr": 0, "kcr": 0}
        self._scan: Optional[ScanFallback] = None

    @property
    def is_sharded(self) -> bool:
        return self.shards is not None

    def _apply_buffer_policy(self, tree):
        if self.buffer_fraction is not None:
            pages = max(32, int(tree.buffer.total_pages * self.buffer_fraction))
            tree.resize_buffer(min(pages, tree.buffer.capacity_pages or pages))
        return tree

    def _tree_faults(self, name: str) -> Optional[FaultInjector]:
        """The fork driving one index's pager (fresh seed per rebuild)."""
        if self.faults is None:
            return None
        generation = self._rebuilds[name]
        label = name if generation == 0 else f"{name}:rebuild-{generation}"
        return self.faults.fork(label)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    @property
    def setr_tree(self) -> SetRTree:
        """The SetR-tree, built on first use."""
        if self._setr is None:
            self._setr = self._apply_buffer_policy(
                SetRTree(
                    self.dataset,
                    capacity=self.capacity,
                    faults=self._tree_faults("setr"),
                )
            )
        return self._setr

    @property
    def kcr_tree(self) -> KcRTree:
        """The KcR-tree, built on first use."""
        if self._kcr is None:
            self._kcr = self._apply_buffer_policy(
                KcRTree(
                    self.dataset,
                    capacity=self.capacity,
                    faults=self._tree_faults("kcr"),
                )
            )
        return self._kcr

    @property
    def sharded_index(self) -> Any:
        """The shard set, built on first use (``shards=N`` engines)."""
        if not self.is_sharded:
            raise InvalidParameterError(
                "this engine was not constructed with shards=N"
            )
        if self._sharded is None:
            # Imported lazily: repro.index.sharded reaches back into
            # repro.core for FaultEvent and the KcR driver.
            from ..index.sharded import ShardedIndex

            self._sharded = ShardedIndex.build(
                self.dataset,
                self.shards,
                mode=self.shard_mode,
                capacity=self.capacity,
                buffer_fraction=self.buffer_fraction,
                faults=self.faults,
                fault_shards=self.fault_shards,
            )
        return self._sharded

    def attach_sharded_index(self, index: Any) -> None:
        """Adopt a pre-built shard set (e.g. from ``build_streaming``).

        Saves a redundant in-memory rebuild when the caller already
        paid for a streaming bulk load.  The index must match this
        engine's configuration exactly — answers are served from it.
        """
        if not self.is_sharded:
            raise InvalidParameterError(
                "this engine was not constructed with shards=N"
            )
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
        self._sharded = index

    @property
    def scan_fallback(self) -> ScanFallback:
        """The index-free exact fallback (shared, stateless)."""
        if self._scan is None:
            self._scan = ScanFallback(self.dataset, self.model)
        return self._scan

    # ------------------------------------------------------------------
    # quarantine and recovery
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> Dict[str, Tuple[FaultEvent, ...]]:
        """Quarantined index names mapped to the faults that broke them.

        Sharded engines quarantine per shard tree: keys are
        ``"shard-<tid>:<kind>"``, and every other shard stays live."""
        if self.is_sharded:
            if self._sharded is None:
                return {}
            grouped: Dict[str, List[FaultEvent]] = {}
            for event in self._sharded.runtime.fault_events:
                grouped.setdefault(event.tree, []).append(event)
            return {name: tuple(events) for name, events in grouped.items()}
        return {name: tuple(events) for name, events in self._quarantined.items()}

    def _quarantine(self, name: str, operation: str, exc: StorageError) -> None:
        """Take an index out of service after an unrecoverable fault."""
        event = FaultEvent(
            tree=name,
            operation=operation,
            error=type(exc).__name__,
            record_id=getattr(exc, "record_id", None),
            detail=str(exc),
        )
        self._quarantined.setdefault(name, []).append(event)

    def recover(
        self, only: Optional[Iterable[str]] = None
    ) -> Tuple[FaultEvent, ...]:
        """Drop quarantined indexes for rebuild from the dataset.

        The dataset is authoritative (indexes never own object data),
        so recovery is a rebuild: quarantined trees are discarded and
        lazily reconstructed on next use, with a *fresh* fault-injector
        fork so the rebuilt tree does not replay the exact schedule
        that broke it.  Returns the fault events that were cleared.

        ``only`` limits recovery to the named quarantine units (index
        names, or ``"shard-<tid>:<kind>"`` for sharded engines).  The
        serving layer's circuit breakers rely on this to half-open one
        unit at a time instead of resurrecting everything.
        """
        if self.is_sharded:
            if self._sharded is None:
                return ()
            if only is None:
                cleared = tuple(self._sharded.runtime.fault_events)
                self._sharded.recover()
                return cleared
            selected = set(only)
            cleared = tuple(
                event
                for event in self._sharded.runtime.fault_events
                if event.tree in selected
            )
            self._sharded.recover(only=selected)
            return cleared
        selected = None if only is None else set(only)
        names = [
            name
            for name in list(self._quarantined)
            if selected is None or name in selected
        ]
        cleared = tuple(
            event for name in names for event in self._quarantined[name]
        )
        for name in names:
            self._rebuilds[name] += 1
            if name == "setr":
                self._setr = None
            else:
                self._kcr = None
            del self._quarantined[name]
        return cleared

    def health(self) -> Dict[str, Any]:
        """Fault-tolerance status report.

        Returns a dict with ``quarantined`` (index name -> fault
        events), ``corruption`` (index name ->
        :class:`~repro.analysis.sanitize.SanitizerReport` from a
        corruption scan of each *live* built index, with one
        ``quarantined-subtree`` violation per quarantine event), and
        ``injector`` (the schedule's injection ledger, if any).
        """
        from ..analysis.sanitize import SanitizerReport, scan_corruption

        corruption: Dict[str, Any] = {}
        if self.is_sharded:
            for name, events in self.quarantined.items():
                report = SanitizerReport()
                for event in events:
                    report.add(
                        "quarantined-subtree", f"tree {name}", event.format()
                    )
                corruption[name] = report
            return {
                "quarantined": self.quarantined,
                "corruption": corruption,
                "injector": (
                    None if self.faults is None else self.faults.summary()
                ),
            }
        for name, tree in (("setr", self._setr), ("kcr", self._kcr)):
            if name in self._quarantined:
                report = SanitizerReport()
                for event in self._quarantined[name]:
                    report.add("quarantined-subtree", f"tree {name}", event.format())
                corruption[name] = report
            elif tree is not None:
                corruption[name] = scan_corruption(tree)
        return {
            "quarantined": self.quarantined,
            "corruption": corruption,
            "injector": None if self.faults is None else self.faults.summary(),
        }

    def reset_buffers(self) -> None:
        """Cold-start every index's buffer pools (between experiments)."""
        if self.is_sharded:
            if self._sharded is not None:
                self._sharded.reset_buffers()
            return
        if self._setr is not None:
            self._setr.reset_buffer()
        if self._kcr is not None:
            self._kcr.reset_buffer()

    def close(self) -> None:
        """Release shard workers (a no-op for unsharded engines)."""
        if self._sharded is not None:
            self._sharded.close()

    def _reject_sharded_mutation(self, operation: str) -> None:
        if self.is_sharded:
            raise InvalidParameterError(
                f"{operation} is not supported on a sharded engine; "
                "shards are read-only after bulk load"
            )

    def insert(self, obj: SpatialObject) -> None:
        """Add an object to the dataset and every built index.

        Indexes not built yet pick the object up when they are built;
        already-built indexes receive a dynamic R-tree insertion with
        summary maintenance.  Brute-force oracles constructed from the
        dataset before the insert are snapshots and must be rebuilt.

        An unrecoverable storage fault mid-insertion leaves that index
        half-updated, so it is quarantined (the dataset, which is
        authoritative, still gains the object); queries degrade to the
        fallback until :meth:`recover` rebuilds the index.
        """
        self._reject_sharded_mutation("insert")
        self.dataset.add(obj)
        self._mutate_tree("setr", f"insert:{obj.oid}", lambda t: t.insert(obj))
        self._mutate_tree("kcr", f"insert:{obj.oid}", lambda t: t.insert(obj))

    def remove(self, oid: int) -> None:
        """Remove an object from every built index and the dataset.

        Like :meth:`insert`, a storage fault mid-deletion quarantines
        the affected index instead of propagating.
        """
        self._reject_sharded_mutation("remove")
        obj = self.dataset.get(oid)
        self._mutate_tree("setr", f"remove:{oid}", lambda t: t.delete(obj))
        self._mutate_tree("kcr", f"remove:{oid}", lambda t: t.delete(obj))
        self.dataset.remove(oid)

    def _mutate_tree(self, name: str, operation: str, action: Any) -> None:
        """Apply one mutation to a built, non-quarantined index."""
        tree = self._setr if name == "setr" else self._kcr
        if tree is None or name in self._quarantined:
            return
        try:
            action(tree)
        except StorageError as exc:
            self._quarantine(name, operation, exc)

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
        that also reports whether the answer came from the fallback.
        """
        return self.run_top_k(query).results

    def run_top_k(self, query: SpatialKeywordQuery) -> TopKOutcome:
        """Top-k with an explicit fault-tolerance verdict.

        Runs over the SetR-tree; on an unrecoverable storage fault the
        index is quarantined and the query re-runs on the index-free
        scan, yielding an exact but ``degraded``-flagged outcome.
        Sharded engines fan the query across shards; a faulted shard's
        partition is served by the exact scan (only that shard
        degrades) and the merged answer is still bit-identical.
        """
        if self.is_sharded:
            index = self.sharded_index
            index.ensure_built("setr", self.model)
            results = index.searcher("setr", self.model).top_k(query)
            index.runtime.consume_discount()
            if index.runtime.down:
                return TopKOutcome(
                    results=results,
                    degraded=True,
                    events=tuple(index.runtime.fault_events),
                )
            return TopKOutcome(results=results)
        if "setr" not in self._quarantined:
            try:
                return TopKOutcome(
                    results=TopKSearcher(self.setr_tree, self.model).top_k(query)
                )
            except StorageError as exc:
                self._quarantine("setr", "top_k", exc)
        return TopKOutcome(
            results=self.scan_fallback.top_k(query),
            degraded=True,
            events=tuple(self._quarantined["setr"]),
        )

    def _method_tree(self, method: str, options: Dict[str, Any]) -> str:
        """Which index (quarantine unit) a method call will read."""
        if method == "approximate":
            return "kcr" if options.get("strategy", "kcr") == "kcr" else "setr"
        return TREE_OF_METHOD.get(method, "setr")

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
        (accepts ``strategy``), and the two ``parallel-*`` variants.

        If the method's index is quarantined — or an unrecoverable
        storage fault surfaces mid-query — the answer is recomputed by
        the exact index-free fallback and returned flagged
        ``degraded`` instead of raising.
        """
        if method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if self.is_sharded:
            if method not in self.SHARDED_METHODS:
                raise InvalidParameterError(
                    f"method {method!r} is not available on a sharded "
                    f"engine; expected one of {self.SHARDED_METHODS}"
                )
            return self._sharded_answer(question, method, options)
        tree_name = self._method_tree(method, options)
        if tree_name in self._quarantined:
            return self._degraded_answer(question, method, tree_name)
        try:
            return self._dispatch(
                question, method, sample_size, n_threads, options
            )
        except StorageError as exc:
            self._quarantine(tree_name, f"answer:{method}", exc)
            return self._degraded_answer(question, method, tree_name)

    def _sharded_answer(
        self,
        question: WhyNotQuestion,
        method: str,
        options: Dict[str, Any],
    ) -> WhyNotAnswer:
        """Fan one question across the shard set.

        BS and AdvancedBS run over the ``setr`` view; KcR runs the one
        :class:`KcRAlgorithm` driver over the index, one traversal per
        shard.  Storage faults never propagate: the searchers and the
        KcR rounds contain them per shard (exact ``ScanFallback``
        substitution), so the answer is always the bit-exact one —
        flagged ``degraded`` while any shard is down.  The accrued
        fan-out discount (``Σ busy − max busy`` per parallel region) is
        subtracted here, reporting the makespan-simulated elapsed time.
        """
        index = self.sharded_index
        kind = "kcr" if method == "kcr" else "setr"
        index.ensure_built(kind, self.model)
        if method == "basic":
            answer = BasicAlgorithm(index.view("setr"), self.model).answer(
                question
            )
        elif method == "advanced":
            answer = AdvancedAlgorithm(
                index.view("setr"), self.model, **options
            ).answer(question)
        else:
            answer = KcRAlgorithm(index, self.model).answer(question)
        answer.elapsed_seconds = max(
            0.0, answer.elapsed_seconds - index.runtime.consume_discount()
        )
        if index.runtime.down:
            answer.degraded = True
            answer.fault_events = tuple(index.runtime.fault_events)
        return answer

    def _degraded_answer(
        self, question: WhyNotQuestion, method: str, tree_name: str
    ) -> WhyNotAnswer:
        """Exact fallback answer, flagged with the quarantine's faults."""
        answer = self.scan_fallback.answer(question)
        answer.algorithm = f"{method}/{ScanFallback.name}"
        answer.fault_events = tuple(self._quarantined[tree_name])
        return answer

    def _dispatch(
        self,
        question: WhyNotQuestion,
        method: str,
        sample_size: int,
        n_threads: int,
        options: Dict[str, Any],
    ) -> WhyNotAnswer:
        """Route one question to the chosen algorithm (no fault handling)."""
        if method == "basic":
            return BasicAlgorithm(self.setr_tree, self.model).answer(question)
        if method == "advanced":
            return AdvancedAlgorithm(
                self.setr_tree, self.model, **options
            ).answer(question)
        if method == "kcr":
            return KcRAlgorithm(self.kcr_tree, self.model).answer(question)
        if method == "approximate":
            strategy = options.pop("strategy", "kcr")
            tree = self.kcr_tree if strategy == "kcr" else self.setr_tree
            return ApproximateAlgorithm(
                tree, sample_size, strategy=strategy, model=self.model, **options
            ).answer(question)
        if method == "parallel-advanced":
            return ParallelAdvanced(
                self.setr_tree, n_threads, model=self.model, **options
            ).answer(question)
        if method == "parallel-kcr":
            return ParallelKcR(
                self.kcr_tree, n_threads, model=self.model
            ).answer(question)
        if method == "alpha":
            return AlphaRefinementAlgorithm(
                self.setr_tree, self.model, **options
            ).answer(question)
        if method == "location":
            return LocationRefinementAlgorithm(
                self.setr_tree, self.model, **options
            ).answer(question)
        if method == "integrated":
            return IntegratedAlgorithm(
                self.kcr_tree, self.model, **options
            ).answer(question)
        raise InvalidParameterError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
