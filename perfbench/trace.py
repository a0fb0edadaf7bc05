"""Span recorder for the traced run.

The recorder lives outside the program: :func:`instrument` replaces the
public functions of each layer *on the binding their callers use* with
timing wrappers, and restores the originals on exit.  Nothing under
``src/`` knows it is being traced.

Two kinds of wrapper exist:

* **Span** wrappers record one span per call — ``(id, name, start, end,
  parent, request, hot_child_seconds)`` — kept in memory and written out
  when the benchmark ends.  They wrap calls made at most a few hundred
  times per request (engine entry points, rank searches, shard fan-out,
  R-tree writes).
* **Hot** wrappers wrap functions called tens of thousands of times per
  request (MaxDom/MinDom, buffer fetches, leaf scoring).  Storing each
  call would cost more memory than the program itself, so a hot call
  only adds its duration to a per-name aggregate and to the enclosing
  span's ``hot_child_seconds``.  Self time stays exact: a span's self
  time is its duration minus the union of its recorded child spans minus
  the hot time spent directly under it.

Spans carry the id of the request that caused them.  Worker threads of
the server do not inherit context variables from ``run_in_executor``,
so the request id is bound per thread by the wrapper around the
server's executor entry point, from the request object it receives.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "SpanRecord",
    "self_times",
    "instrument",
    "layer_of",
]

#: (span id, name, start, end, parent span id or 0, request id, hot seconds)
SpanRecord = Tuple[int, str, float, float, int, Any, float]


class _Frame:
    __slots__ = ("sid", "hot")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.hot = 0.0


class Tracer:
    """Collects spans, hot-call aggregates and counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds]
        self.hot: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Attribute spans opened on this thread to ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrappers --------------------------------------------------------
    def span(
        self,
        fn: Callable[..., Any],
        name: Any,
        hook: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or ``callable(args, kwargs) -> str``;
        ``hook(tracer, args, kwargs, result)`` runs after a successful
        call to record counters derived from the arguments or result.
        """
        tracer = self
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack()
            parent = stack[-1].sid if stack else 0
            frame = _Frame(next(tracer._ids))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = (
                    frame.sid,
                    label,
                    start,
                    end,
                    parent,
                    getattr(tracer._local, "request", None),
                    frame.hot,
                )
                with tracer._lock:
                    tracer.spans.append(record)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def hot_span(
        self,
        fn: Callable[..., Any],
        name: str,
        hook: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap a high-frequency ``fn``: aggregate, do not store spans."""
        tracer = self
        clock = self.clock
        with self._lock:
            totals = self.hot.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = _Frame(0)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1].hot += elapsed
                with tracer._lock:
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - frame.hot
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write spans, hot aggregates and counters as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, request, hot in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "hot_child_s": hot,
                        }
                    )
                    + "\n"
                )
            for name, (calls, total, self_s) in sorted(self.hot.items()):
                handle.write(
                    json.dumps(
                        {"hot": name, "calls": calls, "total_s": total, "self_s": self_s}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": self.counters}) + "\n")


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Self time of each span: its duration minus the time covered by
    its recorded children (their interval union, so overlapping
    children on other threads are not subtracted twice) minus the hot
    time spent directly under it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for sid, _, start, end, _, _, hot in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, cursor, start)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = max(0.0, (end - start) - covered - hot)
    return result


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


# ----------------------------------------------------------------------
# instrumentation of the program's layers
# ----------------------------------------------------------------------

def _tree_kind(args: tuple, _kwargs: dict) -> str:
    return type(args[0]).__name__.lower().replace("tree", "")


def _answer_name(args: tuple, kwargs: dict) -> str:
    method = args[2] if len(args) > 2 else kwargs.get("method", "kcr")
    return f"engine.answer.{method}"


def _rank_hook(tracer: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    if result.aborted:
        tracer.count("search.aborted")


def _leaf_hook(tracer: Tracer, args: tuple, _kwargs: dict, _result: Any) -> None:
    tracer.count("vectorized.objects_scored", len(args[0]))


def _patch(
    stack: contextlib.ExitStack, owner: Any, attr: str, wrapper: Callable[..., Any]
) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, wrapper)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer, server: Any = None) -> Iterator[Tracer]:
    """Wrap every traced layer entry point for the duration of the block.

    ``server`` (a ``WhyNotServer``) additionally gets its executor entry
    point wrapped, binding the request id on the worker thread.
    """
    from repro.core import kcr_algorithm, vectorized
    from repro.core.advanced import AdvancedAlgorithm
    from repro.core.context import QuestionContext
    from repro.core.degraded import ScanFallback
    from repro.core.dominator_cache import DominatorCache
    from repro.core.engine import WhyNotEngine
    from repro.index.rtree import RTreeBase
    from repro.index.search import TopKSearcher
    from repro.index.sharded import ShardedIndex, ShardedSearcher
    from repro.storage.buffer_pool import BufferPool

    with contextlib.ExitStack() as stack:
        span, hot = tracer.span, tracer.hot_span
        for attr, name in (
            ("answer", _answer_name),
            ("run_top_k", "engine.run_top_k"),
            ("insert", "engine.insert"),
            ("remove", "engine.remove"),
            ("update_keywords", "engine.update_keywords"),
        ):
            _patch(stack, WhyNotEngine, attr, span(getattr(WhyNotEngine, attr), name))
        # The algorithms' own bodies: what engine spans hold beyond dispatch.
        _patch(stack, AdvancedAlgorithm, "answer", span(AdvancedAlgorithm.answer, "advanced.answer"))
        _patch(
            stack,
            kcr_algorithm.KcRAlgorithm,
            "answer",
            span(kcr_algorithm.KcRAlgorithm.answer, "kcr.answer"),
        )
        prepare = QuestionContext.__dict__["prepare"].__func__
        _patch(
            stack,
            QuestionContext,
            "prepare",
            classmethod(span(prepare, "context.prepare")),
        )
        _patch(
            stack,
            TopKSearcher,
            "rank_of_missing",
            span(TopKSearcher.rank_of_missing, "search.rank_of_missing", _rank_hook),
        )
        _patch(stack, TopKSearcher, "top_k", span(TopKSearcher.top_k, "search.top_k"))
        # search.py imports leaf_scores from the module at call time.
        _patch(
            stack,
            vectorized,
            "leaf_scores",
            hot(vectorized.leaf_scores, "vectorized.leaf_scores", _leaf_hook),
        )
        _patch(
            stack,
            DominatorCache,
            "count_dominating",
            hot(DominatorCache.count_dominating, "dominator_cache.count_dominating"),
        )
        # kcr_algorithm binds max_dom/min_dom/sweep_candidates by name.
        for attr, name in (
            ("max_dom", "bounds.max_dom"),
            ("min_dom", "bounds.min_dom"),
            ("sweep_candidates", "kcr.sweep_candidates"),
        ):
            _patch(stack, kcr_algorithm, attr, hot(getattr(kcr_algorithm, attr), name))
        _patch(stack, BufferPool, "fetch", hot(BufferPool.fetch, "buffer.fetch"))
        _patch(
            stack,
            RTreeBase,
            "insert",
            span(RTreeBase.insert, lambda a, k: f"rtree.insert.{_tree_kind(a, k)}"),
        )
        _patch(
            stack,
            RTreeBase,
            "delete",
            span(RTreeBase.delete, lambda a, k: f"rtree.delete.{_tree_kind(a, k)}"),
        )
        _patch(
            stack,
            ShardedIndex,
            "request_many",
            span(ShardedIndex.request_many, "sharded.request_many"),
        )
        _patch(stack, ShardedSearcher, "top_k", span(ShardedSearcher.top_k, "sharded.top_k"))
        _patch(
            stack,
            ShardedSearcher,
            "rank_of_missing",
            span(ShardedSearcher.rank_of_missing, "sharded.rank_of_missing"),
        )
        for attr in ("top_k", "rank_of_missing", "answer"):
            _patch(
                stack,
                ScanFallback,
                attr,
                span(getattr(ScanFallback, attr), f"fallback.{attr}"),
            )
        if server is not None:
            execute = server._execute

            def bound_execute(request: Any, cache: Any) -> Any:
                with tracer.request(request.seq):
                    return traced_execute(request, cache)

            traced_execute = span(execute, "serve.execute")
            server._execute = bound_execute
            stack.callback(delattr, server, "_execute")
        yield tracer
