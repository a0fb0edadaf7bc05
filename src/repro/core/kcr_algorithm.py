"""The KcR-tree bound-and-prune algorithm (**KcRBased**, Section V).

Algorithm 3 evaluates a whole batch of candidate keyword sets in a
single traversal of the KcR-tree.  For every candidate ``S`` it
maintains, per missing object, lower and upper bounds on the number of
dominators (from :mod:`repro.core.bounds`); unfolding a node replaces
that node's contribution with the sum of its children's, monotonically
tightening both rank bounds and therefore both penalty bounds.  A
candidate whose penalty lower bound exceeds the incumbent penalty is
pruned; a candidate whose penalty upper bound improves on the
incumbent becomes the new incumbent.  Children that can no longer
tighten any alive candidate are not enqueued, and the traversal ends
when the queue or the candidate set empties — at which point all
surviving bounds are exact (leaf children are objects with known
documents).

Algorithm 4 drives Algorithm 3 strategically: candidates are batched
by edit distance, batches are visited in ascending distance, and the
whole process stops as soon as the next batch's keyword penalty alone
cannot beat the incumbent — the same early-termination licence the
enumeration order gives AdvancedBS.

One driver serves every index layout.  Algorithm 3's tree side is a
:class:`KcRTraversal`, advanced one node per step; the driver owns the
global candidate bounds and runs in *rounds*: every traversal with
work expands one node, the driver applies the summed integer
contribution deltas, runs one incumbent/prune sweep and broadcasts the
alive flags to the next round.  An unsharded KcR-tree is the one-shard
case — one in-process traversal, one node per round, the paper's
per-node schedule.  A :class:`~repro.index.sharded.ShardedIndex` runs
one traversal per shard behind its ``kcr_init``/``kcr_step`` worker
ops, one :meth:`~repro.index.sharded.ShardedIndex.request_many`
broadcast per round (which books the round's makespan discount).  The
sharded answer is bit-identical to the unsharded one:

* every object lives in exactly one shard and shards share the global
  diagonal, so leaf-level exact sums are the same floats;
* the incumbent's owner is never pruned (its penalty lower bound never
  exceeds its own upper bound, which *is* the incumbent penalty), and
  children are only skipped once exact for every alive candidate — so
  when all traversals exhaust their queues every surviving bound is
  exact, and :func:`sweep_candidates`'s schedule-independent tie-break
  picks the same winner, rank and penalty as the single tree;
* a shard that dies mid-batch is swapped for its exact index-free
  contribution (``exact − cumulative-so-far``, counted by
  :class:`~repro.core.degraded.ScanFallback`), which only *tightens*
  bounds toward the same exact values.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import StorageError, ensure_not_none
from ..index.kcr_tree import KcRTree
from ..index.sharded import Shard, ShardedIndex
from ..model.objects import SpatialObject
from ..model.query import SpatialKeywordQuery, WhyNotQuestion
from ..model.similarity import JACCARD, SimilarityModel
from .bounds import NodeTextStats, max_dom, min_dom
from .candidates import Candidate
from .context import QuestionContext
from .degraded import ScanFallback
from .penalty import PenaltyModel
from .result import RefinedQuery, SearchCounters, WhyNotAnswer

__all__ = ["KcRAlgorithm", "KcRTraversal", "sweep_candidates"]

#: Per-candidate contribution (or delta): ``{s_index: (dmax, dmin)}``
#: with one integer per missing object in each list.
Contribution = Dict[int, Tuple[List[int], List[int]]]

#: One round of a traversal (or of every shard's): the contribution
#: deltas to apply and the number of nodes expanded to produce them.
Round = Tuple[List[Contribution], int]

#: Question and batch tokens: the keys of a shard's KcR worker state.
_TOKENS = itertools.count()


class _CandidateState:
    """Bound-tracking state for one candidate inside Algorithm 3."""

    __slots__ = (
        "candidate",
        "m_tsim",
        "m_score",
        "dmax",
        "dmin",
        "alive",
    )

    def __init__(self, candidate: Candidate, n_missing: int) -> None:
        self.candidate = candidate
        self.m_tsim: List[float] = [0.0] * n_missing  # TSim(m_i, S)
        self.m_score: List[float] = [0.0] * n_missing  # ST(m_i, q_S)
        self.dmax: List[int] = [0] * n_missing  # running Σ MaxDom
        self.dmin: List[int] = [0] * n_missing  # running Σ MinDom
        self.alive = True

    def rank_upper(self) -> int:
        """Upper bound on ``R(M, q_S)`` = max over missing objects."""
        return max(self.dmax) + 1

    def rank_lower(self) -> int:
        """Lower bound on ``R(M, q_S)``.

        The paper aggregates MinDom with a ``min`` over the missing
        objects; since ``R(M, ·)`` is a max of per-object ranks, the
        max of per-object lower bounds is also valid and tighter, so we
        use it (noted in DESIGN.md).
        """
        return max(self.dmin) + 1


class KcRAlgorithm:
    """KcRBased: Algorithms 3 + 4 over a KcR-tree or a sharded index."""

    name = "KcRBased"

    def __init__(
        self,
        tree: Union[KcRTree, ShardedIndex],
        model: SimilarityModel = JACCARD,
        *,
        vectorize: Optional[bool] = None,
    ) -> None:
        if model.name != "jaccard":
            raise ValueError(
                "the KcR-tree bounds (Theorems 2-3) are Jaccard-specific; "
                f"got model {model.name!r}"
            )
        from .vectorized import vectorize_enabled

        self.index = tree if isinstance(tree, ShardedIndex) else None
        # The question context and the I/O ledger read a sharded index
        # through its summed KcR view.
        self.tree: Any = tree
        if self.index is not None:
            self.tree = self.index.view("kcr")
        self.model = model
        self.vectorize = vectorize_enabled(vectorize)
        # NodeTextStats is O(|kcm| log |kcm|) to build; cache per aux
        # record for the lifetime of the algorithm instance (shards keep
        # theirs under this instance's token).  Purely an in-memory
        # artefact: the underlying kcm fetch that feeds it is still
        # I/O-accounted on every traversal.
        self._stats_cache: Dict[int, NodeTextStats] = {}
        self.token = next(_TOKENS)

    # ------------------------------------------------------------------
    # Algorithm 4: the strategic driver
    # ------------------------------------------------------------------
    def answer(self, question: WhyNotQuestion) -> WhyNotAnswer:
        """Return the best refined query for ``question``."""
        started = time.perf_counter()
        io_before = self.tree.stats.snapshot()
        context = QuestionContext.prepare(question, self.tree, self.model)
        counters = SearchCounters()
        penalty_model = context.penalty_model

        best = context.basic_refined()
        for distance in range(1, context.enumerator.edit_universe + 1):
            if penalty_model.keyword_penalty(distance) >= best.penalty:
                break
            batch = context.enumerator.at_distance(distance)
            counters.candidates_enumerated += len(batch)
            if batch:
                best = self._bound_and_prune(context, batch, best, counters)

        return WhyNotAnswer(
            refined=best,
            initial_rank=context.initial_rank,
            algorithm=self.name,
            elapsed_seconds=time.perf_counter() - started,
            io=self.tree.stats.snapshot() - io_before,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Algorithm 3: the round driver over a batch
    # ------------------------------------------------------------------
    def _bound_and_prune(
        self,
        context: QuestionContext,
        batch: Sequence[Candidate],
        best: RefinedQuery,
        counters: SearchCounters,
    ) -> RefinedQuery:
        """Evaluate ``batch`` with Algorithm 3, one sweep per round."""
        penalty_model = context.penalty_model
        states = [_CandidateState(c, len(context.missing)) for c in batch]
        counters.candidates_evaluated += len(states)
        rounds: Union[KcRTraversal, _ShardRounds]
        if self.index is None:
            rounds = KcRTraversal(
                self.tree,
                self.model,
                context.query,
                context.missing,
                batch,
                stats_cache=self._stats_cache,
                vectorize=self.vectorize,
            )
        else:
            rounds = _ShardRounds(self, context, batch)

        # Root bounds (lines 2-6), then one node per traversal per
        # round (lines 14-30), each round ending in one sweep.
        try:
            contributions, _ = rounds.start()
            for deltas in contributions:
                _apply(states, deltas)
            best, best_owner = sweep_candidates(
                states, penalty_model, best, None, counters
            )
            while rounds.has_more() and any(state.alive for state in states):
                contributions, expanded = rounds.step(
                    tuple(state.alive for state in states)
                )
                counters.nodes_expanded += expanded
                if not contributions:
                    continue  # no traversal had a node left to expand
                for deltas in contributions:
                    _apply(states, deltas)
                best, best_owner = sweep_candidates(
                    states, penalty_model, best, best_owner, counters
                )
        finally:
            rounds.close()
        return best


def _apply(states: Sequence[_CandidateState], deltas: Contribution) -> None:
    for s_index, (delta_max, delta_min) in deltas.items():
        state = states[s_index]
        for i in range(len(delta_max)):
            state.dmax[i] += delta_max[i]
            state.dmin[i] += delta_min[i]


class KcRTraversal:
    """Algorithm 3's tree side over one KcR-tree, one node per round.

    :meth:`start` does the root initialisation (lines 2-6) and each
    :meth:`step` expands one node (lines 14-19); both return a
    :data:`Round`.  The driver owns the global candidate bounds; this
    side only reports contribution deltas and honours the broadcast
    ``alive`` flags.  It lives where the tree lives: in-process for an
    unsharded tree or a ``simulate`` shard, inside the forked worker for
    a ``process`` shard.

    ``stats_cache`` is the caller's NodeTextStats memo, kept for one
    question across its batches.
    """

    def __init__(
        self,
        tree: KcRTree,
        model: SimilarityModel,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        batch: Sequence[Candidate],
        *,
        stats_cache: Dict[int, NodeTextStats],
        vectorize: bool,
    ) -> None:
        self.tree = tree
        self.query = query
        self.alpha = query.alpha
        self.beta = 1.0 - query.alpha
        self.stats_cache = stats_cache
        self.vectorize = vectorize
        self.m_sdist = [
            tree.dataset.normalized_distance(m.loc, query.loc) for m in missing
        ]
        m_spatial = [self.alpha * (1.0 - d) for d in self.m_sdist]
        self.states = [_CandidateState(c, len(missing)) for c in batch]
        for state in self.states:
            for i, m in enumerate(missing):
                tsim = model.similarity(m.doc, state.candidate.keywords)
                state.m_tsim[i] = tsim
                state.m_score[i] = m_spatial[i] + self.beta * tsim
        self.queue: Deque[Tuple[int, Contribution]] = deque()
        # The last branch's (child id, per-candidate bounds), enqueued
        # on the next step once the round's sweep has set the flags.
        self._children: List[Tuple[int, Contribution]] = []

    def start(self) -> Round:
        """The root-level initial bounds, as a delta against zero."""
        tree = self.tree
        root_stats = self._node_stats(tree.root_summary_record)
        root_rect = ensure_not_none(tree.root_rect, "tree has no root MBR")
        root_geo = self._geo_offsets(root_rect)
        initial: Contribution = {
            s_index: self._node_bounds(root_stats, *root_geo, state)
            for s_index, state in enumerate(self.states)
        }
        self.queue.append((tree.root_id, initial))
        return [initial], 0

    def has_more(self) -> bool:
        return bool(self.queue or self._children)

    def close(self) -> None:
        """Nothing to release: the traversal lives with its caller."""

    def step(self, alive: Sequence[bool]) -> Round:
        """Expand one node; return the contribution deltas it caused.

        First enqueues the previous branch's children that can still
        tighten a candidate alive after the round's sweep (lines
        29-30), then replaces the next node's contribution with its
        children's sums.  Empty when no node was left to expand.
        """
        states = self.states
        for state, flag in zip(states, alive):
            state.alive = flag
        for child_id, per_candidate in self._children:
            # Skip children whose bounds are already exact for every
            # alive candidate.
            if any(
                state.alive
                and per_candidate[s_index][0] != per_candidate[s_index][1]
                for s_index, state in enumerate(states)
            ):
                self.queue.append((child_id, per_candidate))
        self._children = []
        if not self.queue:
            return [], 0

        node_id, node_contrib = self.queue.popleft()
        node = self.tree.fetch_node(node_id)
        if node.is_leaf:
            child_sums = self._leaf_exact_sums(node)
        else:
            child_sums, self._children = self._branch_child_bounds(node)
        deltas: Contribution = {}
        for s_index, state in enumerate(states):
            if not state.alive:
                continue
            old_max, old_min = node_contrib[s_index]
            new_max, new_min = child_sums[s_index]
            deltas[s_index] = (
                [new - old for new, old in zip(new_max, old_max)],
                [new - old for new, old in zip(new_min, old_min)],
            )
        return [deltas], 1

    # ------------------------------------------------------------------
    # node helpers
    # ------------------------------------------------------------------
    def _node_stats(self, aux_record: int) -> NodeTextStats:
        stats = self.stats_cache.get(aux_record)
        if stats is None:
            cnt, kcm = self.tree.fetch_kcm(aux_record)
            stats = NodeTextStats(cnt, kcm)
            self.stats_cache[aux_record] = stats
        else:
            # Still charge the fetch so I/O accounting matches a real
            # traversal; the buffer pool decides hit or miss.
            self.tree.fetch_kcm(aux_record)
        return stats

    def _geo_offsets(self, rect) -> Tuple[List[float], List[float]]:
        """Geometric halves of the Theorem-2 thresholds for one node.

        ``L_i = geo_lower[i] + TSim(m_i, S)`` and likewise for ``U_i``;
        computing the rectangle distances once per node (instead of
        once per node × candidate × missing object) is the dominant
        saving for large candidate batches.
        """
        diagonal = self.tree.dataset.diagonal
        min_d = min(1.0, rect.min_dist(self.query.loc) / diagonal)
        max_d = min(1.0, rect.max_dist(self.query.loc) / diagonal)
        ratio = self.alpha / (1.0 - self.alpha)
        geo_lower = [ratio * (min_d - sdist) for sdist in self.m_sdist]
        geo_upper = [ratio * (max_d - sdist) for sdist in self.m_sdist]
        return geo_lower, geo_upper

    def _node_bounds(
        self,
        stats: NodeTextStats,
        geo_lower: Sequence[float],
        geo_upper: Sequence[float],
        state: _CandidateState,
    ) -> Tuple[List[int], List[int]]:
        """(MaxDom, MinDom) per missing object for one node/candidate.

        Results are memoised per distinct threshold within the call:
        missing objects frequently share ``TSim(m_i, S)`` and therefore
        thresholds, and MinDom is skipped outright when MaxDom is
        already zero (``0 <= dmin <= dmax``).
        """
        keywords = state.candidate.keywords
        dmax: List[int] = []
        dmin: List[int] = []
        max_cache: Dict[float, int] = {}
        min_cache: Dict[float, int] = {}
        for i in range(len(geo_lower)):
            lower = geo_lower[i] + state.m_tsim[i]
            upper = geo_upper[i] + state.m_tsim[i]
            d_hi = max_cache.get(lower)
            if d_hi is None:
                d_hi = max_dom(stats, keywords, lower)
                max_cache[lower] = d_hi
            if d_hi == 0:
                d_lo = 0
            else:
                d_lo = min_cache.get(upper)
                if d_lo is None:
                    d_lo = min_dom(stats, keywords, upper)
                    min_cache[upper] = d_lo
            dmax.append(d_hi)
            dmin.append(d_lo)
        return dmax, dmin

    def _branch_child_bounds(
        self, node
    ) -> Tuple[Contribution, List[Tuple[int, Contribution]]]:
        """Bounds for every child of a branch node, per candidate.

        Returns ``(child_sums, child_infos)`` where ``child_sums`` maps
        candidate index to summed (dmax, dmin) vectors and
        ``child_infos`` pairs each child id with its per-candidate
        bounds for contribution bookkeeping.
        """
        n_missing = len(self.m_sdist)
        child_infos = []
        child_sums: Contribution = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(self.states))
        }
        for entry in node.child_entries:
            stats = self._node_stats(entry.aux_record)
            geo_lower, geo_upper = self._geo_offsets(entry.rect)
            per_candidate: Contribution = {}
            for s_index, state in enumerate(self.states):
                if not state.alive:
                    per_candidate[s_index] = (
                        [0] * n_missing,
                        [0] * n_missing,
                    )
                    continue
                dmax, dmin = self._node_bounds(stats, geo_lower, geo_upper, state)
                per_candidate[s_index] = (dmax, dmin)
                sums = child_sums[s_index]
                for i in range(n_missing):
                    sums[0][i] += dmax[i]
                    sums[1][i] += dmin[i]
            child_infos.append((entry.child_id, per_candidate))
        return child_sums, child_infos

    def _leaf_exact_sums(self, node) -> Contribution:
        """Exact dominator counts for the objects of a leaf node.

        Vectorised over the leaf's objects with a term-incidence
        matrix: one boolean column per keyword occurring in the leaf,
        so each candidate's Jaccard similarities for the whole leaf
        reduce to a column-slice sum.  When the leaf carries a healthy
        packed columnar block (:mod:`repro.core.vectorized`) and
        vectorization is on, the intersections come from bitmask
        popcounts instead — exact small integers in float64 either way,
        so the resulting scores are bit-identical — and the spatial
        scores and document lengths come from the block's columns too.
        The leaf's doc pages are read once per run of slots
        (:meth:`~repro.index.rtree.RTreeBase.fetch_docs`) on both paths,
        so the accounted I/O is the same.
        """
        tree = self.tree
        query, alpha, beta = self.query, self.alpha, self.beta
        states = self.states
        n_missing = len(self.m_sdist)
        entries = node.object_entries
        docs = tree.fetch_docs(entries)  # read on both paths: same I/O
        packed = tree.packed_leaf(node) if self.vectorize else None
        if packed is not None and len(packed) != len(entries):
            packed = None
        if packed is not None:
            from .vectorized import batch_distances, batch_intersections

            doc_lengths = packed.doc_lens
            spatial = alpha * (
                1.0 - batch_distances(packed.xs, packed.ys, query.loc, tree.dataset)
            )
        else:
            term_index: Dict[int, int] = {}
            for doc in docs:
                for term in doc:
                    if term not in term_index:
                        term_index[term] = len(term_index)
            incidence = np.zeros(
                (len(entries), max(1, len(term_index))), dtype=np.float64
            )
            for row, doc in enumerate(docs):
                for term in doc:
                    incidence[row, term_index[term]] = 1.0
            doc_lengths = np.array([len(doc) for doc in docs], dtype=np.float64)
            distance = tree.dataset.normalized_distance
            spatial = np.array(
                [alpha * (1.0 - distance(e.loc, query.loc)) for e in entries],
                dtype=np.float64,
            )

        sums: Contribution = {
            s_index: ([0] * n_missing, [0] * n_missing)
            for s_index in range(len(states))
        }
        for s_index, state in enumerate(states):
            if not state.alive:
                continue
            keywords = state.candidate.keywords
            if packed is not None:
                # Popcount over the packed bitmask block: exact small
                # integers in float64, identical to the column sums.
                inter = batch_intersections(
                    packed.masks, tree.vocab.encode(keywords)
                )
            else:
                columns = [term_index[t] for t in keywords if t in term_index]
                if columns:
                    inter = incidence[:, columns].sum(axis=1)
                else:
                    inter = np.zeros(len(entries))
            union = doc_lengths + float(len(keywords)) - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                tsim = np.where(union > 0.0, inter / union, 0.0)
            scores = spatial + beta * tsim
            dmax, dmin = sums[s_index]
            for i in range(n_missing):
                count = int(np.count_nonzero(scores > state.m_score[i]))
                dmax[i] += count
                dmin[i] += count
        return sums


class _ShardRounds:
    """The sharded round source: one :class:`KcRTraversal` per shard,
    one :meth:`~repro.index.sharded.ShardedIndex.request_many` per
    round.

    The shards key this batch's traversals by a fresh batch token and
    its NodeTextStats memos by the algorithm's question token, so
    concurrent questions over one index never share worker state.  A
    shard that is down, or fails mid-batch, is quarantined and its
    traversal replaced by its exact index-free counts.
    """

    def __init__(
        self,
        algorithm: "KcRAlgorithm",
        context: QuestionContext,
        batch: Sequence[Candidate],
    ) -> None:
        self.index = ensure_not_none(algorithm.index, "no sharded index")
        self.model = algorithm.model
        self.vectorize = algorithm.vectorize
        self.question = algorithm.token
        self.token = next(_TOKENS)
        self.query = context.query
        self.missing = context.missing
        self.batch = tuple(batch)
        self.shards = [shard for shard in self.index.shards if not shard.is_empty]
        self.cumulative: Dict[int, Contribution] = {}
        self.pending: Dict[int, bool] = {}

    def start(self) -> Round:
        live: List[Shard] = []
        swapped: List[Contribution] = []
        for shard in self.shards:
            if (shard.tid, "kcr") in self.index.runtime.down:
                swapped.append(self._swap_in_exact(shard))
            else:
                live.append(shard)
        init = (
            "kcr_init",
            self.token,
            self.question,
            self.query,
            self.missing,
            self.batch,
            self.model,
            self.vectorize,
        )
        contributions, _ = self._round(live, init)
        return swapped + contributions, 0

    def has_more(self) -> bool:
        return any(self.pending.values())

    def step(self, alive: Sequence[bool]) -> Round:
        stepping = [shard for shard in self.shards if self.pending[shard.tid]]
        return self._round(stepping, ("kcr_step", self.token, alive))

    def close(self) -> None:
        """Drop the traversals still held by shards (the batch ended
        with every candidate decided)."""
        stopped = [shard for shard in self.shards if self.pending.get(shard.tid)]
        self.index.request_many(
            [(shard, ("kcr_end", self.token)) for shard in stopped]
        )
        self.pending.clear()

    def _round(self, shards: Sequence[Shard], message: Tuple) -> Round:
        """One broadcast: every shard's round, summed."""
        replies = self.index.request_many(
            [(shard, message) for shard in shards]
        )
        contributions: List[Contribution] = []
        expanded = 0
        for shard, reply in zip(shards, replies):
            if isinstance(reply, StorageError):
                self.index.mark_down(shard, "kcr", message[0], reply)
                contributions.append(self._swap_in_exact(shard))
                continue
            ((shard_deltas, shard_expanded), more), _busy = reply
            self.pending[shard.tid] = more
            expanded += shard_expanded
            total = self.cumulative.setdefault(shard.tid, {})
            for deltas in shard_deltas:
                for s_index, (delta_max, delta_min) in deltas.items():
                    n_missing = len(delta_max)
                    pair = total.setdefault(
                        s_index, ([0] * n_missing, [0] * n_missing)
                    )
                    for i in range(n_missing):
                        pair[0][i] += delta_max[i]
                        pair[1][i] += delta_min[i]
                contributions.append(deltas)
        return contributions, expanded

    def _swap_in_exact(self, shard: Shard) -> Contribution:
        """Replace a shard's bound contribution with its exact counts.

        ``delta = exact − cumulative`` keeps the driver's running sums
        consistent whether the shard failed before contributing, mid
        batch, or was down from the start.
        """
        exact = ScanFallback(shard.dataset, self.model).dominator_counts(
            self.query, self.missing, [c.keywords for c in self.batch]
        )
        previous = self.cumulative.get(shard.tid, {})
        deltas: Contribution = {}
        for s_index, counts in enumerate(exact):
            zeros = [0] * len(counts)
            prev_max, prev_min = previous.get(s_index, (zeros, zeros))
            deltas[s_index] = (
                [count - p for count, p in zip(counts, prev_max)],
                [count - p for count, p in zip(counts, prev_min)],
            )
        self.pending[shard.tid] = False
        return deltas


def sweep_candidates(
    states: Sequence[_CandidateState],
    penalty_model: PenaltyModel,
    best: RefinedQuery,
    best_owner: Optional[_CandidateState],
    counters: SearchCounters,
) -> Tuple[RefinedQuery, Optional[_CandidateState]]:
    """Lines 20-26: update the incumbent and prune candidates.

    Run once per round by the driver above.  A sharded round expands
    one node per shard, so its bound trajectory differs from the
    single tree's one node per round — the sweep must therefore be
    *schedule-independent* so every shard count reports the identical
    incumbent.

    The incumbent snapshot is refreshed not only when another
    candidate strictly improves the penalty, but also when the
    snapshot's *own* rank bound tightens at an unchanged penalty —
    the penalty is flat for ranks at or below ``k₀``, and without
    the refresh the reported rank/k' would freeze at the first
    (loose) bound instead of converging to the exact value.

    **Equal-penalty tie-break.**  When a candidate's penalty upper
    bound *ties* the incumbent and the incumbent's owner sits later in
    the same batch, ownership moves to the earlier candidate.  Penalty
    upper bounds only tighten, so the final owner is always the
    lowest-batch-index candidate among those reaching the minimal
    penalty — a property of the batch alone, not of the order in which
    tree nodes refined the bounds.  (An owner from an earlier distance
    batch is not in ``states`` and keeps the tie, matching AdvancedBS's
    first-in-enumeration-order rule.)  Pruning is unaffected: it
    compares against ``best.penalty``, which a tie cannot change.
    """
    owner_index: Optional[int] = None
    if best_owner is not None:
        for s_index, state in enumerate(states):
            if state is best_owner:
                owner_index = s_index
                break
    for s_index, state in enumerate(states):
        if not state.alive:
            continue
        rank_upper = state.rank_upper()
        pn_upper = penalty_model.penalty(state.candidate.delta_doc, rank_upper)
        improves = pn_upper < best.penalty
        displaces = (
            pn_upper == best.penalty  # bit-equal tie, not approx compare
            and owner_index is not None
            and s_index < owner_index
        )
        owner_refresh = state is best_owner and rank_upper != best.rank
        if improves or displaces or owner_refresh:
            best = RefinedQuery(
                keywords=state.candidate.keywords,
                k=penalty_model.refined_k(rank_upper),
                delta_doc=state.candidate.delta_doc,
                rank=rank_upper,
                penalty=pn_upper,
            )
            best_owner = state
            owner_index = s_index
    for state in states:
        if not state.alive:
            continue
        pn_lower = penalty_model.penalty(
            state.candidate.delta_doc, state.rank_lower()
        )
        if pn_lower > best.penalty:
            state.alive = False
            counters.pruned_by_bounds += 1
    return best, best_owner
