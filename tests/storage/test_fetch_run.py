"""Run-batched doc fetches book I/O exactly as per-slot fetches do.

:func:`repro.storage.packing.fetch_slots` reads each page once per run
of consecutive slots on it (:meth:`BufferPool.fetch_run`).  The per-slot
:func:`fetch_slot` loop is the reference: on random leaf-shaped slot
sequences — interleaved pages, pools smaller than one page's span, with
and without seeded fault injectors — both must return the same docs,
leave every counter, the LRU order and the injector's read stream
identical, and raise the same exception after the same fetches.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BufferPool, Pager, SetRTree, make_euro_like
from repro.analysis import check_buffer_pool
from repro.errors import IndexStructureError, StorageError
from repro.storage.faults import MIXED, TRANSIENT_ONLY, FaultInjector
from repro.storage.packing import SlotRef, fetch_slot, fetch_slots

PAGE = 4096


class LoggingInjector(FaultInjector):
    """A fault injector that records every read it is asked about."""

    def __init__(self, schedule, seed):
        super().__init__(schedule, seed)
        self.reads = []

    def on_read(self, record_id):
        self.reads.append(record_id)
        return super().on_read(record_id)


SCHEDULES = {
    "none": None,
    "transient": TRANSIENT_ONLY,
    "transient-x10": TRANSIENT_ONLY.scaled(10),
    "mixed": MIXED,
    "mixed-x200": MIXED.scaled(200),
}


@st.composite
def worlds(draw):
    """Pages of keyword-set slots, a pool size, and leaves of slot refs."""
    pages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),  # span in pages
                st.integers(min_value=1, max_value=6),  # slots on the page
            ),
            min_size=1,
            max_size=5,
        )
    )
    capacity_pages = draw(st.integers(min_value=0, max_value=5))
    leaves = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        refs = []
        # A leaf is a few runs; a page may recur after another page.
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            page = draw(st.integers(min_value=0, max_value=len(pages) - 1))
            slots = draw(
                st.lists(
                    st.integers(min_value=0, max_value=pages[page][1] - 1),
                    min_size=1,
                    max_size=5,
                )
            )
            refs.extend((page, slot) for slot in slots)
        leaves.append(refs)
    schedule = draw(st.sampled_from(sorted(SCHEDULES)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return pages, capacity_pages, leaves, schedule, seed


def _build(pages, capacity_pages, schedule, seed):
    pool = BufferPool(Pager(page_size=PAGE), capacity_bytes=capacity_pages * PAGE)
    records = []
    for index, (span, n_slots) in enumerate(pages):
        slots = tuple(frozenset({index, 100 + slot}) for slot in range(n_slots))
        records.append(pool.allocate(slots, span * PAGE))
    injector = None
    if SCHEDULES[schedule] is not None:
        # Attached after the writes so both twins start from one state.
        injector = LoggingInjector(SCHEDULES[schedule], seed)
        pool.pager.faults = injector
    return pool, records, injector


def _run(world, batched):
    pages, capacity_pages, leaves, schedule, seed = world
    pool, records, injector = _build(pages, capacity_pages, schedule, seed)
    docs, error = [], None
    try:
        for leaf in leaves:
            refs = [SlotRef(record=records[page], slot=slot) for page, slot in leaf]
            if batched:
                docs.append(fetch_slots(pool, refs))
            else:
                docs.append([fetch_slot(pool, ref) for ref in refs])
    except StorageError as exc:
        error = (type(exc), str(exc))
    assert not check_buffer_pool(pool).violations
    ledger = None
    if injector is not None:
        ledger = (injector.reads, injector.summary())
    return {
        "docs": docs,
        "error": error,
        "stats": dataclasses.asdict(pool.stats),
        "counts": (pool.fetch_count, pool.hit_count, pool.miss_count),
        "lru": list(pool.cached_records().items()),
        "ledger": ledger,
    }


@given(worlds())
@settings(max_examples=300, deadline=None)
def test_fetch_slots_matches_per_slot_loop(world):
    assert _run(world, batched=True) == _run(world, batched=False)


def test_schedules_fire():
    """The harsher schedules do raise and retry on these sequences, so
    the property above compares real fault paths, not only clean runs."""
    leaf = [(i // 10 % 3, i % 6) for i in range(60)]  # runs of ten slots
    world = ([(1, 6), (2, 6), (1, 6)], 2, [leaf] * 6)
    errors = transients = 0
    for seed in range(40):
        outcome = _run((*world, "mixed-x200", seed), batched=True)
        errors += outcome["error"] is not None
        transients += outcome["stats"]["read_retries"] > 0
    assert errors and transients


class TestFetchRun:
    def test_books_hits_without_refetching(self):
        pool = BufferPool(Pager(page_size=PAGE), capacity_bytes=2 * PAGE)
        record = pool.allocate(("a", "b"), PAGE)
        assert pool.fetch_run(record, 5) == ("a", "b")
        assert (pool.fetch_count, pool.hit_count, pool.miss_count) == (5, 4, 1)
        assert (pool.stats.page_reads, pool.stats.buffer_hits) == (1, 4)

    def test_uncacheable_record_misses_every_time(self):
        pool = BufferPool(Pager(page_size=PAGE), capacity_bytes=PAGE)
        record = pool.allocate(("a",), 2 * PAGE)
        pool.fetch_run(record, 3)
        assert (pool.fetch_count, pool.hit_count, pool.miss_count) == (3, 0, 3)
        assert pool.stats.page_reads == 6

    def test_rejects_empty_run(self):
        pool = BufferPool(Pager(page_size=PAGE))
        record = pool.allocate(("a",), PAGE)
        with pytest.raises(StorageError, match="positive"):
            pool.fetch_run(record, 0)

    def test_malformed_slot_raises_the_per_slot_error(self):
        pool = BufferPool(Pager(page_size=PAGE))
        record = pool.allocate(("a", "b"), PAGE)
        refs = [SlotRef(record, 0), SlotRef(record, 7)]
        with pytest.raises(StorageError) as batched:
            fetch_slots(pool, refs)
        with pytest.raises(StorageError) as looped:
            [fetch_slot(pool, ref) for ref in refs]
        assert str(batched.value) == str(looped.value)


class TestTreeFetchDocs:
    def test_leaf_docs_and_io_match_per_slot_loop(self):
        dataset, _ = make_euro_like(600, seed=3)
        # Twin trees with twin injectors: both replay one fault stream.
        batched, looped = (
            SetRTree(
                dataset,
                capacity=16,
                faults=FaultInjector(TRANSIENT_ONLY.scaled(5), seed=5),
            )
            for _ in range(2)
        )
        for tree in (batched, looped):
            tree.resize_buffer(4)
        stack = [batched.root_id]
        leaves = 0
        while stack:
            node = batched.fetch_node(stack.pop())
            looped.fetch_node(node.node_id)
            if not node.is_leaf:
                stack.extend(entry.child_id for entry in node.child_entries)
                continue
            entries = node.object_entries
            want = [fetch_slot(looped.buffer, e.doc_record) for e in entries]
            assert batched.fetch_docs(entries) == want
            assert want == [dataset.get(e.oid).doc for e in entries]
            leaves += 1
        assert leaves > 1
        assert batched.stats == looped.stats
        assert batched.buffer.cached_records() == looped.buffer.cached_records()
        assert (batched.buffer.fetch_count, batched.buffer.hit_count) == (
            looped.buffer.fetch_count,
            looped.buffer.hit_count,
        )

    def test_non_keyword_set_slot_is_a_structure_error(self):
        dataset, _ = make_euro_like(200, seed=3)
        tree = SetRTree(dataset, capacity=16)
        entry = next(
            node.object_entries[0]
            for node in (tree.fetch_node(i) for i in _node_ids(tree))
            if node.is_leaf
        )
        page = tree.buffer.peek(entry.doc_record.record)
        tree.buffer.update(
            entry.doc_record.record,
            page[: entry.doc_record.slot] + ("junk",) + page[entry.doc_record.slot + 1 :],
            PAGE,
        )
        with pytest.raises(IndexStructureError, match="not a keyword set"):
            tree.fetch_docs([entry])


def _node_ids(tree):
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        yield node_id
        node = tree.buffer.peek(node_id)
        if not node.is_leaf:
            stack.extend(entry.child_id for entry in node.child_entries)
