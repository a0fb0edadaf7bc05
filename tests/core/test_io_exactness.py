"""Pinned answers and I/O counters for every method, top-k and mutations.

Leaf passes read a leaf's keyword sets one doc page per run of slots
(:meth:`repro.index.rtree.RTreeBase.fetch_docs`), booked exactly as one
fetch per object.  These pins were taken from the per-object fetch code
and must never move: every method's refined query (keywords, k,
penalty) and its ``page_reads``/``node_fetches``/``buffer_hits``, the
top-k results and their I/O, and the I/O of an insert/remove/
``update_keywords`` cycle at one and four shards.

The pinned counters are deterministic under ``REPRO_FAULTS`` too:
a transient read charges nothing until its retry succeeds, and hits
never consult the injector.  Regenerate a pin only for a change that is
meant to alter the counters, and say why in the change log.
"""

from __future__ import annotations

import pytest

from repro import SpatialObject, WhyNotEngine, make_euro_like
from repro.core.engine import METHODS
from repro.experiments.workload import WorkloadGenerator


def _world():
    dataset, _ = make_euro_like(2000, seed=11)
    generator = WorkloadGenerator(dataset, seed=5)
    one = generator.generate(2, k0=10, n_keywords=4, max_extra_keywords=4)
    two = generator.generate(
        2, k0=10, n_keywords=4, n_missing=2,
        missing_rank_range=(11, 51), max_extra_keywords=3,
    )
    return dataset, [case.question for case in one + two]


def _io(snapshot):
    return (snapshot.page_reads, snapshot.node_fetches, snapshot.buffer_hits)


def _total(engine, kinds=("setr", "kcr")):
    index = engine.sharded_index
    snapshots = [index.ledger_total(kind) for kind in kinds]
    return tuple(sum(field) for field in zip(*(
        (s.page_reads, s.page_writes, s.node_fetches, s.buffer_hits)
        for s in snapshots
    )))


def measure_answers():
    """``(question, method, keywords, k, penalty, page_reads, node_fetches,
    buffer_hits)`` for every question and method."""
    dataset, questions = _world()
    engine = WhyNotEngine(dataset)
    rows = []
    for q_index, question in enumerate(questions):
        for method in METHODS:
            engine.reset_buffers()
            answer = engine.answer(question, method)
            refined = answer.refined
            rows.append((
                q_index, method, tuple(sorted(refined.keywords)), refined.k,
                refined.penalty, *_io(answer.io),
            ))
    return rows


def measure_top_k():
    """``(question, k, oids, page_reads, page_writes, node_fetches,
    buffer_hits)`` per top-k query."""
    dataset, questions = _world()
    engine = WhyNotEngine(dataset)
    engine.sharded_index.ensure_built("setr")
    rows = []
    for q_index, question in enumerate(questions):
        for k in (1, 10):
            engine.reset_buffers()
            before = _total(engine, ("setr",))
            outcome = engine.run_top_k(question.query.with_k(k))
            after = _total(engine, ("setr",))
            rows.append((
                q_index, k, tuple(oid for _, oid in outcome.results),
                *(a - b for a, b in zip(after, before)),
            ))
    return rows


def measure_mutations(shards):
    """``(page_reads, page_writes, node_fetches, buffer_hits)`` of one
    insert, remove and ``update_keywords`` over both trees, then a kcr
    answer on the mutated index."""
    dataset, questions = _world()
    engine = WhyNotEngine(dataset, shards=shards)
    for kind in ("setr", "kcr"):
        engine.sharded_index.ensure_built(kind)
    anchor = dataset.get(questions[0].missing[0])
    victim = questions[1].missing[0]
    rows = []
    for step in ("insert", "remove", "update"):
        engine.reset_buffers()
        before = _total(engine)
        if step == "insert":
            engine.insert(SpatialObject(oid=10**6, loc=anchor.loc, doc=anchor.doc))
        elif step == "remove":
            engine.remove(victim)
        else:
            engine.update_keywords(anchor.oid, anchor.doc | questions[0].query.doc)
        rows.append(tuple(a - b for a, b in zip(_total(engine), before)))
    engine.reset_buffers()
    answer = engine.answer(questions[2], "kcr")
    refined = answer.refined
    rows.append((
        tuple(sorted(refined.keywords)), refined.k, refined.penalty, *_io(answer.io),
    ))
    engine.close()
    return rows


#: ``(question, method, keywords, k, penalty, page_reads, node_fetches,
#: buffer_hits)``, in :func:`measure_answers` order.
ANSWERS = [
    (0, "basic", (0, 2, 3, 86, 302), 10, 0.08333333333333333, 4074, 985, 91288),
    (0, "advanced", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 210, 52, 4851),
    (0, "kcr", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 151, 39, 3665),
    (0, "approximate", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 151, 39, 3665),
    (0, "parallel-advanced", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 210, 52, 4851),
    (0, "parallel-kcr", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 361, 90, 8417),
    (0, "alpha", (0, 2, 3, 302), 15, 0.23789868667917446, 2094, 515, 47922),
    (0, "location", (0, 2, 3, 302), 10, 0.06898758702848835, 858, 214, 19998),
    (0, "integrated", (0, 2, 3, 224, 302), 10, 0.08333333333333333, 2239, 554, 51591),
    (1, "basic", (9, 14, 19, 32, 104), 10, 0.07142857142857142, 9420, 2379, 222950),
    (1, "advanced", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 162, 42, 3960),
    (1, "kcr", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 160, 42, 3962),
    (1, "approximate", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 160, 42, 3962),
    (1, "parallel-advanced", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 162, 42, 3960),
    (1, "parallel-kcr", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 382, 97, 9110),
    (1, "alpha", (9, 14, 19, 104), 12, 0.13977485928705438, 1539, 399, 37620),
    (1, "location", (9, 14, 19, 104), 12, 0.05317566731547131, 891, 231, 21780),
    (1, "integrated", (9, 14, 19, 104, 231), 10, 0.07142857142857142, 1699, 441, 41582),
    (2, "basic", (3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 39390, 10066, 945949),
    (2, "advanced", (3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 468, 120, 11286),
    (2, "kcr", (3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 242, 63, 5942),
    (2, "approximate", (3, 96), 14, 0.21637426900584794, 224, 57, 5348),
    (2, "parallel-advanced", (3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 468, 120, 11286),
    (2, "parallel-kcr", (3, 7, 11, 90, 96, 132), 10, 0.1111111111111111, 686, 173, 16238),
    (2, "alpha", (3, 11, 90, 96), 28, 0.48137651821862343, 4266, 1046, 97321),
    (2, "location", (3, 11, 90, 96), 21, 0.30254735720346104, 2025, 525, 49500),
    (2, "integrated", (3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 4508, 1109, 103263),
    (3, "basic", (1, 21, 45, 116, 196, 428), 10, 0.125, 19389, 4939, 463728),
    (3, "advanced", (1, 21, 45, 116, 196, 428), 10, 0.125, 303, 77, 7227),
    (3, "kcr", (1, 21, 45, 116, 196, 428), 10, 0.125, 242, 62, 5841),
    (3, "approximate", (1, 21, 45, 116, 196), 10, 0.1875, 300, 75, 7029),
    (3, "parallel-advanced", (1, 21, 45, 116, 196, 428), 10, 0.125, 303, 77, 7227),
    (3, "parallel-kcr", (1, 21, 45, 116, 196, 428), 10, 0.125, 605, 145, 13464),
    (3, "alpha", (45, 116, 196, 428), 23, 0.4600961538461539, 4110, 1024, 95391),
    (3, "location", (45, 116, 196, 428), 25, 0.4688447022241329, 1953, 501, 47124),
    (3, "integrated", (1, 21, 45, 116, 196, 428), 10, 0.125, 4352, 1086, 101232),
]

#: ``(question, k, oids, page_reads, page_writes, node_fetches, buffer_hits)``.
TOP_K = [
    (0, 1, (555,), 45, 0, 9, 792),
    (0, 10, (555, 715, 279, 1566, 892, 154, 1617, 755, 1177, 1979), 63, 0, 15, 1386),
    (1, 1, (1031,), 60, 0, 14, 1287),
    (1, 10, (1031, 1595, 609, 742, 14, 1637, 1226, 357, 1374, 1760), 81, 0, 21, 1980),
    (2, 1, (1918,), 48, 0, 10, 891),
    (2, 10, (1918, 1315, 295, 1701, 596, 412, 263, 1369, 1863, 773), 78, 0, 20, 1881),
    (3, 1, (612,), 24, 0, 2, 99),
    (3, 10, (612, 589, 1165, 1010, 71, 173, 247, 1063, 1956, 889), 78, 0, 20, 1881),
]

#: Per shard count: insert, remove and update I/O, then the kcr answer.
MUTATIONS = {
    1: [
        (18, 22, 0, 400),
        (56, 16, 0, 396),
        (62, 26, 0, 364),
        ((3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 251, 66, 5936),
    ],
    4: [
        (18, 22, 0, 400),
        (24, 14, 0, 396),
        (32, 26, 0, 364),
        ((3, 7, 11, 90, 96, 100), 10, 0.1111111111111111, 91, 75, 6074),
    ],
}


def test_every_method_answer_and_io_pinned():
    assert measure_answers() == ANSWERS


def test_top_k_results_and_io_pinned():
    assert measure_top_k() == TOP_K


@pytest.mark.parametrize("shards", [1, 4])
def test_mutation_cycle_io_pinned(shards):
    assert measure_mutations(shards) == MUTATIONS[shards]
