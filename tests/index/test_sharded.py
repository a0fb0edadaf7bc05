"""Sharded index: bit-identical parity with the unsharded engine.

The sharding contract (DESIGN.md §4e) is that partitioning is an
execution detail: every answer — top-k results, why-not refinements,
ranks, tie-breaks — must equal the unsharded engine's exactly, and the
per-shard I/O ledger must be identical between simulate and process
modes.  These tests pin all of that, plus the shard-count guard,
persistence round-trip, and the manifest sanitizer kinds.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import InvalidParameterError, WhyNotEngine
from repro.errors import StorageError
from repro.analysis.sanitize import check_shard_manifest
from repro.index.sharded import ShardedIndex, load_sharded, save_sharded
from repro.storage.faults import FaultInjector
from repro.storage.integrity import load_checked_json, save_checked_json

SHARD_COUNTS = (1, 2, 5)


@pytest.fixture(scope="module")
def sharded_engines(euro_small):
    dataset, _ = euro_small
    engines = {n: WhyNotEngine(dataset, shards=n) for n in SHARD_COUNTS}
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.fixture(scope="module")
def process_engine(euro_small):
    dataset, _ = euro_small
    engine = WhyNotEngine(dataset, shards=3, shard_mode="process")
    yield engine
    engine.close()


class TestShardedParity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_top_k_parity(self, euro_engine, sharded_engines, euro_cases, n_shards):
        engine = sharded_engines[n_shards]
        for case in euro_cases:
            for k in (1, 5, 20):
                query = case.query.with_k(k)
                assert engine.top_k(query) == euro_engine.top_k(query)

    @pytest.mark.parametrize("method", ["basic", "advanced", "kcr"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_answer_parity(
        self, euro_engine, sharded_engines, euro_cases, method, n_shards
    ):
        engine = sharded_engines[n_shards]
        ambient_faults = FaultInjector.from_env() is not None
        for case in euro_cases:
            if n_shards == 1:
                # The fixtures are shared across tests, so buffer
                # warmth would otherwise differ between the engines.
                euro_engine.reset_buffers()
                engine.reset_buffers()
            base = euro_engine.answer(case, method=method)
            answer = engine.answer(case, method=method)
            assert answer.refined == base.refined
            assert answer.initial_rank == base.initial_rank
            assert not answer.degraded
            if n_shards == 1:
                # One shard is the unsharded run: same cost, not only
                # the same answer.  Under REPRO_FAULTS the injected
                # retries differ per pool; the deterministic I/O fields
                # must still match.
                if ambient_faults:
                    for field in ("page_reads", "node_fetches", "buffer_hits"):
                        assert getattr(answer.io, field) == getattr(base.io, field)
                else:
                    assert answer.io == base.io
                assert answer.counters == base.counters

    def test_process_mode_same_answers_and_ledger(
        self, euro_engine, sharded_engines, process_engine, euro_small, euro_cases
    ):
        """Process workers must be invisible: same answers, same ledger."""
        dataset, _ = euro_small
        simulate = WhyNotEngine(dataset, shards=3)
        case = euro_cases[0]
        for method in ("advanced", "kcr"):
            base = euro_engine.answer(case, method=method)
            sim = simulate.answer(case, method=method)
            proc = process_engine.answer(case, method=method)
            assert sim.refined == base.refined
            assert proc.refined == base.refined
        ambient_faults = FaultInjector.from_env() is not None
        for kind in ("setr", "kcr"):
            sim_total = simulate.sharded_index.ledger_total(kind)
            proc_total = process_engine.sharded_index.ledger_total(kind)
            if ambient_faults:
                # The REPRO_FAULTS conftest hook seeds each pool's
                # injector by in-process creation order, which differs
                # across the worker fork boundary — retry/fault counters
                # are environment noise there.  The deterministic I/O
                # (the mode-invariance contract) must still match.
                for field in (
                    "page_reads",
                    "page_writes",
                    "node_fetches",
                    "buffer_hits",
                ):
                    assert getattr(sim_total, field) == getattr(
                        proc_total, field
                    ), field
            else:
                assert sim_total == proc_total
        simulate.close()

    def test_ledger_sums_over_shards(self, sharded_engines, euro_cases):
        """The global snapshot is exactly the sum of per-shard ledgers."""
        engine = sharded_engines[5]
        engine.answer(euro_cases[1], method="advanced")
        index = engine.sharded_index
        for kind in ("setr", "kcr"):
            by_hand = None
            for ledger in index.ledgers(kind).values():
                by_hand = ledger if by_hand is None else by_hand + ledger
            assert index.ledger_total(kind) == by_hand


class TestShardedGuards:
    def test_lone_tree_accessors_need_one_shard(self, sharded_engines):
        with pytest.raises(InvalidParameterError):
            sharded_engines[2].setr_tree
        with pytest.raises(InvalidParameterError):
            sharded_engines[2].kcr_tree

    def test_zero_shards_rejected(self, euro_small):
        dataset, _ = euro_small
        with pytest.raises(InvalidParameterError):
            WhyNotEngine(dataset, shards=0)


class TestShardedPersistence:
    @pytest.fixture(scope="class")
    def saved(self, euro_small, euro_cases, tmp_path_factory):
        dataset, _ = euro_small
        engine = WhyNotEngine(dataset, shards=4)
        engine.answer(euro_cases[0], method="kcr")  # build + touch both trees
        directory = tmp_path_factory.mktemp("sharded")
        save_sharded(engine.sharded_index, directory)
        engine.close()
        return dataset, directory

    def test_round_trip_parity(self, saved, euro_engine, euro_cases):
        dataset, directory = saved
        index = load_sharded(directory, dataset)
        view_query = euro_cases[0].query
        searcher = index.searcher("setr")
        assert searcher.top_k(view_query) == euro_engine.top_k(view_query)

    def test_manifest_sanitizer_clean(self, saved):
        _, directory = saved
        report = check_shard_manifest(directory)
        assert not report.violations

    def test_manifest_orphan_detected(self, saved):
        _, directory = saved
        orphan = directory / "shard-99-setr.json"
        orphan.write_text("{}")
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-orphan-file" in kinds
        finally:
            orphan.unlink()

    def test_manifest_missing_file_detected(self, saved):
        _, directory = saved
        victim = sorted(directory.glob("shard-*-kcr.json"))[0]
        backup = victim.read_bytes()
        victim.unlink()
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-missing-file" in kinds
        finally:
            victim.write_bytes(backup)

    def _rewrite_manifest(self, directory, mutate):
        manifest = load_checked_json(
            directory / "manifest.json",
            kind="sharded index",
            supported_versions=(2,),
            checksum_required_from=2,
        )
        mutate(manifest)
        body = {
            k: v
            for k, v in manifest.items()
            if k not in ("format_version", "checksum")
        }
        save_checked_json(directory / "manifest.json", body, version=2)
        return manifest

    def test_manifest_ledger_mismatch_detected(self, saved):
        _, directory = saved

        def tamper(manifest):
            manifest["ledger_total"]["setr"]["page_reads"] += 1

        self._rewrite_manifest(directory, tamper)
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-ledger-mismatch" in kinds
        finally:
            def restore(manifest):
                manifest["ledger_total"]["setr"]["page_reads"] -= 1

            self._rewrite_manifest(directory, restore)

    def test_manifest_tile_overlap_detected(self, saved):
        _, directory = saved
        original = load_checked_json(
            directory / "manifest.json",
            kind="sharded index",
            supported_versions=(2,),
            checksum_required_from=2,
        )["shards"][0]["rect"]

        def tamper(manifest):
            # Stretching tile 0 over the whole space guarantees a
            # strict interior overlap with every other tile.
            manifest["shards"][0]["rect"] = list(manifest["bounds"])

        self._rewrite_manifest(directory, tamper)
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-tile-overlap" in kinds
        finally:
            def restore(manifest):
                manifest["shards"][0]["rect"] = original

            self._rewrite_manifest(directory, restore)


class TestShardedDeterminism:
    def test_fresh_builds_identical_ledgers(self, euro_small, euro_cases):
        dataset, _ = euro_small
        totals = []
        for _ in range(2):
            engine = WhyNotEngine(dataset, shards=3)
            engine.answer(euro_cases[2], method="advanced")
            totals.append(
                {
                    kind: engine.sharded_index.ledger_total(kind)
                    for kind in ("setr", "kcr")
                }
            )
            engine.close()
        if FaultInjector.from_env() is not None:
            # Ambient REPRO_FAULTS forks a differently-seeded injector
            # into each build, so retry/fault counters are noise; the
            # deterministic I/O must still be build-invariant.
            for kind in ("setr", "kcr"):
                for field in (
                    "page_reads",
                    "page_writes",
                    "node_fetches",
                    "buffer_hits",
                ):
                    assert getattr(totals[0][kind], field) == getattr(
                        totals[1][kind], field
                    ), (kind, field)
        else:
            assert totals[0] == totals[1]

    def test_single_shard_is_unsharded_plan(self, euro_small):
        """One shard degenerates to a single tile holding everything."""
        dataset, _ = euro_small
        index = ShardedIndex.build(dataset, 1)
        assert len(index.shards) == 1
        assert len(index.shards[0].dataset) == len(dataset)


class TestShardedConcurrency:
    def test_racing_threads_share_backends_and_record_faults_once(
        self, euro_small
    ):
        """Serving threads fan out over one index at once: every thread
        must get the same backend for a shard, and racing quarantines of
        one shard tree must record a single fault event."""
        dataset, _ = euro_small
        index = ShardedIndex.build(dataset, 4)
        shard = index.shards[0]
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=30)

        def race(_):
            barrier.wait()
            backend = index._backend(shard)
            index.mark_down(shard, "kcr", "stress", StorageError("racing"))
            return backend

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                backends = [
                    future.result(timeout=60)
                    for future in [
                        pool.submit(race, i) for i in range(n_threads)
                    ]
                ]
        finally:
            sys.setswitchinterval(interval)
        index.close()
        assert all(backend is backends[0] for backend in backends)
        assert len(index.runtime.fault_events) == 1
        assert index.runtime.down == {(shard.tid, "kcr")}
