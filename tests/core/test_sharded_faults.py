"""Per-shard failure containment: faults in one shard degrade only
that shard, answers stay exact (served by the scan fallback), and
recovery clears the quarantine.

The schedule here is deliberately brutal (30% bit-rot, 20% lost
records) so the targeted shard *will* fail; the assertions are that
the blast radius stays inside it and that every degraded answer is
still bit-identical to the fault-free baseline.
"""

from __future__ import annotations

import pytest

from repro import WhyNotEngine
from repro.errors import CorruptRecordError
from repro.index import sharded
from repro.storage.faults import FaultInjector, FaultSchedule

BRUTAL = FaultSchedule(bit_rot_rate=0.3, lost_record_rate=0.2)


@pytest.fixture()
def engines(euro_small):
    dataset, _ = euro_small
    baseline = WhyNotEngine(dataset)
    chaotic = WhyNotEngine(
        dataset,
        faults=FaultInjector(BRUTAL, seed=11),
        shards=4,
        fault_shards=(0,),
    )
    yield baseline, chaotic
    chaotic.close()


class TestFaultContainment:
    def test_faults_stay_in_targeted_shard(self, engines, euro_cases):
        baseline, chaotic = engines
        saw_degraded = False
        for case in euro_cases:
            for method in ("advanced", "kcr"):
                base = baseline.answer(case, method=method)
                answer = chaotic.answer(case, method=method)
                assert answer.refined == base.refined
                assert answer.initial_rank == base.initial_rank
                saw_degraded = saw_degraded or answer.degraded
        assert saw_degraded, "brutal schedule never tripped — dead test"
        quarantined = chaotic.quarantined
        assert quarantined, "no shard quarantined under 30% bit rot"
        for key in quarantined:
            assert key.startswith("shard-0:"), f"fault escaped to {key}"

    def test_degraded_answers_flag_events(self, engines, euro_cases):
        _, chaotic = engines
        answer = chaotic.answer(euro_cases[0], method="advanced")
        if answer.degraded:
            assert answer.fault_events
            for event in answer.fault_events:
                assert event.tree.startswith("shard-0:")

    def test_top_k_served_while_degraded(self, engines, euro_cases):
        baseline, chaotic = engines
        chaotic.answer(euro_cases[0], method="advanced")  # trip the faults
        for case in euro_cases:
            query = case.query
            outcome = chaotic.run_top_k(query)
            assert outcome.results == baseline.top_k(query)

    def test_recover_clears_quarantine(self, engines, euro_cases):
        baseline, chaotic = engines
        for case in euro_cases[:3]:
            chaotic.answer(case, method="advanced")
        if not chaotic.quarantined:
            pytest.skip("schedule did not trip on this workload slice")
        cleared = chaotic.recover()
        assert cleared
        assert not chaotic.quarantined
        # Post-recovery answers remain exact (the rebuilt shard may
        # re-fault under its fresh fork — containment, not absence,
        # is the contract).
        base = baseline.answer(euro_cases[0], method="kcr")
        answer = chaotic.answer(euro_cases[0], method="kcr")
        assert answer.refined == base.refined
        for key in chaotic.quarantined:
            assert key.startswith("shard-0:")

    def test_health_reports_quarantined_shards(self, engines, euro_cases):
        _, chaotic = engines
        chaotic.answer(euro_cases[0], method="advanced")
        health = chaotic.health()
        for key in health["quarantined"]:
            assert key.startswith("shard-0:")

    def test_kcr_shard_dying_mid_batch(
        self, euro_engine, euro_small, euro_cases, monkeypatch
    ):
        """A shard whose traversal dies after its init succeeded is
        swapped for its exact counts (``exact − cumulative``): the
        answer stays exact and only that shard is flagged."""
        dataset, _ = euro_small
        engine = WhyNotEngine(dataset, shards=4)
        case = euro_cases[0]
        real = sharded._worker_execute
        steps = {"init": 0, "step": 0}

        def dies_on_second_step(shard, state, message):
            if shard.tid == 1 and message[0] == "kcr_init":
                steps["init"] += 1
            if shard.tid == 1 and message[0] == "kcr_step":
                steps["step"] += 1
                if steps["step"] == 2:
                    raise CorruptRecordError(0, "shard 1 died mid-batch")
            return real(shard, state, message)

        monkeypatch.setattr(sharded, "_worker_execute", dies_on_second_step)
        answer = engine.answer(case, method="kcr")
        engine.close()
        assert steps["step"] == 2, "shard 1 never reached a later step"
        assert steps["init"] >= 1
        assert answer.refined == euro_engine.answer(case, method="kcr").refined
        assert answer.degraded
        assert answer.fault_events
        assert {event.tree for event in answer.fault_events} == {"shard-1:kcr"}

    def test_untargeted_engine_can_fault_any_shard(self, euro_small):
        """Without ``fault_shards`` every shard forks the injector —
        the targeted run's containment is policy, not coincidence."""
        dataset, _ = euro_small
        chaotic = WhyNotEngine(
            dataset,
            faults=FaultInjector(BRUTAL, seed=11),
            shards=4,
        )
        index = chaotic.sharded_index
        forked = [s.tid for s in index.shards if s._tree_faults("setr") is not None]
        assert forked == [s.tid for s in index.shards]
        chaotic.close()
