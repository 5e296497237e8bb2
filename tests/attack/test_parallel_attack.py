"""Golden-trace equivalence for sharded attack campaigns.

The paper's figure-3 comparison (periodic vs synergistic) must produce
bit-identical outcomes whether the fleet runs serially or sharded across
worker processes with shard-resident monitors — same trial counts, same
spike heights, same utilization bill, same degradation counters.
"""

import pytest

from repro.attack.monitor import CrestDetector, RaplPowerMonitor
from repro.attack.strategies import PeriodicAttack, SynergisticAttack
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import AttackError
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule

SEED = 61
WARMUP_S = 120.0


def attack_faults():
    return FaultSchedule(
        [
            FaultEvent(at=150.0, kind=FaultKind.RAPL_DROP,
                       duration_s=60.0, server=0),
            FaultEvent(at=200.0, kind=FaultKind.CLOCK_JITTER,
                       duration_s=120.0, magnitude=0.2),
        ],
        seed=17,
    )


def build_campaign(parallel, servers=4, rack_size=2, faults=False):
    """One sim with an attacker instance per server, warmed up in-mode."""
    sim = DatacenterSimulation(
        servers=servers, rack_size=rack_size, seed=SEED,
        sample_interval_s=1.0,
    )
    if faults:
        sim.install_faults(attack_faults())
    cloud = sim.cloud
    instances, covered = [], set()
    while len(covered) < servers:
        inst = cloud.launch_instance("attacker")
        if inst.host_index in covered:
            cloud.terminate_instance(inst)
        else:
            covered.add(inst.host_index)
            instances.append(inst)
    sim.run(WARMUP_S, dt=1.0, parallel=parallel)
    return sim, instances


def outcome_snapshot(outcome):
    return {
        "trials": outcome.trials,
        "spikes": tuple(outcome.spike_watts),
        "peak": outcome.peak_watts,
        "cpu_s": outcome.attacker_cpu_seconds,
        "bill": outcome.bill_dollars,
        "tripped": outcome.breaker_tripped,
        "degradation": outcome.degradation,
    }


def trace_snapshot(sim):
    return (
        tuple(sim.aggregate_trace.times),
        tuple(sim.aggregate_trace.watts),
        tuple(sim.aggregate_trace.gaps),
    )


def synergistic(sim, instances):
    return SynergisticAttack(
        sim, instances,
        detector_factory=lambda: CrestDetector(
            window=60, threshold_fraction=0.7, min_band_watts=5.0
        ),
        burst_s=20.0, cooldown_s=60.0, learn_s=30.0,
    )


class TestGoldenCampaign:
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
    def test_synergistic_bit_identical(self, faults):
        serial_sim, serial_inst = build_campaign(0, faults=faults)
        serial = synergistic(serial_sim, serial_inst).run(300.0)
        par_sim, par_inst = build_campaign(2, faults=faults)
        try:
            par = synergistic(par_sim, par_inst).run(300.0)
            assert outcome_snapshot(serial) == outcome_snapshot(par)
            assert trace_snapshot(serial_sim) == trace_snapshot(par_sim)
            assert serial.trials > 0  # the campaign actually struck
        finally:
            par_sim.close()

    def test_periodic_bit_identical(self):
        serial_sim, serial_inst = build_campaign(0)
        serial = PeriodicAttack(
            serial_sim, serial_inst, burst_s=10.0, period_s=60.0
        ).run(180.0)
        par_sim, par_inst = build_campaign(2)
        try:
            par = PeriodicAttack(
                par_sim, par_inst, burst_s=10.0, period_s=60.0
            ).run(180.0)
            assert outcome_snapshot(serial) == outcome_snapshot(par)
            assert trace_snapshot(serial_sim) == trace_snapshot(par_sim)
            assert serial.trials == 3
        finally:
            par_sim.close()

    def test_coalesced_periodic_bit_identical(self):
        serial_sim, serial_inst = build_campaign(0)
        serial = PeriodicAttack(
            serial_sim, serial_inst, burst_s=10.0, period_s=120.0
        ).run(360.0, coalesce=True)
        par_sim, par_inst = build_campaign(2)
        try:
            par = PeriodicAttack(
                par_sim, par_inst, burst_s=10.0, period_s=120.0
            ).run(360.0, coalesce=True)
            assert outcome_snapshot(serial) == outcome_snapshot(par)
            assert trace_snapshot(serial_sim) == trace_snapshot(par_sim)
        finally:
            par_sim.close()


class TestArmedRuns:
    @pytest.mark.parametrize("seconds", [10.0, 37.5])
    @pytest.mark.parametrize("coalesce", [False, True], ids=["fixed", "coalesced"])
    def test_armed_multi_tick_runs_sample_like_serial(self, coalesce, seconds):
        # the armed final tick joins the run's last epoch: its monitors
        # must read what serial monitors read after the same runs
        serial_sim, serial_inst = build_campaign(0)
        monitors = [RaplPowerMonitor(inst) for inst in serial_inst]
        assert all(m.available() for m in monitors)
        par_sim, par_inst = build_campaign(2)
        try:
            engine = par_sim._parallel
            oids = [
                engine.attach_monitor(inst.instance_id, RaplPowerMonitor)
                for inst in par_inst
            ]
            assert None not in oids
            for _ in range(3):
                serial_sim.run(seconds, dt=1.0, coalesce=coalesce)
                expected = [m.sample(serial_sim.now) for m in monitors]
                engine.arm_observation(oids)
                par_sim.run(seconds, dt=1.0, coalesce=coalesce)
                engine.disarm_observation()
                assert engine._observed_at == par_sim.now  # piggybacked
                got = [engine.observer_sample(oid, par_sim.now) for oid in oids]
                assert got == expected
            assert expected[0] is not None
            assert trace_snapshot(serial_sim) == trace_snapshot(par_sim)
        finally:
            par_sim.close()


    def test_many_monitors_attach_and_read_like_serial(self):
        # more monitors than the old fixed observer capacity, max(16,
        # 2 * servers), and none released: every one attaches, and both
        # piggybacked and explicit readings match serial monitors
        per_instance = 5
        serial_sim, serial_inst = build_campaign(0)
        monitors = [
            RaplPowerMonitor(inst)
            for inst in serial_inst
            for _ in range(per_instance)
        ]
        assert len(monitors) > max(16, 2 * len(serial_inst))
        par_sim, par_inst = build_campaign(2)
        try:
            engine = par_sim._parallel
            oids = [
                engine.attach_monitor(inst.instance_id, RaplPowerMonitor)
                for inst in par_inst
                for _ in range(per_instance)
            ]
            assert None not in oids
            assert len(set(oids)) == len(oids)
            for armed in (True, False, True):
                serial_sim.run(10.0, dt=1.0)
                expected = [m.sample(serial_sim.now) for m in monitors]
                if armed:
                    engine.arm_observation(oids)
                par_sim.run(10.0, dt=1.0)
                engine.disarm_observation()
                # piggybacked on the run's last epoch, or one explicit
                # sample frame per observer
                assert (engine._observed_at == par_sim.now) == armed
                got = [engine.observer_sample(oid, par_sim.now) for oid in oids]
                assert got == expected
            assert None not in expected
        finally:
            par_sim.close()


class TestParallelPlumbing:
    def test_ipc_metrics_populated(self):
        sim, instances = build_campaign(2)
        try:
            synergistic(sim, instances).run(120.0)
            ipc = sim.metrics.ipc
            assert ipc is not None
            assert ipc.control_frames > 0
            # the replies carry the sampled rows and observer readings
            assert ipc.control_bytes_received > 0
            assert ipc.shm_bytes == 0
            assert ipc.workers == 2
            assert ipc.barrier_wait_total_s >= 0.0
            assert "parallel IPC profile" in sim.metrics.render()
        finally:
            sim.close()

    def test_strategy_refuses_mode_switch(self):
        # a strategy wired for serial must not silently run against a
        # fleet that moved into shard workers since construction
        sim = DatacenterSimulation(
            servers=4, rack_size=2, seed=SEED, sample_interval_s=1.0
        )
        instances = [sim.cloud.launch_instance("attacker")]
        attack = PeriodicAttack(sim, instances, burst_s=10.0, period_s=60.0)
        sim.run(10.0, parallel=2)
        try:
            with pytest.raises(AttackError, match="execution mode"):
                attack.run(60.0)
        finally:
            sim.close()
