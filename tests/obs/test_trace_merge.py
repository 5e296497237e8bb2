"""Cross-process trace merging and golden timeline determinism.

The observability layer's hard promises (ISSUE acceptance criteria):
spans drained from shard workers interleave with driver events in global
virtual-clock order; fault markers land at their *scheduled* sim-times
regardless of execution mode; and a figure-3-style campaign produces
bit-identical sim-time span timelines on the mode-independent tracks
(driver/fault/attack) whether it runs serially or rack-sharded.
"""

import pytest

from repro.attack.monitor import CrestDetector, RaplPowerMonitor
from repro.attack.strategies import SynergisticAttack
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.obs.tracer import INSTANT, SPAN
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule

SEED = 61
SERVERS = 4

#: tracks whose events must not depend on the execution mode
SHARED_TRACKS = {"driver", "fault", "attack", "defense"}


def marker_schedule():
    return FaultSchedule(
        [
            FaultEvent(at=15.0, kind=FaultKind.RAPL_DROP,
                       duration_s=10.0, server=0),
            FaultEvent(at=25.0, kind=FaultKind.OOM_KILL,
                       duration_s=0.0, server=3),
            FaultEvent(at=35.0, kind=FaultKind.CLOCK_JITTER,
                       duration_s=10.0, magnitude=0.2),
        ],
        seed=17,
    )


def build_fleet(parallel, faults=None, seconds=60.0):
    sim = DatacenterSimulation(
        servers=SERVERS, rack_size=2, seed=SEED, sample_interval_s=1.0
    )
    sim.enable_tracing()
    if faults is not None:
        sim.install_faults(faults)
    sim.run(seconds, dt=1.0, parallel=parallel)
    return sim


def launch_attackers(sim):
    instances, covered = [], set()
    while len(covered) < SERVERS:
        inst = sim.cloud.launch_instance("attacker")
        if inst.host_index in covered:
            sim.cloud.terminate_instance(inst)
        else:
            covered.add(inst.host_index)
            instances.append(inst)
    return instances


def build_campaign(parallel):
    sim = DatacenterSimulation(
        servers=SERVERS, rack_size=2, seed=SEED, sample_interval_s=1.0
    )
    sim.enable_tracing()
    instances = launch_attackers(sim)
    sim.run(120.0, dt=1.0, parallel=parallel)
    return sim, instances


def synergistic(sim, instances):
    return SynergisticAttack(
        sim, instances,
        detector_factory=lambda: CrestDetector(
            window=60, threshold_fraction=0.7, min_band_watts=5.0
        ),
        burst_s=20.0, cooldown_s=60.0, learn_s=30.0,
    )


def shared_timeline(sim):
    """Sim-time view of the mode-independent tracks (wall times vary)."""
    return [
        (e.kind, e.name, e.track, e.t0, e.t1, e.attrs)
        for e in sim.tracer.timeline()
        if e.track in SHARED_TRACKS
    ]


class TestCrossProcessMerge:
    def test_shard_spans_interleave_in_global_clock_order(self):
        sim = build_fleet(2)
        try:
            timeline = sim.tracer.timeline()
        finally:
            sim.close()
        tracks = {e.track for e in timeline}
        assert {"driver", "barrier", "shard-0", "shard-1"} <= tracks
        t0s = [e.t0 for e in timeline]
        assert t0s == sorted(t0s)
        # every tick, both shard workers stepped the same sim interval
        steps = [e for e in timeline if e.name == "shard.step"]
        assert steps, "workers flushed no step spans"
        by_interval = {}
        for e in steps:
            by_interval.setdefault((e.t0, e.t1), set()).add(e.track)
        assert all(
            tracks == {"shard-0", "shard-1"}
            for tracks in by_interval.values()
        )

    def test_driver_and_shard_ticks_cover_the_same_clock(self):
        sim = build_fleet(2, seconds=30.0)
        try:
            timeline = sim.tracer.timeline()
        finally:
            sim.close()
        ticks = [e for e in timeline if e.name == "fleet.tick"]
        steps = [e for e in timeline if e.name == "shard.step"]
        assert {(e.t0, e.t1) for e in ticks} == {
            (e.t0, e.t1) for e in steps
        }

    @pytest.mark.parametrize("parallel", [0, 2], ids=["serial", "parallel"])
    def test_fault_markers_land_at_scheduled_times(self, parallel):
        sim = build_fleet(parallel, faults=marker_schedule())
        try:
            markers = [
                e for e in sim.tracer.timeline()
                if e.track == "fault" and e.kind == INSTANT
            ]
        finally:
            sim.close()
        at = {(e.name, e.t0) for e in markers}
        assert ("fault.rapl-drop", 15.0) in at
        assert ("fault.oom-kill", 25.0) in at
        assert ("fault.clock-jitter", 35.0) in at
        # markers carry *global* server identity even from shard workers
        drop = next(e for e in markers if e.name == "fault.rapl-drop")
        assert ("server", 0) in drop.attrs

    def test_fault_markers_identical_serial_vs_parallel(self):
        timelines = []
        for parallel in (0, 2):
            sim = build_fleet(parallel, faults=marker_schedule())
            try:
                timelines.append(
                    [
                        (e.name, e.t0, e.attrs)
                        for e in sim.tracer.timeline()
                        if e.track == "fault"
                    ]
                )
            finally:
                sim.close()
        serial, parallel_run = timelines
        assert serial == parallel_run
        assert len(serial) >= 3


class TestGoldenCampaignTimeline:
    def test_fig3_campaign_timeline_bit_identical(self):
        serial_sim, serial_inst = build_campaign(0)
        try:
            synergistic(serial_sim, serial_inst).run(300.0)
            serial = shared_timeline(serial_sim)
        finally:
            serial_sim.close()
        par_sim, par_inst = build_campaign(2)
        try:
            synergistic(par_sim, par_inst).run(300.0)
            par = shared_timeline(par_sim)
        finally:
            par_sim.close()
        assert serial == par
        names = {name for _, name, *_ in serial}
        assert {"fleet.tick", "fleet.run", "attack.recon",
                "attack.monitor", "attack.burst"} <= names
        # sanity: the parallel run *did* exercise worker tracks too
        spans = [e for e in serial if e[0] == SPAN]
        assert len(spans) > 100


class TestObserverReclamation:
    def test_rotating_campaigns_recycle_slots(self):
        sim, instances = build_campaign(2)
        engine = sim._parallel
        try:
            seen = set()
            for _ in range(3):
                attack = synergistic(sim, instances)
                assert len(attack.monitors) == SERVERS
                live = {h.observer_id for h in attack.monitors.values()}
                # fresh ids every rotation: none ever repeats
                assert not live & seen
                seen |= live
                assert set(engine._observer_shard) == live
                attack.release_monitors()
                assert attack.monitors == {}
                # the driver keeps only live observers
                assert engine._observer_shard == {}
        finally:
            sim.close()

    def test_release_unknown_observer_raises(self):
        sim, _ = build_campaign(2)
        engine = sim._parallel
        try:
            with pytest.raises(SimulationError, match="unknown observer"):
                engine.release_observer("obs-999")
        finally:
            sim.close()

    def test_released_observer_cannot_be_sampled(self):
        sim, instances = build_campaign(2)
        engine = sim._parallel
        try:
            oid = engine.attach_monitor(
                instances[0].instance_id, RaplPowerMonitor
            )
            engine.release_observer(oid)
            with pytest.raises(SimulationError):
                engine.observer_sample(oid, sim.now)
        finally:
            sim.close()
