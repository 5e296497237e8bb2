"""The sharded engine's barrier transport: epoch batching, recovery.

Every frame is a pickled tuple on the shard pipe, and the replies carry
the sampled rows and observer readings. Three contracts from
``docs/parallel.md``:

1. **Golden equivalence** — the sharded engine (batched epochs) is
   bit-identical to the serial driver, the oracle, chaos and coalescing
   included; ``"shm"`` is the only accepted ``control_plane`` value.
2. **Epoch batching** — batched epochs cut the barrier round-trip count
   well below one frame per shard per tick.
3. **Recovery** — a worker killed under batched epochs is respawned and
   replayed (epoch frames included) bit-identically, a resume from a
   checkpoint matches the uninterrupted run, a worker's dispatch error
   surfaces with its traceback, and an engine whose start-up fails
   leaves no worker running; none of them leaves anything under
   ``/dev/shm``.
"""

import errno
import multiprocessing

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule

SEED = 7


def build(interval=1.0, servers=8, rack_size=4, schedule=None):
    sim = DatacenterSimulation(
        servers=servers, rack_size=rack_size, seed=SEED,
        sample_interval_s=interval,
    )
    if schedule is not None:
        sim.install_faults(schedule)
    return sim


def snapshot(sim):
    return {
        "agg": (
            tuple(sim.aggregate_trace.times),
            tuple(sim.aggregate_trace.watts),
            tuple(sim.aggregate_trace.gaps),
        ),
        "servers": {
            i: (tuple(t.times), tuple(t.watts), tuple(t.gaps))
            for i, t in sim.server_traces.items()
        },
        "ticks": sim.metrics.ticks,
        "samples": sim.metrics.samples,
        "now": sim.now,
        "faults": sim.fault_report(),
        "tripped": sim.any_breaker_tripped(),
        "trip_log": sim.trip_log(),
    }


def chaos_schedule():
    return FaultSchedule(
        [
            FaultEvent(at=30.0, kind=FaultKind.MACHINE_CRASH,
                       duration_s=120.0, server=3),
            FaultEvent(at=45.0, kind=FaultKind.BREAKER_TRIP,
                       duration_s=180.0, server=1),
            FaultEvent(at=60.0, kind=FaultKind.CLOCK_JITTER,
                       duration_s=240.0, magnitude=0.2),
            FaultEvent(at=90.0, kind=FaultKind.OOM_KILL, server=5),
            FaultEvent(at=120.0, kind=FaultKind.RAPL_DROP,
                       duration_s=60.0, server=0),
        ],
        seed=13,
    )


# ---------------------------------------------------------------------------
# golden equivalence


class TestShmGoldenTrace:
    def run_pair(self, seconds, *, coalesce, interval=1.0, chaos=False,
                  dt=1.0):
        """Serial (the oracle) and sharded snapshots of the same run."""
        sims = []
        snaps = []
        try:
            for parallel in (0, 2):
                sim = build(
                    interval,
                    schedule=chaos_schedule() if chaos else None,
                )
                sims.append(sim)
                sim.run(seconds, dt=dt, coalesce=coalesce, parallel=parallel)
                snaps.append(snapshot(sim))
        finally:
            for sim in sims:
                sim.close()
        return snaps

    def test_base_ticks_bit_identical(self):
        serial, shm = self.run_pair(120.0, coalesce=False)
        assert serial == shm

    def test_coalesced_chaos_bit_identical(self):
        serial, shm = self.run_pair(
            900.0, coalesce=True, interval=30.0, chaos=True
        )
        assert serial == shm
        assert serial["faults"]["injected:machine-crash"] == 1
        assert serial["faults"]["samples-jittered"] > 0

    def test_chaos_base_ticks_bit_identical(self):
        serial, shm = self.run_pair(420.0, coalesce=False, chaos=True)
        assert serial == shm
        assert serial["trip_log"] == shm["trip_log"]

    @pytest.mark.parametrize("mode", ("quantum", "pipe"))
    def test_invalid_mode_rejected(self, mode):
        sim = build(servers=4, rack_size=2)
        with pytest.raises(SimulationError, match="control"):
            sim.run(10.0, parallel=2, control_plane=mode)
        assert sim._parallel is None


# ---------------------------------------------------------------------------
# epoch batching


class TestEpochBatching:
    def test_epochs_batch_barrier_round_trips(self):
        sim = build(servers=4, rack_size=2)
        try:
            sim.run(120.0, parallel=2)
            trips = sim.metrics.ipc.pipe_control_frames
            # unbatched, every shard takes one frame per tick; 8-tick
            # epochs need ~one barrier per 8 ticks instead
            unbatched = sim.metrics.ticks * len(sim._parallel.conns)
            assert 0 < trips * 4 <= unbatched
        finally:
            sim.close()

    def test_epoch_spans_carry_tick_counts(self):
        sim = build(servers=4, rack_size=2)
        sim.enable_tracing()
        try:
            sim.run(60.0, parallel=2)
            epochs = [
                dict(e.attrs) for e in sim.tracer.timeline()
                if e.name == "barrier.epoch"
            ]
            assert epochs
            assert any(attrs.get("ticks", 0) > 1 for attrs in epochs)
            assert all(attrs["shards"] == 2 for attrs in epochs)
        finally:
            sim.close()

    def test_barrier_latency_metrics_populated(self):
        sim = build(servers=4, rack_size=2)
        try:
            sim.run(120.0, parallel=2)
            ipc = sim.metrics.ipc
            assert ipc.round_trip_p50 > 0.0
            assert ipc.barrier_wait_skew >= 1.0
            rendered = sim.metrics.render()
            assert "control frames" in rendered
            assert "shm control" not in rendered
            assert "barrier p50/tick" in rendered
        finally:
            sim.close()

    def test_barrier_skew_measures_straggling(self):
        # skew is max/median of the workers' own busy seconds: near 1.0
        # on evenly split racks, above it when one shard holds twice the
        # hosts of the other (collection order charges shard 0 with the
        # whole barrier's wait, so waits cannot tell the two apart)
        skews = {}
        for name, servers, workers in (("balanced", 8, 4), ("split", 6, 2)):
            sim = DatacenterSimulation(
                servers=servers, rack_size=2, seed=1, tenants_per_host=2
            )
            try:
                sim.run(300.0, dt=1.0, parallel=workers)
                ipc = sim.metrics.ipc
                assert sorted(ipc.shard_busy_s) == list(range(workers))
                skews[name] = ipc.barrier_wait_skew
            finally:
                sim.close()
        assert skews["balanced"] < 1.25, skews
        assert skews["split"] > 1.2, skews


# ---------------------------------------------------------------------------
# recovery under batched epochs


def _run_snapshot(seconds, **kwargs):
    """Snapshot of one uninterrupted sharded run (the golden side)."""
    sim = build(**kwargs)
    try:
        sim.run(seconds, parallel=2, coalesce=True)
        return snapshot(sim)
    finally:
        sim.close()


@pytest.mark.chaos
class TestKillMidEpoch:
    def test_respawn_and_replay_bit_identical(self):
        golden_snap = _run_snapshot(600, interval=30.0, servers=4, rack_size=2)
        sim = build(interval=30.0, servers=4, rack_size=2)
        try:
            sim.enable_resilience(max_restarts=2)
            sim.run(300, parallel=2, coalesce=True)
            assert sim.metrics.ipc.pipe_control_frames > 0  # epochs in the log
            sim._parallel.debug_crash_worker(1)
            sim.run(300, parallel=2, coalesce=True)
            sim_snap = snapshot(sim)
        finally:
            sim.close()
        assert golden_snap == sim_snap
        metrics = sim._parallel.res_metrics
        assert metrics.restarts == 1
        # the replay walked the frame log (epoch frames included) back
        # through the pipe into the respawned worker
        assert metrics.replayed_frames > 0
        assert metrics.replayed_ticks > 0

    def test_kill_with_chaos_schedule_bit_identical(self):
        golden_snap = _run_snapshot(
            900, interval=30.0, schedule=chaos_schedule()
        )
        sim = build(interval=30.0, schedule=chaos_schedule())
        try:
            sim.enable_resilience(max_restarts=2)
            sim.run(450, parallel=2, coalesce=True)
            sim._parallel.debug_crash_worker(0)
            sim.run(450, parallel=2, coalesce=True)
            sim_snap = snapshot(sim)
        finally:
            sim.close()
        assert golden_snap == sim_snap
        assert sim._parallel.res_metrics.restarts == 1


class TestManifestPinsControlPlane:
    def test_resume_same_plane_accepted(self, tmp_path):
        golden = build(interval=30.0, servers=4, rack_size=2)
        golden.run(600, parallel=2, coalesce=True)
        golden_snap = snapshot(golden)
        golden.close()
        part = build(interval=30.0, servers=4, rack_size=2)
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        part.run(300, parallel=2, coalesce=True)
        part.close()
        res = build(interval=30.0, servers=4, rack_size=2)
        res.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        res.run(300, parallel=2, coalesce=True, resume=True)
        res.run(300, parallel=2, coalesce=True)
        res_snap = snapshot(res)
        res.close()
        assert golden_snap == res_snap


def _exploding_workload(*args):
    """A picklable workload factory that raises inside the shard worker."""
    raise RuntimeError("workload factory exploded")


class TestWorkerError:
    def test_dispatch_error_names_shard_and_carries_traceback(self, dev_shm):
        before = dev_shm()
        sim = build(servers=4, rack_size=2)
        procs = []
        try:
            instance = sim.cloud.launch_instance("attacker")
            sim.run(10.0, parallel=2)
            engine = sim._parallel
            procs = list(engine.procs)
            shard = engine._shard_of_host[instance.host_index]
            sim.exec_in_instance(instance, "boom", _exploding_workload)
            # the queued exec applies at the owning shard's next barrier
            with pytest.raises(SimulationError) as info:
                sim.run(10.0)
            text = str(info.value)
            assert f"shard worker {shard} failed" in text
            assert "Traceback (most recent call last)" in text
            assert "_exploding_workload" in text
            assert "RuntimeError: workload factory exploded" in text
            # the other shard's reply to that barrier was never read: a
            # later run must refuse, not consume it as its own reply
            with pytest.raises(SimulationError, match="closed"):
                sim.run(10.0)
        finally:
            sim.close()
        assert dev_shm() == before
        assert procs and not any(proc.is_alive() for proc in procs)


class TestStartupFailure:
    def test_control_plane_failure_leaks_no_segment(self, monkeypatch, dev_shm):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        # fail after every worker has been spawned
        monkeypatch.setattr(
            "repro.sim.parallel.ParallelFleetEngine._wait_ready", no_space
        )
        before = dev_shm()
        sim = build(servers=4, rack_size=2)
        with pytest.raises(OSError) as info:
            sim.run(10.0, parallel=2)
        assert info.value.errno == errno.ENOSPC
        # the failed start-up must have stopped the workers it spawned
        assert not multiprocessing.active_children()
        assert dev_shm() == before
        assert sim._parallel is None
