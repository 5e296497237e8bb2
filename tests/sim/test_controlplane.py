"""Control slots of the shared-memory segment: slot protocol, epoch
batching, recovery.

Four contracts from ``docs/parallel.md``:

1. **Slot protocol** — the three steady-state frame shapes round-trip
   through the request/reply slots exactly (NaN hint encoding, bare
   commit/step fusing into one-tick epochs), and everything else refuses
   the slots (``post`` returns ``None``) so it ships pickled instead.
2. **Golden equivalence** — the sharded engine (shm slots, batched
   epochs) is bit-identical to the serial driver, the oracle, chaos and
   coalescing included; ``"shm"`` is the only accepted transport.
3. **Epoch batching** — steady state under shm posts *zero* pickled
   control frames, and batched epochs cut the barrier round-trip count
   well below one-per-tick.
4. **Recovery** — a worker killed under batched epochs is respawned and
   replayed (epoch frames included) bit-identically, a resume from a
   checkpoint matches the uninterrupted run, and an engine whose start-up
   fails leaks no shared-memory segment.
"""

import errno
import os

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.sim import shm
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim.shm import EPOCH_TICKS, ShmPlane

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
# slot protocol


class TestSlotProtocol:
    def make(self, host_counts=(3, 2)):
        return ShmPlane.create(host_counts, 0)

    def test_plan_round_trip(self):
        plane = self.make()
        try:
            posted = plane.post(1, ("plan", 2.5))
            assert posted is not None
            seq, nbytes = posted
            assert seq == 1 and nbytes > 0
            assert plane.req_seq(1) == 1
            assert plane.req_seq(0) == 0  # other shard untouched
            assert plane.read_request(1) == ("plan", 2.5)
            result = ((7, 8), (9,), (0.5, 0.25), True, 123.0)
            plane.write_reply(1, seq, "plan", result, wait_s=1e-4)
            assert plane.rsp_seq(1) == seq
            assert plane.reply_status(1) == ShmPlane.OK
            assert plane.reply_wait_s(1) == pytest.approx(1e-4)
            decoded, received = plane.read_reply(1, "plan")
            assert decoded == result
            assert received > 0
        finally:
            plane.unlink()

    def test_epoch_round_trip_restores_none_hints(self):
        plane = self.make()
        try:
            ticks = ((None, 1.0, 2, True), (3.5, 1.0, 3, False))
            seq, _ = plane.post(0, ("epoch", ticks, ()))
            assert plane.read_request(0) == ("epoch", ticks, ())
            plane.write_reply(0, seq, "epoch", True, wait_s=0.0)
            changed, received = plane.read_reply(0, "epoch")
            assert changed is True
            assert received == 4 * 8
        finally:
            plane.unlink()

    def test_begin_round_trip(self):
        plane = self.make()
        try:
            seq, _ = plane.post(1, ("begin", 1, True, ()))
            assert plane.read_request(1) == ("begin", 1, True, ())
            plane.write_reply(1, seq, "begin", False, wait_s=0.0)
            changed, _ = plane.read_reply(1, "begin")
            assert changed is False
        finally:
            plane.unlink()

    def test_slow_path_refusals_leave_doorbell_alone(self):
        plane = self.make()
        try:
            too_long = tuple(
                (None, 1.0, 0, False) for _ in range(EPOCH_TICKS + 1)
            )
            assert plane.post(0, ("epoch", too_long, ())) is None  # oversized
            assert plane.post(0, ("begin", 0, False, (("op",),))) is None
            one = ((None, 1.0, 0, False),)
            assert plane.post(0, ("epoch", one, (5,))) is None  # observers
            assert plane.post(0, ("state",)) is None
            assert plane.post(0, ("checkpoint", 1, "/tmp")) is None
            # a refused frame must not ring the doorbell: the pipe carries
            # it, and a phantom seq bump would wedge the worker poll loop
            assert plane.req_seq(0) == 0
        finally:
            plane.unlink()

    def test_non_ok_status_rides_the_slots(self):
        plane = self.make()
        try:
            seq, _ = plane.post(0, ("plan", 1.0))
            plane.write_status(0, seq, ShmPlane.PAYLOAD_PIPE, wait_s=0.5)
            assert plane.rsp_seq(0) == seq
            assert plane.reply_status(0) == ShmPlane.PAYLOAD_PIPE
            assert plane.reply_wait_s(0) == pytest.approx(0.5)
            plane.write_status(0, seq + 1, ShmPlane.ERROR, wait_s=0.0)
            assert plane.reply_status(0) == ShmPlane.ERROR
        finally:
            plane.unlink()

    def test_attach_shares_the_segment(self):
        owner = self.make()
        peer = None
        try:
            peer = ShmPlane.attach(
                owner.name, owner.host_counts, owner.observer_capacity
            )
            seq, _ = owner.post(0, ("plan", 9.25))
            assert peer.req_seq(0) == seq
            assert peer.read_request(0) == ("plan", 9.25)
            peer.write_reply(
                0, seq, "plan", ((), (), (1.0, 2.0, 3.0), True, 42.0),
                wait_s=0.0,
            )
            decoded, _ = owner.read_reply(0, "plan")
            assert decoded == ((), (), (1.0, 2.0, 3.0), True, 42.0)
        finally:
            if peer is not None:
                peer.close()
            owner.unlink()

    def test_create_validation(self):
        with pytest.raises(SimulationError, match="host"):
            ShmPlane.create((), 4)
        with pytest.raises(SimulationError, match="host"):
            ShmPlane.create((2, 0), 4)

    def test_segment_named_for_stale_sweep(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        # a dead driver's segment is reclaimed by the sweep that every
        # segment creation runs
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        stale = f"{shm.SEGMENT_PREFIX}-{pid}-c0ffee00"
        with open(os.path.join("/dev/shm", stale), "wb") as fh:
            fh.write(b"\0" * 64)
        plane = ShmPlane.create((2,), 4)
        try:
            assert shm._segment_owner_pid(plane.name) == os.getpid()
            assert not os.path.exists(os.path.join("/dev/shm", stale))
        finally:
            plane.unlink()


class TestBankFlip:
    def test_epoch_banks_do_not_overwrite_each_other(self):
        # batched epochs need EPOCH_TICKS + 1 banks: every tick of an
        # epoch lands in its own bank, folded only after the one reply
        plane = ShmPlane.create((2,), 1)
        try:
            for bank in range(plane.banks):
                plane.write_wall(bank, 0, 100.0 + bank)
                plane.write_wall(bank, 1, None if bank == 2 else 200.0 + bank)
                plane.write_observer(bank, 0, 300.0 + bank)
            for bank in range(plane.banks):
                assert plane.read_wall(bank, 0) == 100.0 + bank
                if bank == 2:
                    assert plane.read_wall(bank, 1) is None
                else:
                    assert plane.read_wall(bank, 1) == 200.0 + bank
                assert plane.read_observer(bank, 0) == 300.0 + bank
        finally:
            plane.unlink()

    def test_bank_out_of_range_rejected(self):
        plane = ShmPlane.create((2,), 0)
        try:
            plane.write_wall(EPOCH_TICKS, 0, 1.0)
            with pytest.raises(SimulationError, match="bank"):
                plane.write_wall(EPOCH_TICKS + 1, 0, 1.0)
        finally:
            plane.unlink()

    def test_engine_sizes_banks_for_epochs(self):
        sim = build(servers=4, rack_size=2)
        try:
            sim.run(10.0, parallel=2)
            engine = sim._parallel
            assert engine.plane.banks == EPOCH_TICKS + 1
            # one segment per engine: every shard attaches to it
            assert engine.cplane is None
            assert {spec.segment_name for spec in engine._specs} == {
                engine.plane.name
            }
        finally:
            sim.close()


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
    def test_steady_state_posts_zero_pipe_frames(self):
        sim = build(servers=4, rack_size=2)
        try:
            sim.run(120.0, parallel=2)
            ipc = sim.metrics.ipc
            # begin + every barrier of the run rode the slots
            assert ipc.pipe_control_frames == 0
            assert ipc.shm_control_frames > 0
            assert ipc.shm_control_bytes > 0
            # ...and the rare-path verbs still use the pipe
            sim.server_wall_watts(0)
            assert ipc.pipe_control_frames > 0
        finally:
            sim.close()

    def test_epochs_batch_barrier_round_trips(self):
        sim = build(servers=4, rack_size=2)
        try:
            sim.run(120.0, parallel=2)
            ipc = sim.metrics.ipc
            trips = ipc.shm_control_frames + ipc.pipe_control_frames
            # unbatched, every shard takes one frame per tick; 8-tick
            # epochs need ~one barrier per 8 ticks instead
            unbatched = sim.metrics.ticks * len(sim._parallel.conns)
            assert trips * 4 <= unbatched
            assert ipc.shm_control_frames > 0
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
            assert "shm control" in rendered
            assert "barrier p50/tick" in rendered
        finally:
            sim.close()


# ---------------------------------------------------------------------------
# recovery under batched epochs


@pytest.mark.chaos
class TestKillMidEpoch:
    def test_respawn_and_replay_bit_identical(self):
        golden = build(interval=30.0, servers=4, rack_size=2)
        golden.run(600, parallel=2, coalesce=True)
        golden_snap = snapshot(golden)
        golden.close()
        sim = build(interval=30.0, servers=4, rack_size=2)
        sim.enable_resilience(max_restarts=2)
        sim.run(300, parallel=2, coalesce=True)
        assert sim.metrics.ipc.shm_control_frames > 0  # epochs in the log
        sim._parallel.debug_crash_worker(1)
        sim.run(300, parallel=2, coalesce=True)
        sim_snap = snapshot(sim)
        sim.close()
        assert golden_snap == sim_snap
        metrics = sim._parallel.res_metrics
        assert metrics.restarts == 1
        # the replay walked the logical frame log (epoch frames included)
        # back through the pipe into the respawned worker
        assert metrics.replayed_frames > 0
        assert metrics.replayed_ticks > 0

    def test_kill_with_chaos_schedule_bit_identical(self):
        golden = build(interval=30.0, schedule=chaos_schedule())
        golden.run(900, parallel=2, coalesce=True)
        golden_snap = snapshot(golden)
        golden.close()
        sim = build(interval=30.0, schedule=chaos_schedule())
        sim.enable_resilience(max_restarts=2)
        sim.run(450, parallel=2, coalesce=True)
        sim._parallel.debug_crash_worker(0)
        sim.run(450, parallel=2, coalesce=True)
        sim_snap = snapshot(sim)
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


class TestStartupFailure:
    def test_control_plane_failure_leaks_no_segment(self, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        prefix = f"{shm.SEGMENT_PREFIX}-{os.getpid()}-"

        def segments():
            return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        # fail right after the segment exists
        monkeypatch.setattr("repro.sim.parallel.IpcMetrics", no_space)
        before = segments()
        sim = build(servers=4, rack_size=2)
        with pytest.raises(OSError) as info:
            sim.run(10.0, parallel=2)
        assert info.value.errno == errno.ENOSPC
        # the segment was created first; the failed start-up must have
        # unlinked it
        assert segments() == before
        assert sim._parallel is None
