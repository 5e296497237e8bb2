"""Self-healing fleet: checkpoint/restore, supervision, hang-proof barriers.

Three contracts from ``docs/resilience.md``, all pinned bit-for-bit:

1. **Transparency** — enabling checkpointing must not perturb the golden
   trace: a checkpointed run equals an unadorned run float-for-float.
2. **Recovery** — a shard worker killed or hung mid-campaign is respawned
   from the latest snapshot and replayed forward, and the completed run
   is bit-identical to an uninterrupted one; exhausted budgets and
   unsupervised failures surface as descriptive errors naming the shard.
3. **Resume** — a fresh process pointed at the checkpoint directory with
   ``run(resume=True)`` completes the campaign bit-identically to the
   golden run, including the merged span timeline.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.sim.resilience import (
    SNAPSHOT_VERSION,
    ResilienceConfig,
    atomic_write,
    load_manifest,
    manifest_path,
    read_snapshot,
    shard_snapshot_path,
)

SEED = 7


def build(servers=4, rack_size=2, interval=30.0):
    return DatacenterSimulation(
        servers=servers, rack_size=rack_size, seed=SEED,
        sample_interval_s=interval,
    )


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
    }


def timeline_key(tracer):
    """The mode-independent view of a timeline (wall cost and per-process
    sequence numbers legitimately differ between golden and resumed)."""
    return [
        (e.kind, e.name, e.track, e.t0, e.t1, e.attrs)
        for e in tracer.timeline()
    ]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError, match="checkpoint_every"):
            ResilienceConfig(checkpoint_every=0.0)
        with pytest.raises(SimulationError, match="barrier_timeout_s"):
            ResilienceConfig(barrier_timeout_s=-1.0)
        with pytest.raises(SimulationError, match="max_restarts"):
            ResilienceConfig(max_restarts=-1)

    def test_enable_after_parallel_rejected(self):
        sim = build()
        sim.run(30, parallel=2)
        try:
            with pytest.raises(SimulationError, match="before the first"):
                sim.enable_resilience()
        finally:
            sim.close()

    def test_serial_guards(self, tmp_path):
        sim = build()
        with pytest.raises(SimulationError, match="parallel"):
            sim.run(30, resume=True)
        sim2 = build()
        sim2.enable_resilience(checkpoint_dir=str(tmp_path))
        with pytest.raises(SimulationError, match="parallel engine"):
            sim2.run(30)

    def test_resume_needs_checkpoint_dir(self):
        sim = build()
        sim.enable_resilience()  # supervision only, no dir
        with pytest.raises(SimulationError, match="checkpoint_dir"):
            sim.run(30, parallel=2, resume=True)

    def test_resume_on_live_engine_rejected(self, tmp_path):
        sim = build()
        sim.enable_resilience(checkpoint_dir=str(tmp_path))
        sim.run(60, parallel=2)
        try:
            with pytest.raises(SimulationError, match="already live"):
                sim.run(30, parallel=2, resume=True)
        finally:
            sim.close()


class TestSnapshotFiles:
    def test_atomic_write_and_read(self, tmp_path):
        path = shard_snapshot_path(str(tmp_path), 3, 12)
        assert path.endswith("shard-03-000012.ckpt")
        atomic_write(path, pickle.dumps({"version": SNAPSHOT_VERSION, "x": 1}))
        assert read_snapshot(path)["x"] == 1
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_missing_snapshot_is_descriptive(self, tmp_path):
        with pytest.raises(SimulationError, match="missing"):
            read_snapshot(str(tmp_path / "nope.ckpt"))

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        atomic_write(path, pickle.dumps({"version": 99}))
        with pytest.raises(SimulationError, match="version"):
            read_snapshot(path)

    def test_stale_snapshot_version_rejected(self, tmp_path):
        # version 2 snapshots pickled kernels and workloads without the
        # scalar tick's memo fields; a resume from one must refuse, not
        # fail with AttributeError on the first tick
        path = shard_snapshot_path(str(tmp_path), 0, 1)
        atomic_write(path, pickle.dumps({"version": 2}))
        with pytest.raises(SimulationError, match="has version 2"):
            read_snapshot(path)

    def test_version_4_snapshot_refused(self, tmp_path):
        # version 4 pickled the columnar host engine's op log as tuples
        # and its slot mirror with dead slots kept in place
        path = shard_snapshot_path(str(tmp_path), 0, 1)
        atomic_write(path, pickle.dumps({"version": 4}))
        with pytest.raises(SimulationError, match="has version 4") as info:
            read_snapshot(path)
        assert path in str(info.value)

    def test_version_5_snapshot_refused(self, tmp_path):
        # version 5 pickled the columnar host engine's op log as
        # (barrier, row, arg) triples, with no ordinal cursors
        path = shard_snapshot_path(str(tmp_path), 0, 1)
        atomic_write(path, pickle.dumps({"version": 5}))
        with pytest.raises(SimulationError, match="has version 5") as info:
            read_snapshot(path)
        assert path in str(info.value)

    def test_version_6_snapshot_refused(self, tmp_path):
        # version 6 pickled the columnar host engine's op log as per-host
        # arrays, beside per-host slot lists and per-row cursors; version
        # 7 mapped each shard monitor to a (shared-memory slot, monitor)
        # pair; version 8 spelled the runtime's state out field by field;
        # version 9's columnar host engine carried thermal and RAPL columns;
        # version 10's runtime held the shard-resident attack monitors;
        # version 11's columnar host engine carried observer pin counts;
        # version 12's fleet slice pickled its watts vector and the clock
        # reading that keyed it
        path = shard_snapshot_path(str(tmp_path), 0, 1)
        for version in (6, 7, 8, 9, 10, 11, 12):
            atomic_write(path, pickle.dumps({"version": version}))
            with pytest.raises(
                SimulationError, match=f"has version {version}"
            ) as info:
                read_snapshot(path)
            assert path in str(info.value)

    def test_stale_manifest_version_rejected(self, tmp_path):
        # version 2 manifests pinned a control-plane configuration that
        # no longer exists; a resume from one must refuse, not misparse
        atomic_write(
            manifest_path(str(tmp_path)), pickle.dumps({"version": 2})
        )
        with pytest.raises(SimulationError, match="version 2"):
            load_manifest(str(tmp_path))

    def test_version_4_manifest_refused_by_path(self, tmp_path):
        # version 4 pickled the driver's jitter state as a class that no
        # longer exists
        path = manifest_path(str(tmp_path))
        atomic_write(path, pickle.dumps({"version": 4, "faults": None}))
        with pytest.raises(SimulationError, match="version 4") as info:
            load_manifest(str(tmp_path))
        assert path in str(info.value)

    def test_version_5_manifest_refused(self, tmp_path):
        # version 5 pickled the power traces' samples as lists of floats;
        # version 6 carried a telemetry bank cursor and an observer slot
        # table; version 7 carried per-shard dark sets; version 8 carried
        # the observer block of shard-resident attack monitors
        path = manifest_path(str(tmp_path))
        for version in (5, 6, 7, 8):
            atomic_write(
                path, pickle.dumps({"version": version, "faults": None})
            )
            with pytest.raises(
                SimulationError, match=f"version {version}"
            ) as info:
                load_manifest(str(tmp_path))
            assert path in str(info.value)

    def test_manifest_naming_a_deleted_class_refused(self, tmp_path, monkeypatch):
        from repro.sim import parallel

        class _DriverFaultReplayer:
            pass

        _DriverFaultReplayer.__module__ = "repro.sim.parallel"
        _DriverFaultReplayer.__qualname__ = "_DriverFaultReplayer"
        monkeypatch.setattr(
            parallel, "_DriverFaultReplayer", _DriverFaultReplayer,
            raising=False,
        )
        blob = pickle.dumps({"version": 4, "faults": _DriverFaultReplayer()})
        monkeypatch.delattr(parallel, "_DriverFaultReplayer")
        assert b"_DriverFaultReplayer" in blob
        path = manifest_path(str(tmp_path))
        atomic_write(path, blob)
        with pytest.raises(SimulationError, match="another build") as info:
            load_manifest(str(tmp_path))
        assert path in str(info.value)

    def test_missing_manifest_names_resume(self, tmp_path):
        with pytest.raises(SimulationError, match="nothing to resume"):
            load_manifest(str(tmp_path))


class TestCheckpointTransparency:
    def test_checkpointing_preserves_golden_trace(self, tmp_path):
        plain = build()
        plain.run(600, parallel=2, coalesce=True)
        plain.close()
        ckpt = build()
        ckpt.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        ckpt.run(600, parallel=2, coalesce=True)
        ckpt.close()
        assert snapshot(plain) == snapshot(ckpt)
        metrics = ckpt._parallel.res_metrics
        assert metrics.checkpoints >= 4
        assert metrics.checkpoint_bytes > 0
        # only the latest checkpoint generation is kept on disk
        manifest = load_manifest(str(tmp_path))
        kept = sorted(p for p in os.listdir(tmp_path) if p.startswith("shard-"))
        assert kept == [
            os.path.basename(shard_snapshot_path(str(tmp_path), i, manifest["seq"]))
            for i in range(2)
        ]


class TestSupervisedRecovery:
    def test_crash_recovery_without_snapshots(self):
        golden = build()
        golden.run(600, parallel=2, coalesce=True)
        golden.close()
        sim = build()
        sim.enable_resilience(max_restarts=2)
        sim.run(300, parallel=2, coalesce=True)
        sim._parallel.debug_crash_worker(1)
        sim.run(300, parallel=2, coalesce=True)
        sim.close()
        assert snapshot(golden) == snapshot(sim)
        metrics = sim._parallel.res_metrics
        assert metrics.restarts == 1
        assert metrics.replayed_frames > 0
        assert metrics.recovery_wall_s > 0.0

    def test_crash_recovery_from_snapshot_replays_less(self, tmp_path):
        golden = build()
        golden.run(600, parallel=2, coalesce=True)
        golden.close()
        full = build()
        full.enable_resilience(max_restarts=1)
        full.run(300, parallel=2, coalesce=True)
        full._parallel.debug_crash_worker(0)
        full.run(300, parallel=2, coalesce=True)
        full.close()
        snap = build()
        snap.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0, max_restarts=1
        )
        snap.run(300, parallel=2, coalesce=True)
        snap._parallel.debug_crash_worker(0)
        snap.run(300, parallel=2, coalesce=True)
        snap.close()
        assert snapshot(golden) == snapshot(full) == snapshot(snap)
        # the snapshot bounds the replay: frames since the last
        # checkpoint, not since the start of the run
        assert (
            snap._parallel.res_metrics.replayed_frames
            < full._parallel.res_metrics.replayed_frames
        )

    def test_hang_recovery(self):
        golden = build()
        golden.run(600, parallel=2, coalesce=True)
        golden.close()
        sim = build()
        sim.enable_resilience(barrier_timeout_s=2.0, max_restarts=1)
        sim.run(300, parallel=2, coalesce=True)
        sim._parallel.debug_hang_worker(0, 8.0)
        sim.run(300, parallel=2, coalesce=True)
        sim.close()
        assert snapshot(golden) == snapshot(sim)
        assert sim._parallel.res_metrics.restarts == 1

    def test_unsupervised_hang_is_descriptive(self):
        sim = build()
        sim.enable_resilience(barrier_timeout_s=2.0, max_restarts=0)
        sim.run(60, parallel=2)
        # no respawn budget, so no frame log kept for a replay
        assert sim._parallel._frame_log == [[], []]
        sim._parallel.debug_hang_worker(1, 8.0)
        with pytest.raises(SimulationError) as err:
            sim.run(60, parallel=2)
        message = str(err.value)
        assert "shard worker 1 hung" in message
        assert "barrier_timeout_s" in message
        assert "last reply" in message
        assert "barrier_wait_s" in message
        # the engine tore itself down; nothing leaked
        assert sim._parallel._closed
        assert sim._parallel._frame_log == [[], []]

    def test_exhausted_budget_is_descriptive(self):
        sim = build()
        sim.enable_resilience(max_restarts=0)
        sim.run(60, parallel=2)
        sim._parallel.debug_crash_worker(1)
        with pytest.raises(SimulationError, match="restart budget exhausted"):
            sim.run(60, parallel=2)
        assert sim._parallel._closed


class TestResume:
    def test_fleet_resume_bit_identical(self, tmp_path):
        golden = build()
        golden.run(600, parallel=2, coalesce=True)
        golden.close()
        part = build()
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        part.run(300, parallel=2, coalesce=True)
        part.close()  # "the process died here"
        res = build()
        res.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        res.run(300, parallel=2, coalesce=True, resume=True)
        res.run(300, parallel=2, coalesce=True)
        res.close()
        assert snapshot(golden) == snapshot(res)

    def test_straddling_window_resume(self, tmp_path):
        """A resumed caller window that straddles the checkpoint time
        runs only its uncovered tail, but reports the full window."""
        golden = build()
        golden.run(600, parallel=2, coalesce=True)
        golden.close()
        part = build()
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        part.run(250, parallel=2, coalesce=True)
        part.close()
        res = build()
        res.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        res.run(600, parallel=2, coalesce=True, resume=True)
        res.close()
        assert snapshot(golden) == snapshot(res)

    def test_resume_traced_timeline_matches_golden(self, tmp_path):
        # the golden run issues the same caller windows the resumed run
        # will reissue (spans record caller windows, so the sequence of
        # run() calls is part of the timeline contract)
        golden = build()
        golden.enable_tracing()
        golden.enable_resilience(
            checkpoint_dir=str(tmp_path / "g"), checkpoint_every=120.0
        )
        golden.run(300, parallel=2, coalesce=True)
        golden.run(300, parallel=2, coalesce=True)
        golden.close()
        part = build()
        part.enable_tracing()
        part.enable_resilience(
            checkpoint_dir=str(tmp_path / "r"), checkpoint_every=120.0
        )
        part.run(300, parallel=2, coalesce=True)
        part.close()
        res = build()
        res.enable_tracing()
        res.enable_resilience(
            checkpoint_dir=str(tmp_path / "r"), checkpoint_every=120.0
        )
        res.run(300, parallel=2, coalesce=True, resume=True)
        res.run(300, parallel=2, coalesce=True)
        res.close()
        assert snapshot(golden) == snapshot(res)
        assert timeline_key(golden.tracer) == timeline_key(res.tracer)

    def test_manifest_worker_count_pinned(self, tmp_path):
        part = build()
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        part.run(300, parallel=2, coalesce=True)
        part.close()
        res = build()
        res.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        with pytest.raises(SimulationError, match="worker"):
            res.run(300, parallel=1, coalesce=True, resume=True)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", SEED + 1),
            ("tenants_per_host", 3),
            ("population", "objects"),
            ("rack_size", 1),
            ("breaker_rated_watts", 900.0),
        ],
    )
    def test_resume_rejects_differently_built_simulation(
        self, fleet_checkpoint, field, value
    ):
        kwargs = dict(servers=4, rack_size=2, seed=SEED, sample_interval_s=30.0)
        kwargs[field] = value
        res = DatacenterSimulation(**kwargs)
        res.enable_resilience(
            checkpoint_dir=fleet_checkpoint, checkpoint_every=120.0
        )
        try:
            with pytest.raises(SimulationError, match=f"{field}="):
                res.run(300, parallel=2, coalesce=True, resume=True)
            # refused before any shard worker was spawned
            assert res._parallel is None
            assert not multiprocessing.active_children()
        finally:
            res.close()


@pytest.fixture(scope="module")
def fleet_checkpoint(tmp_path_factory):
    """One checkpoint of ``build()`` at 300 s, shared by the resume tests."""
    directory = str(tmp_path_factory.mktemp("fleet-ckpt"))
    part = build()
    part.enable_resilience(checkpoint_dir=directory, checkpoint_every=120.0)
    part.run(300, parallel=2, coalesce=True)
    part.close()
    return directory


class TestPopulationPickle:
    def test_round_trip_preserves_task_info(self):
        sim = build(servers=2, rack_size=2)
        pop = sim.population
        state = pickle.loads(pickle.dumps(pop))
        assert state.host_demand(0) == pop.host_demand(0)
        assert len(state._task_info) == len(pop._task_info)
        # the restored mapping is keyed on the *restored* task objects
        for row in state._tasks:
            for task in row:
                if id(task) in state._task_info:
                    shard, demand = state._task_info[id(task)]
                    assert demand is not None
