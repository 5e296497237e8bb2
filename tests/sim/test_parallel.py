"""Golden-trace equivalence: the parallel driver must be bit-identical
to the serial driver on equal seeds — same trace timestamps, same watts,
same gaps, same tick counts, same fault counters, same trip log. No
tolerance: float-for-float equality is the contract (`docs/parallel.md`).
"""

import multiprocessing

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import CloudError, SimulationError
from repro.sim.fastforward import DriverHorizon
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim.parallel import ParallelFleetEngine, _ShardFailure

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
    """Everything the golden-trace contract covers, as plain tuples."""
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
    """One fault of every trace-visible family, early and overlapping."""
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


def run_pair(seconds, *, coalesce, interval=1.0, schedule=None, workers=2,
             servers=8, rack_size=4, dt=1.0):
    serial = build(interval, servers, rack_size,
                   schedule=None if schedule is None else chaos_schedule())
    serial.run(seconds, dt=dt, coalesce=coalesce)
    par = build(interval, servers, rack_size,
                schedule=None if schedule is None else chaos_schedule())
    par.run(seconds, dt=dt, coalesce=coalesce, parallel=workers)
    try:
        yield_pair = snapshot(serial), snapshot(par)
    finally:
        par.close()
    return yield_pair


class TestGoldenTrace:
    def test_base_ticks_bit_identical(self):
        serial, par = run_pair(90.0, coalesce=False)
        assert serial == par

    def test_coalesced_bit_identical(self):
        serial, par = run_pair(3600.0, coalesce=True, interval=30.0)
        assert serial == par

    def test_faults_base_ticks_bit_identical(self):
        serial, par = run_pair(420.0, coalesce=False, schedule="chaos")
        assert serial == par
        # the schedule actually exercised the interesting paths
        assert serial["faults"]["injected:machine-crash"] == 1
        assert serial["faults"]["trace-gap-samples"] > 0
        assert serial["tripped"] or serial["faults"]["breaker-recloses"] == 1
        assert serial["trip_log"] == par["trip_log"]

    def test_faults_coalesced_bit_identical(self):
        serial, par = run_pair(
            900.0, coalesce=True, interval=30.0, schedule="chaos"
        )
        assert serial == par
        assert serial["faults"]["samples-jittered"] > 0

    def test_single_worker_and_worker_surplus(self):
        # workers clamp to the rack count; both extremes stay identical
        serial, one = run_pair(60.0, coalesce=False, workers=1)
        assert serial == one
        serial2, many = run_pair(60.0, coalesce=False, workers=16)
        assert serial2 == many

    def test_multiple_runs_accumulate_identically(self):
        serial = build()
        serial.run(45.0)
        serial.run(45.0, coalesce=True)
        par = build()
        par.run(45.0, parallel=2)
        par.run(45.0, coalesce=True, parallel=2)
        try:
            assert snapshot(serial) == snapshot(par)
        finally:
            par.close()


class TestGuards:
    def test_parallel_after_serial_run_raises(self):
        sim = build()
        sim.run(10.0)
        with pytest.raises(SimulationError, match="fresh"):
            sim.run(10.0, parallel=2)

    def test_later_runs_inherit_parallel_mode(self):
        # attack strategies call sim.run() bare mid-campaign; those runs
        # must stay on the worker-held fleet, identical to an explicit
        # parallel=N continuation
        explicit = build()
        explicit.run(10.0, parallel=2)
        explicit.run(10.0, parallel=2)
        inherit = build()
        inherit.run(10.0, parallel=2)
        inherit.run(10.0)
        try:
            assert snapshot(explicit) == snapshot(inherit)
        finally:
            explicit.close()
            inherit.close()

    def test_on_tick_rejected_in_parallel(self):
        sim = build()
        with pytest.raises(SimulationError, match="on_tick"):
            sim.run(10.0, parallel=2, on_tick=lambda s: None)

    def test_install_faults_after_parallel_raises(self):
        sim = build()
        sim.run(10.0, parallel=2)
        try:
            with pytest.raises(SimulationError, match="before the first parallel"):
                sim.install_faults(chaos_schedule())
        finally:
            sim.close()

    def test_launches_replay_and_cloud_freezes(self):
        # instances launched before the first parallel run are replayed
        # into the shard workers; afterwards the driver-side cloud is
        # frozen, so a late launch fails loudly instead of diverging
        sim = build()
        sim.cloud.launch_instance("tenant-a")
        sim.run(10.0, parallel=2)
        try:
            with pytest.raises(CloudError, match="frozen"):
                sim.cloud.launch_instance("tenant-a")
        finally:
            sim.close()

    def test_bare_horizon_sources_block_parallel(self):
        # raw callables may close over driver-side host state; only
        # DriverHorizon-wrapped sources are allowed to cross into
        # parallel mode
        sim = build()
        sim.horizon_sources.append(lambda now: now + 5.0)
        with pytest.raises(SimulationError, match="horizon source"):
            sim.run(10.0, parallel=2)

    def test_driver_horizon_sources_fold_in_parallel(self):
        sim = build()
        sim.horizon_sources.append(DriverHorizon(lambda now: now + 5.0))
        try:
            sim.run(10.0, parallel=2, coalesce=True)
            assert sim.now == 10.0
        finally:
            sim.close()


class TestDriverKernelState:
    """Kernel hooks set on the driver cannot follow the fleet into the
    shard workers, which rebuild every host from the fleet config."""

    @pytest.mark.parametrize("attr", ("rapl_read_hook", "tick_listeners"))
    def test_hooked_kernel_refused_before_any_segment(self, attr):
        sim = build(servers=2, rack_size=2)
        kernel = sim.fleet.kernels[1]
        if attr == "rapl_read_hook":
            kernel.rapl_read_hook = lambda reader, domain: 0
        else:
            kernel.tick_listeners.append(lambda result: None)
        with pytest.raises(SimulationError, match=f"host 1 has kernel.{attr}"):
            sim.run(5.0, parallel=1)
        # refused before any shard worker was spawned
        assert sim._parallel is None
        assert not multiprocessing.active_children()


class _DeadProcess:
    """A worker process stub that has already exited."""

    exitcode = 3

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class TestStartupDeath:
    def test_closed_pipe_at_startup_names_the_death(self):
        # a spawned worker that dies before its handshake (say, failing
        # to import the parent's __main__) leaves a pipe at EOF, which
        # poll() reports as readable
        engine = ParallelFleetEngine.__new__(ParallelFleetEngine)
        parent, child = multiprocessing.Pipe()
        child.close()
        engine.conns = [parent]
        engine.procs = [_DeadProcess()]
        try:
            with pytest.raises(_ShardFailure) as info:
                engine._wait_ready(0)
        finally:
            parent.close()
        assert info.value.kind == "died"
        assert info.value.detail == "died during startup (exitcode 3)"
        assert isinstance(info.value.cause, EOFError)


class TestSchedulePartition:
    def test_partition_routes_and_remaps(self):
        schedule = chaos_schedule()
        shards, driver = schedule.partition(
            [[0, 1, 2, 3], [4, 5, 6, 7]], [[0], [1]],
            total_servers=8, total_racks=2,
        )
        assert [e.kind for e in driver] == [FaultKind.CLOCK_JITTER]
        # crash of server 3 stays local index 3 on shard 0
        kinds0 = {(e.kind, e.server) for e in shards[0]}
        assert (FaultKind.MACHINE_CRASH, 3) in kinds0
        assert (FaultKind.RAPL_DROP, 0) in kinds0
        # rack 1 and server 5 land on shard 1 remapped to local indices
        kinds1 = {(e.kind, e.server) for e in shards[1]}
        assert (FaultKind.BREAKER_TRIP, 0) in kinds1
        assert (FaultKind.OOM_KILL, 1) in kinds1
        assert all(s.seed == schedule.seed for s in shards + [driver])

    def test_partition_requires_full_cover(self):
        with pytest.raises(SimulationError, match="cover"):
            chaos_schedule().partition(
                [[0, 1]], [[0]], total_servers=8, total_racks=2
            )
