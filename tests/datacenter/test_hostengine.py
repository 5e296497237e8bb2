"""Golden-trace equivalence for the columnar host engine.

``hosts="columnar"`` must be observationally invisible: the vectorized
cold-host tick path, the lazy hot-host materialization, and the
column→object→column round trips have to reproduce the per-object
``Kernel.tick`` reference float-for-float — same trace timestamps, same
watts, same fault counters, same attack outcomes (`docs/hostengine.md`).
The scenarios mirror the paper's figure substrates: the Figure 2 fleet
trace (fine and coalesced), the Figure 3 attack campaign, and chaos
schedules that force materialization mid-run.
"""

import pickle

import numpy as np
import pytest

from repro.attack.monitor import CrestDetector
from repro.attack.strategies import SynergisticAttack
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.tenants import DiurnalProfile
from repro.datacenter.topology import wall_power_watts
from repro.errors import SimulationError
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from tests.conftest import hold_hot, make_cpu_workload

SEED = 7

#: a benign load that peaks two virtual hours in, with the day factor
#: pinned: workers spawn and die at almost every adjustment
CHURN_PROFILE = DiurnalProfile(peak_hour=2.0, day_factor_range=(1.0, 1.0))
CHURN_SLICE_S = 60.0
CHURN_SLICES = 120
#: pseudo-files whose text depends on the replayed kernel state
CHURN_READS = (
    "/proc/loadavg",
    "/proc/stat",
    "/sys/class/powercap/intel-rapl:0/energy_uj",
    "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input",
    "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp2_input",
)


def build(hosts, schedule=None, servers=8, rack_size=4, tenants=3,
          interval=1.0):
    sim = DatacenterSimulation(
        servers=servers, rack_size=rack_size, seed=SEED,
        sample_interval_s=interval, tenants_per_host=tenants,
        population="columnar", hosts=hosts,
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
        "trip_log": sim.trip_log(),
    }


def build_churn(hosts):
    """8 hosts, 4 tenants each, breakers rated for the benign peak."""
    return DatacenterSimulation(
        servers=8, rack_size=8, seed=SEED, sample_interval_s=CHURN_SLICE_S,
        tenants_per_host=4, population="columnar", hosts=hosts,
        tenant_profile=CHURN_PROFILE, breaker_rated_watts=4000.0,
    )


def run_churn(sim, after_slice=None):
    """Two coalesced virtual hours in one-sample slices."""
    for _ in range(CHURN_SLICES):
        sim.run(CHURN_SLICE_S, dt=1.0, coalesce=True)
        if after_slice is not None:
            after_slice(sim)


def live_slots(he, i):
    """Host ``i``'s live mirror slots, ascending (its task order)."""
    n = he._s_len
    return np.flatnonzero(he._s_alive[:n] & (he._s_host[:n] == i)).tolist()


def assert_cold_folds(he, i):
    """Host ``i``'s folds equal a fresh fold over its live slots."""
    he.fingerprints()  # a reader: refolds the dirty hosts
    slots = live_slots(he, i)
    fp = 0.0
    totals = [0] * he._C
    for s in slots:
        d = float(he._s_demand[s])
        fp = fp + d
        c = int(he._s_cpu[s])
        totals[c] = totals[c] + d
    assert float(he._fp[i]) == fp
    assert he._cpu_demand[i].tolist() == totals
    assert he._scale[i].tolist() == [
        1.0 if t <= 1.0 else 1.0 / t for t in totals
    ]
    # each row's stack holds its live workers, newest on top
    pop = he.population
    k = pop.k_per_host
    for row in range(i * k, (i + 1) * k):
        stack = []
        s = int(he._row_top[row])
        while s >= 0:
            stack.append(s)
            s = int(he._s_prev[s])
        assert len(stack) == int(pop.workers[row])
        assert stack == sorted(stack, reverse=True) and set(stack) <= set(slots)
    assert he._op_delta.shape[1] == k


def records(he, i):
    """Host ``i``'s op log as ``(barrier, deltas)`` pairs."""
    bars, deltas = he.op_records(i)
    return [(bar, tuple(d)) for bar, d in zip(bars, deltas)]


def kill_then_spawn(deltas):
    """Whether a kill on one row precedes a spawn on a later row."""
    return any(
        d < 0 and any(e > 0 for e in deltas[j + 1 :])
        for j, d in enumerate(deltas)
    )


def assert_materialized_equal(ref, col):
    """Materialize every cold host; traces and replayed kernels match."""
    he = col.host_engine
    for i in range(he.n):
        hold_hot(he, i)
    assert he.cold_count() == 0
    assert snapshot(ref) == snapshot(col)
    for r_host, c_host in zip(ref.cloud.hosts, col.cloud.hosts):
        for path in CHURN_READS:
            assert c_host.engine.vfs.read(path) == r_host.engine.vfs.read(path)


def force_targets(sim, plan):
    """Override tenant targets at given steps: ``{step: {row: f(workers)}}``.

    The override runs inside the population step, so forced churn rides
    the same barrier as the natural churn of that step.
    """
    pop = sim.population
    real = pop._targets
    steps = [0]

    def targets(now, k_now, rows):
        out = real(now, k_now, rows)
        for row, want in plan.get(steps[0], {}).items():
            out[rows == row] = want(int(pop.workers[row]))
        steps[0] += 1
        return out

    pop._targets = targets


def random_plan(seed, steps=40, rows=32):
    """Seeded random forced churn, plus the batch shapes the vector
    rounds must order like the per-row scalar loop:

    * host 1 at step 20 kills on rows 4 and 6 and spawns on rows 5 and
      7: a kill then a spawn on a later row, and the host going dirty
      twice in one batch;
    * row 9 (host 2) spawns 127 workers at step 25 and kills them all at
      step 26, the extremes of an op record's delta;
    * row 12 (host 3) holds no worker until step 10, so its first spawn,
      which creates its container, lands in a mid-run batch.
    """
    rng = np.random.default_rng(seed)
    plan = {}
    for step in range(steps):
        picked = rng.choice(rows, size=rows // 2, replace=False).tolist()
        deltas = rng.integers(-3, 5, size=len(picked)).tolist()
        plan[step] = {
            row: (lambda w, d=d: max(0, w + d)) for row, d in zip(picked, deltas)
        }
    for step in range(10):
        plan[step][12] = lambda w: 0
    plan[10][12] = lambda w: 2
    plan[19].update({4: lambda w: w + 3, 6: lambda w: w + 2})
    plan[20].update({
        4: lambda w: w - 2, 5: lambda w: w + 3,
        6: lambda w: w - 1, 7: lambda w: w + 2,
    })
    plan[25][9] = lambda w: w + 127
    plan[26][9] = lambda w: w - 127
    return plan


def assert_mirror_matches(ref, col):
    """Every cold host's mirror equals the reference kernel's state:
    placement CPUs and demands in task order, the per-CPU placement fold,
    the demand fingerprint, and the population's host demands."""
    he = col.host_engine
    he.fingerprints()  # a reader: refolds the dirty hosts
    for i in range(he.n):
        if not he.is_cold(i):
            continue
        sched = ref.cloud.hosts[i].kernel.scheduler
        slots = live_slots(he, i)
        tasks = list(sched.iter_tasks())
        assert he._s_cpu[slots].tolist() == [sched._placement[t] for t in tasks]
        assert he._s_demand[slots].tolist() == [
            t.workload.demand() for t in tasks
        ]
        loads = [0] * he._C
        for t, c in sched._placement.items():
            loads[c] = loads[c] + t.workload.demand()
        assert he._cpu_demand[i].tolist() == loads
        assert float(he._fp[i]) == ref.cloud.hosts[i].kernel.demand_fingerprint()
    assert (
        col.population._host_demand.tolist()
        == ref.population._host_demand.tolist()
    )


def chaos_schedule():
    """Every trace-visible fault family, incl. host-scoped RAPL kinds."""
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


class TestConstruction:
    def test_requires_columnar_population(self):
        with pytest.raises(SimulationError, match="columnar population"):
            DatacenterSimulation(
                servers=4, rack_size=2, seed=SEED,
                population="objects", hosts="columnar",
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="hosts must be"):
            DatacenterSimulation(servers=4, rack_size=2, hosts="rows")

    def test_whole_fleet_adopts_cold(self):
        sim = build("columnar")
        assert sim.host_engine.cold_count() == 8
        assert sim.host_engine.stats()["materializations"] == 0


class TestSerialGolden:
    def test_fine_bit_identical(self):
        ref = build("objects")
        ref.run(300.0, dt=1.0, coalesce=False)
        col = build("columnar")
        col.run(300.0, dt=1.0, coalesce=False)
        assert snapshot(ref) == snapshot(col)
        assert col.host_engine.cold_count() == 8
        assert col.host_engine.stats()["materializations"] == 0

    def test_coalesced_bit_identical(self):
        ref = build("objects", interval=60.0)
        ref.run(4 * 3600.0, dt=1.0, coalesce=True)
        col = build("columnar", interval=60.0)
        col.run(4 * 3600.0, dt=1.0, coalesce=True)
        assert snapshot(ref) == snapshot(col)
        # coalescing must engage on the cold path too
        assert col.metrics.ticks < 4 * 3600

    def test_faulted_coalesced_bit_identical(self):
        ref = build("objects", chaos_schedule())
        ref.run(600.0, dt=1.0, coalesce=True)
        col = build("columnar", chaos_schedule())
        col.run(600.0, dt=1.0, coalesce=True)
        assert snapshot(ref) == snapshot(col)
        # host-scoped faults (crash, OOM, RAPL) materialized their hosts
        assert col.host_engine.stats()["materializations"] > 0

    def test_all_hot_bit_identical(self):
        ref = build("objects")
        ref.run(120.0, dt=1.0, coalesce=False)
        col = build("columnar")
        for i in range(len(col.cloud.hosts)):
            hold_hot(col.host_engine, i)
        assert col.host_engine.cold_count() == 0  # every host pinned hot
        col.run(120.0, dt=1.0, coalesce=False)
        assert snapshot(ref) == snapshot(col)


class TestMaterializationLifecycle:
    def test_observe_materializes_terminate_demotes(self):
        ref = build("objects")
        inst_r = ref.cloud.launch_instance("attacker")
        ref.run(120.0, dt=1.0)
        leak_r = inst_r.container.read(
            "/sys/class/powercap/intel-rapl:0/energy_uj"
        )
        ref.cloud.terminate_instance(inst_r)
        ref.run(120.0, dt=1.0)

        col = build("columnar")
        he = col.host_engine
        inst_c = col.cloud.launch_instance("attacker")
        assert not he.is_cold(inst_c.host_index)  # launch pins it hot
        col.run(120.0, dt=1.0)
        leak_c = inst_c.container.read(
            "/sys/class/powercap/intel-rapl:0/energy_uj"
        )
        col.cloud.terminate_instance(inst_c)
        assert he.is_cold(inst_c.host_index)  # last tenant out: demoted
        assert he.demotions >= 1
        col.run(120.0, dt=1.0)

        assert leak_c == leak_r
        assert snapshot(ref) == snapshot(col)

    def test_container_id_sequence_survives_deferral(self):
        ref = build("objects")
        ref.run(60.0, dt=1.0)
        a = ref.cloud.launch_instance("alice")
        b = ref.cloud.launch_instance("bob")
        ref_ids = (a.container.container_id, b.container.container_id)

        col = build("columnar")
        col.run(60.0, dt=1.0)  # deferred ticks queue container replays
        a = col.cloud.launch_instance("alice")
        b = col.cloud.launch_instance("bob")
        assert (a.container.container_id, b.container.container_id) == ref_ids

    def test_wall_cache_cold_routing_and_invalidation(self):
        col = build("columnar")
        fleet = col.fleet
        he = col.host_engine
        cfg = col.config.power_config
        col.run(60.0, dt=1.0)
        kernel = col.cloud.hosts[0].kernel

        # cold: answered from the wall column, no tick
        assert he.is_cold(0)
        cold_watts = fleet.host_watts()[0]
        assert cold_watts == he.wall_watts(0)

        # materialize: the replayed kernel computes the same number
        he.ensure_hot(0)
        assert fleet.host_watts()[0] == cold_watts
        assert cold_watts == wall_power_watts(kernel, cfg)

        # a new tick: the vector reads the hot kernel's new tick
        ticks = kernel.ticks_taken
        col.run(1.0, dt=1.0)
        assert kernel.ticks_taken > ticks
        assert fleet.host_watts()[0] == wall_power_watts(kernel, cfg)

        # demote: back to the cold column, bitwise consistent
        assert he.maybe_demote(0)
        assert fleet.host_watts()[0] == he.wall_watts(0)

    @pytest.mark.parametrize("stage, name", [("thermal", "thermal"), ("rapl", "RAPL")])
    def test_noise_cursor_desync_refused(self, stage, name):
        col = build("columnar")
        he = col.host_engine
        col.run(5.0, dt=1.0)
        assert he.is_cold(2) and he.is_cold(3)
        getattr(col.cloud.hosts[2].kernel, stage)._noise_calls += 1
        with pytest.raises(
            SimulationError, match=f"{name} noise cursor desync on host 2"
        ):
            he.ensure_hot(2)
        # an untouched host still materializes cleanly
        he.ensure_hot(3)
        assert not he.is_cold(3)

    def test_cloud_run_between_fleet_runs_stays_in_step(self):
        # ContainerCloud.run ticks every host kernel directly: cold hosts
        # must materialize first, or their columns fall behind the kernel
        sims = []
        for hosts in ("objects", "columnar"):
            sim = build(hosts)
            sim.run(60.0, dt=1.0)
            sim.cloud.run(5.0)
            inst = sim.cloud.launch_instance("attacker")
            sim.run(30.0, dt=1.0)
            if sim.host_engine is not None:
                for i in range(sim.host_engine.n):
                    sim.host_engine.ensure_hot(i)
            leak = inst.read("/sys/class/powercap/intel-rapl:0/energy_uj")
            kernels = [
                (
                    host.kernel.ticks_taken,
                    host.kernel.thermal._noise_calls,
                    host.kernel.rapl._noise_calls,
                )
                for host in sim.cloud.hosts
            ]
            sims.append((snapshot(sim), kernels, leak))
        assert sims[0] == sims[1]

    def test_dark_hosts_skip_column_ticks(self):
        schedule = FaultSchedule(
            [FaultEvent(at=30.0, kind=FaultKind.BREAKER_TRIP,
                        duration_s=120.0, server=0)],
            seed=13,
        )
        ref = build("objects", schedule)
        ref.run(240.0, dt=1.0, coalesce=False)
        col = build("columnar", schedule)
        col.run(240.0, dt=1.0, coalesce=False)
        assert snapshot(ref) == snapshot(col)
        # dark hosts stay cold (a trip is rack-scoped, not per-object)
        # and their tick mirror froze during the outage
        he = col.host_engine
        assert he.is_cold(0)
        assert he.ticks_taken(0) < he.ticks_taken(7)


class TestColdChurn:
    def test_folds_match_live_slots_after_every_slice(self):
        sim = build_churn("columnar")
        he = sim.host_engine
        checked = []

        def check(sim):
            for i in range(he.n):
                if he.is_cold(i):
                    assert_cold_folds(he, i)
                    checked.append(i)

        run_churn(sim, check)
        assert len(checked) == he.n * CHURN_SLICES  # nothing materialized
        assert sim.population.spawns > 0 and sim.population.kills > 0

    def test_materialize_after_churn_bit_identical(self):
        ref = build_churn("objects")
        run_churn(ref)
        col = build_churn("columnar")
        run_churn(col)
        he = col.host_engine
        assert he.cold_count() == he.n
        logged = [rec for i in range(he.n) for rec in records(he, i)]
        assert any(min(d) < 0 for _, d in logged)
        assert any(max(d) > 0 for _, d in logged)
        # one record per (host, barrier), and only with churn in it
        for i in range(he.n):
            bars = [bar for bar, _ in records(he, i)]
            assert len(set(bars)) == len(bars)
        assert all(any(d) for _, d in logged)
        assert he.op_log_bytes() == len(logged) * (4 + 4 + 4)
        assert_materialized_equal(ref, col)
        assert he.stats()["materializations"] == he.n
        assert he.op_log_bytes() == 0

    def test_forced_churn_replays_bit_identical(self):
        # host 0: rows 0 and 1 first spawn (each creates its container)
        # at the first step, row 1 three workers at once; host 1 at a
        # later step: a kill of two on row 4, then spawns on rows 5 and 6
        plan = {
            0: {0: lambda w: 1, 1: lambda w: 3},
            30: {
                4: lambda w: max(w, 2) - 2,
                5: lambda w: w + 3,
                6: lambda w: w + 1,
            },
        }
        ref = build_churn("objects")
        col = build_churn("columnar")
        for sim in (ref, col):
            force_targets(sim, plan)
            for _ in range(40):
                sim.run(CHURN_SLICE_S, dt=1.0, coalesce=True)
        he = col.host_engine
        assert he.cold_count() == he.n
        first = records(he, 0)[0]
        assert first[1][:2] == (1, 3)
        forced = [d for _, d in records(he, 1) if d[1:3] == (3, 1)]
        assert forced and kill_then_spawn(forced[0]) and forced[0][0] <= -2
        # no container exists yet: every row's creation is deferred
        pop = col.population
        assert all(c is None for c in pop._containers)
        assert_materialized_equal(ref, col)
        assert all(c is not None for c in pop._containers[:8])

    def test_out_of_range_delta_refused(self):
        col = build_churn("columnar")
        force_targets(col, {0: {2: lambda w: 200}})
        with pytest.raises(SimulationError, match="op record"):
            col.run(CHURN_SLICE_S, dt=1.0, coalesce=True)

    @pytest.mark.parametrize("seed", [3, 17, 2026])
    def test_random_batches_match_object_hosts(self, seed):
        plan = random_plan(seed)
        ref = build_churn("objects")
        col = build_churn("columnar")
        for sim in (ref, col):
            force_targets(sim, plan)
        for _ in range(len(plan)):
            for sim in (ref, col):
                sim.run(CHURN_SLICE_S, dt=1.0, coalesce=True)
            assert_mirror_matches(ref, col)
        he = col.host_engine
        assert he.cold_count() == he.n
        host1 = [d for _, d in records(he, 1)]
        assert (-2, 3, -1, 2) in host1
        row9 = [d[1] for _, d in records(he, 2)]
        assert 127 in row9 and -127 in row9
        row12 = [(bar, d[0]) for bar, d in records(he, 3) if d[0]]
        assert row12[0][1] == 2 and row12[0][0] > 0
        assert all(c is None for c in col.population._containers)
        assert_materialized_equal(ref, col)

    def test_vector_kind_draws_match_scalar(self):
        from repro.datacenter.population import _draws_web
        from repro.sim.rng import keyed_u01_at

        pop = build_churn("columnar").population
        keys = np.repeat(pop._kind_keys, 50)
        ordinals = np.tile(np.arange(50), pop.n)
        web = keyed_u01_at(keys, ordinals) < 0.6
        assert web.tolist() == [
            _draws_web(int(key), int(o)) for key, o in zip(keys, ordinals)
        ]


def build_memo(hosts, schedule=None):
    """8 hosts in two racks, 4 tenants each, churn every 60 s."""
    sim = DatacenterSimulation(
        servers=8, rack_size=4, seed=SEED, sample_interval_s=CHURN_SLICE_S,
        tenants_per_host=4, population="columnar", hosts=hosts,
        tenant_profile=CHURN_PROFILE, breaker_rated_watts=4000.0,
    )
    if schedule is not None:
        sim.install_faults(schedule)
    return sim


def reconcile(sim, rows, want):
    """Reconcile tenant ``rows`` to ``want(workers)`` workers at once,
    between two ticks (cold rows churn through the host engine)."""
    pop = sim.population
    rows = np.asarray(rows, dtype=np.int64)
    goal = [want(int(pop.workers[r])) for r in rows]
    pop._reconcile(rows, np.array(goal, dtype=np.int64))


def materialize(sim):
    he = sim.host_engine
    if he is not None:
        he.ensure_hot(2)
        assert he._sweep is None  # the host's slots died


def demote(sim):
    he = sim.host_engine
    if he is not None:
        assert he.maybe_demote(2)
        assert he._sweep is None  # the host's slots are back


#: each case's mutations of both fleets, injected at 90 s and at 100 s,
#: mid-slice between two 1-s ticks; and whether the first drops the memo
MEMO_CASES = {
    "cold spawn": (lambda sim: reconcile(sim, [5], lambda w: w + 2), None, True),
    "cold kill": (lambda sim: reconcile(sim, [9], lambda w: w - 1), None, True),
    # a kill leaves host 3 dirty; the spawn's batch refolds it first
    "dirty refold": (
        lambda sim: (
            reconcile(sim, [12], lambda w: w - 1),
            reconcile(sim, [13], lambda w: w + 1),
        ),
        None,
        True,
    ),
    # every worker dies: the dead slots dominate and the next gather
    # compacts them out of the columns
    "compaction": (lambda sim: reconcile(sim, range(32), lambda w: 0), None, True),
    "ensure_hot then demotion": (materialize, demote, True),
    # rack 0 trips at 90 s and recloses at 110 s: the memo survives
    "rack dark and back": (None, None, False),
}


class TestTickSweepMemo:
    """``tick_all`` reuses its sweep until something it reads changes."""

    @pytest.mark.parametrize("case", list(MEMO_CASES))
    def test_mutation_between_equal_dt_ticks(self, case):
        first, second, drops = MEMO_CASES[case]
        schedule = None
        if case == "rack dark and back":
            schedule = FaultSchedule(
                [FaultEvent(at=90.0, kind=FaultKind.BREAKER_TRIP,
                            duration_s=20.0, server=0)],
                seed=13,
            )
        ref = build_memo("objects", schedule)
        col = build_memo("columnar", schedule)
        he = col.host_engine
        hooks = {90.0: first, 100.0: second}
        for _ in range(150):
            hook = hooks.get(col.now)
            if hook is not None:
                warm = he._sweep is not None
                sweeps = he.stats()["sweeps"]
                for sim in (ref, col):
                    hook(sim)
            for sim in (ref, col):
                sim.run(1.0, dt=1.0)
            if hook is first and first is not None:
                assert warm
                assert he.stats()["sweeps"] == sweeps + drops
                if case == "compaction":
                    assert he._dead_slots == 0 and he._s_len == len(he._live())
            assert col.fleet.host_watts().tolist() == ref.fleet.host_watts().tolist()
            assert snapshot(col) == snapshot(ref)
        if case == "rack dark and back":
            # the dark rack's tick mirrors froze for the outage
            assert he.ticks_taken(0) == he.ticks_taken(7) - 20
        assert he.cold_count() == he.n
        # 150 equal-dt ticks sweep only after the churn at 0, 60 and 120 s
        # and after each mutation that dropped the memo
        assert he.stats()["sweeps"] < col.metrics.ticks
        assert he.stats()["sweeps"] == 3 + drops + (second is not None)

    def test_pickle_drops_the_memo(self):
        sim = build_memo("columnar")
        sim.run(90.0, dt=1.0)
        he = sim.host_engine
        assert he._sweep is not None
        warm = pickle.dumps(he)
        memo, he._sweep = he._sweep, None
        cold = pickle.dumps(he)
        he._sweep = memo
        assert warm == cold
        copy = pickle.loads(warm)
        assert copy._sweep is None
        sweeps = he.stats()["sweeps"]
        t0 = sim.now
        sim.run(1.0, dt=1.0)  # the live engine's memo is warm: no sweep
        copy.tick_all(1.0, frozenset(), t0)  # the copy's is cold: one sweep
        assert he.stats()["sweeps"] == sweeps
        assert copy.stats()["sweeps"] == sweeps + 1
        assert copy.walls().tolist() == he.walls().tolist()
        assert copy._ticks.tolist() == he._ticks.tolist()
        assert copy._bar_t0 == he._bar_t0 and copy._bar_dt == he._bar_dt

    def test_dt_miss_reuses_the_gathered_table(self):
        # a coalesced slice's shape: a 1-s tick after churn, then a 59-s
        # tick that regathers nothing
        sim = build_memo("columnar")
        sim.run(90.0, dt=1.0)
        blob = pickle.dumps(sim.host_engine)
        t0 = sim.now
        warm, cold = pickle.loads(blob), pickle.loads(blob)
        for he in (warm, cold):
            he.tick_all(1.0, frozenset(), t0)
        table = warm._sweep[0]
        cold._sweep = None
        for he in (warm, cold):
            he.tick_all(59.0, frozenset(), t0 + 1.0)
        assert warm._sweep[0] is table and warm._sweep[1] == 59.0
        assert warm.walls().tolist() == cold.walls().tolist()
        assert warm.stats()["sweeps"] == cold.stats()["sweeps"]

    def test_every_writer_drops_the_memo(self):
        # the cases above cannot single one writer out: before any tick,
        # every slot change is followed by a rescale and every rescale
        # follows a slot change, so each writer's drop backs the others
        sim = build_memo("columnar")
        he = sim.host_engine
        none = np.zeros(0, dtype=np.int64)
        writers = {
            "_append_slots": lambda: he._append_slots(none, np.zeros((4, 0))),
            "_kill_slots": lambda: he._kill_slots(none),
            "_rescale": lambda: he._rescale(none),
        }
        for name, write in writers.items():
            sim.run(1.0, dt=1.0)
            assert he._sweep is not None
            write()
            assert he._sweep is None, name


def forget(sim):
    """Drop the slice's steady-tick memos, so its next reads rebuild
    every one from the live state (the oracle's side)."""
    fleet = sim.fleet
    fleet._watts_key = fleet._totals = fleet._dark = None
    sim.population._due_k = None


def steady(sim):
    """What a steady tick keeps and reports: walls, rack totals, the dark
    set, breaker state, traces and the tenant-tick count."""
    fleet = sim.fleet
    crashed = fleet.injector.crashed_now() if fleet.injector else frozenset()
    return (
        fleet.host_watts().tolist(),
        fleet.rack_watts(crashed),
        sorted(fleet.dark()),
        [
            (b.state, b.thermal_accumulator, repr(b.tripped_at), b.trip_count)
            for b in fleet._breakers
        ],
        snapshot(sim),
        sim.population.tenant_ticks,
    )


def overload_rack_1(sim):
    # rack 1 draws ~1018 W, then ~1076 W after the churn at 120 s: at
    # 600 W its thermal element heats and trips it through the feed
    sim.racks[1].breaker.rated_watts = 600.0


#: each case's mutations of both fleets, keyed by the time they run
#: (mid-slice, between two equal-dt ticks), and its fault schedule
STEADY_CASES = {
    "cold spawn": ({90.0: MEMO_CASES["cold spawn"][0]}, ()),
    "cold kill": ({90.0: MEMO_CASES["cold kill"][0]}, ()),
    "rescale": ({90.0: MEMO_CASES["dirty refold"][0]}, ()),
    "ensure_hot then demotion": ({90.0: materialize, 100.0: demote}, ()),
    # rack 0 is dark across the churn at 120 s
    "rack dark for 20 s": (
        {},
        [FaultEvent(at=110.0, kind=FaultKind.BREAKER_TRIP, duration_s=20.0,
                    server=0)],
    ),
    "crash and reboot": (
        {},
        [FaultEvent(at=90.0, kind=FaultKind.MACHINE_CRASH, duration_s=20.0,
                    server=5)],
    ),
    # a forced trip and its reclose on a rack whose thermal element is
    # warm; the reclose zeroes it and the overload later trips the rack
    "forced trip then reset": (
        {85.0: overload_rack_1},
        [FaultEvent(at=90.0, kind=FaultKind.BREAKER_TRIP, duration_s=10.0,
                    server=1)],
    ),
}


class TestSteadyTick:
    """A steady 1-s tick keeps its walls, rack totals, dark set, lit set
    and tenant due-time until something they read changes."""

    @pytest.mark.parametrize("case", list(STEADY_CASES))
    def test_mutation_between_equal_dt_ticks(self, case):
        hooks, events = STEADY_CASES[case]
        schedule = FaultSchedule(list(events), seed=13) if events else None
        ref = build_memo("objects", schedule)
        col = build_memo("columnar", schedule)
        he = col.host_engine
        steady_ticks = 0
        for _ in range(150):
            hook = hooks.get(col.now)
            if hook is not None:
                for sim in (ref, col):
                    hook(sim)
            gen = he.wall_gen
            forget(ref)
            for sim in (ref, col):
                sim.run(1.0, dt=1.0)
            steady_ticks += he.wall_gen == gen
            forget(ref)
            assert steady(col) == steady(ref)
        # most ticks moved no wall: the memos were live
        assert steady_ticks > 100
        if case == "forced trip then reset":
            breaker = col.racks[1].breaker
            assert breaker.trip_count == 2 and breaker.tripped_at > 100.0
        assert_materialized_equal(ref, col)

    def test_relit_host_takes_the_current_sweep(self):
        # host 0 goes dark, the sweep reruns at a new dt while it is
        # dark, and it comes back on a memo hit: the new lit set writes
        # its wall from that sweep, as a cold copy's fresh sweep does
        sim = build_memo("columnar")
        sim.run(90.0, dt=1.0)
        he, t0 = sim.host_engine, sim.now
        he.tick_all(1.0, {0}, t0)
        he.tick_all(59.0, {0}, t0 + 1.0)
        cold = pickle.loads(pickle.dumps(he))
        for engine in (he, cold):
            engine.tick_all(59.0, frozenset(), t0 + 60.0)
        assert he.stats()["sweeps"] + 1 == cold.stats()["sweeps"]
        assert he.walls().tolist() == cold.walls().tolist()

    def test_hot_kernel_ticked_outside_the_engine(self):
        # ``CloudEnvironment.tick`` ticks every (materialized) kernel
        # behind the host engine: the clock keys the hot hosts' walls
        ref, col = build_memo("objects"), build_memo("columnar")
        for sim in (ref, col):
            sim.run(90.0, dt=1.0)
            sim.cloud.tick(1.0)
            sim.fleet.host_watts()
            kernel = sim.cloud.hosts[2].kernel
            kernel.spawn("spike", workload=make_cpu_workload(demand=1.0))
            sim.cloud.tick(1.0)
        forget(ref)
        assert col.host_engine.cold_count() == 0
        assert steady(col) == steady(ref)

    def test_pickles_drop_the_memos(self):
        sim = build_memo("columnar")
        sim.run(90.0, dt=1.0)
        fleet = sim.fleet
        pop, he = sim.population, sim.host_engine
        assert fleet._totals is not None and pop._due_k is not None
        assert he._lit is not None and he._hot is not None
        warm = pickle.dumps(fleet)
        forget(sim)
        he._sweep = he._lit = he._hot = None
        assert pickle.dumps(fleet) == warm
        copy = pickle.loads(warm)
        assert copy._dark is None and copy._totals is None
        assert copy.population._due_k is None and copy.host_engine._lit is None


class TestParallelGolden:
    def test_parallel_columnar_bit_identical(self):
        ref = build("objects", chaos_schedule())
        ref.run(600.0, dt=1.0, coalesce=True)
        golden = snapshot(ref)
        par = build("columnar", chaos_schedule())
        par.run(600.0, dt=1.0, coalesce=True, parallel=2)
        try:
            assert snapshot(par) == golden
        finally:
            par.close()

    def test_attack_campaign_bit_identical(self):
        def campaign(hosts, parallel):
            sim = build(hosts, tenants=2)
            covered, instances = set(), []
            while len(covered) < 2:
                inst = sim.cloud.launch_instance("attacker")
                if inst.host_index in covered:
                    sim.cloud.terminate_instance(inst)
                else:
                    covered.add(inst.host_index)
                    instances.append(inst)
            sim.run(120.0, dt=1.0, parallel=parallel)
            outcome = SynergisticAttack(
                sim, instances,
                detector_factory=lambda: CrestDetector(
                    window=60, threshold_fraction=0.7, min_band_watts=5.0
                ),
                burst_s=20.0, cooldown_s=60.0, learn_s=30.0,
            ).run(300.0)
            result = (
                outcome.trials, tuple(outcome.spike_watts),
                outcome.peak_watts, outcome.attacker_cpu_seconds,
                outcome.bill_dollars, outcome.degradation,
                tuple(sim.aggregate_trace.times),
                tuple(sim.aggregate_trace.watts),
            )
            sim.close()
            return result

        golden = campaign("objects", 0)
        assert campaign("columnar", 0) == golden
        assert campaign("columnar", 2) == golden

    def test_resume_bit_identical(self, tmp_path):
        golden = build("columnar", chaos_schedule())
        golden.run(600, parallel=2, coalesce=True)
        g = snapshot(golden)
        golden.close()

        part = build("columnar", chaos_schedule())
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        part.run(300, parallel=2, coalesce=True)
        part.close()

        res = build("columnar", chaos_schedule())
        res.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=120.0
        )
        res.run(300, parallel=2, coalesce=True, resume=True)
        res.run(300, parallel=2, coalesce=True)
        r = snapshot(res)
        res.close()
        assert g == r

    def test_resume_host_mode_must_match(self, tmp_path):
        part = build("columnar")
        part.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=60.0
        )
        part.run(120, parallel=2, coalesce=True)
        part.close()

        other = build("objects")
        other.enable_resilience(
            checkpoint_dir=str(tmp_path), checkpoint_every=60.0
        )
        try:
            with pytest.raises(SimulationError, match="hosts="):
                other.run(120, parallel=2, coalesce=True, resume=True)
        finally:
            other.close()
