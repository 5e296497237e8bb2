"""Tests for the deterministic fault-injection subsystem."""

import math

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError, TransientReadError
from repro.kernel.kernel import Machine
from repro.runtime.engine import ContainerEngine
from repro.sim.faults import (
    DEFAULT_EIO_PATHS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultStats,
    KernelFaultState,
)
from repro.sim.rng import DeterministicRNG
from tests.conftest import make_cpu_workload

DAY_S = 86400.0


class TestFaultEvent:
    def test_windowed_kind_needs_duration(self):
        with pytest.raises(SimulationError):
            FaultEvent(at=10.0, kind=FaultKind.RAPL_DROP)

    def test_pseudo_eio_needs_glob(self):
        with pytest.raises(SimulationError):
            FaultEvent(at=10.0, kind=FaultKind.PSEUDO_EIO, duration_s=5.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(at=-1.0, kind=FaultKind.OOM_KILL)

    def test_until(self):
        e = FaultEvent(at=10.0, kind=FaultKind.RAPL_STUCK, duration_s=30.0)
        assert e.until == 40.0

    def test_one_shot_kinds_need_no_duration(self):
        FaultEvent(at=0.0, kind=FaultKind.RAPL_WRAP)
        FaultEvent(at=0.0, kind=FaultKind.OOM_KILL)


class TestFaultSchedule:
    def test_events_sorted(self):
        sched = FaultSchedule(
            [
                FaultEvent(at=20.0, kind=FaultKind.OOM_KILL),
                FaultEvent(at=5.0, kind=FaultKind.RAPL_WRAP),
            ]
        )
        assert [e.at for e in sched] == [5.0, 20.0]
        sched.add(FaultEvent(at=1.0, kind=FaultKind.OOM_KILL))
        assert [e.at for e in sched] == [1.0, 5.0, 20.0]

    def test_events_between_and_next(self):
        sched = FaultSchedule(
            [
                FaultEvent(at=5.0, kind=FaultKind.RAPL_WRAP),
                FaultEvent(at=20.0, kind=FaultKind.OOM_KILL),
            ]
        )
        assert len(sched.events_between(0.0, 10.0)) == 1
        assert sched.next_event_time(6.0) == 20.0
        assert sched.next_event_time(21.0) == math.inf

    def test_generate_is_deterministic(self):
        a = FaultSchedule.generate(42, 3 * DAY_S, servers=4, racks=2)
        b = FaultSchedule.generate(42, 3 * DAY_S, servers=4, racks=2)
        assert a.events == b.events
        assert len(a) > 0

    def test_generate_seed_sensitivity(self):
        a = FaultSchedule.generate(42, 3 * DAY_S, servers=4)
        b = FaultSchedule.generate(43, 3 * DAY_S, servers=4)
        assert a.events != b.events

    def test_generated_events_snap_to_grid(self):
        sched = FaultSchedule.generate(7, 2 * DAY_S, servers=2, grid_s=1.0)
        for event in sched:
            assert event.at == round(event.at)
            assert event.duration_s == round(event.duration_s)
            assert 0 < event.at < 2 * DAY_S

    def test_standard_covers_every_family(self):
        sched = FaultSchedule.standard(11, 60 * DAY_S, servers=4, racks=2)
        kinds = {e.kind for e in sched}
        assert FaultKind.BREAKER_TRIP in kinds
        assert FaultKind.MACHINE_CRASH in kinds
        assert FaultKind.PSEUDO_EIO in kinds
        assert kinds & {
            FaultKind.RAPL_STUCK,
            FaultKind.RAPL_DROP,
            FaultKind.RAPL_GARBAGE,
            FaultKind.RAPL_WRAP,
        }

    def test_generate_validation(self):
        with pytest.raises(SimulationError):
            FaultSchedule.generate(1, -5.0)
        with pytest.raises(SimulationError):
            FaultSchedule.generate(1, 100.0, servers=0)


class TestFaultStats:
    def test_counting(self):
        stats = FaultStats()
        stats.count("injected:oom-kill")
        stats.count("injected:oom-kill")
        stats.count("reads-failed:pseudo-eio", 3)
        assert stats.get("injected:oom-kill") == 2
        assert stats.total_injected == 2
        assert stats.as_dict()["reads-failed:pseudo-eio"] == 3
        assert "oom-kill" in stats.render()

    def test_empty_render(self):
        assert "no faults" in FaultStats().render()


class _StubDomain:
    sysfs_name = "intel-rapl:0"
    max_energy_range_uj = 1000


class TestKernelFaultState:
    def _state(self):
        return KernelFaultState(DeterministicRNG(5))

    def test_drop_raises_then_clears(self):
        state = self._state()
        state.fault_rapl(FaultKind.RAPL_DROP, until=10.0)
        with pytest.raises(TransientReadError):
            state.filter_energy_uj(5.0, _StubDomain(), 500)
        assert state.filter_energy_uj(10.0, _StubDomain(), 500) == 500

    def test_stuck_freezes_first_value(self):
        state = self._state()
        state.fault_rapl(FaultKind.RAPL_STUCK, until=10.0)
        assert state.filter_energy_uj(1.0, _StubDomain(), 111) == 111
        assert state.filter_energy_uj(2.0, _StubDomain(), 222) == 111

    def test_garbage_is_bounded_and_deterministic(self):
        a, b = self._state(), self._state()
        for state in (a, b):
            state.fault_rapl(FaultKind.RAPL_GARBAGE, until=10.0)
        va = a.filter_energy_uj(1.0, _StubDomain(), 500)
        vb = b.filter_energy_uj(1.0, _StubDomain(), 500)
        assert va == vb
        assert 0 <= va < _StubDomain.max_energy_range_uj

    def test_wrap_is_one_shot(self):
        state = self._state()
        state.fault_rapl(FaultKind.RAPL_WRAP, until=0.0)
        displaced = state.filter_energy_uj(1.0, _StubDomain(), 100)
        assert displaced == (100 + 500) % 1000
        assert state.filter_energy_uj(2.0, _StubDomain(), 100) == 100

    def test_pseudo_eio_glob_and_expiry(self):
        state = self._state()
        state.add_eio("/proc/upt*", until=10.0)
        with pytest.raises(TransientReadError):
            state.check_pseudo_read(5.0, "/proc/uptime")
        state.check_pseudo_read(5.0, "/proc/stat")  # no match, no raise
        state.check_pseudo_read(11.0, "/proc/uptime")  # expired

    def test_next_change_tracks_window_ends(self):
        state = self._state()
        state.fault_rapl(FaultKind.RAPL_DROP, until=10.0)
        state.add_eio("/proc/stat", until=7.0)
        assert state.next_change(0.0) == 7.0
        assert state.next_change(8.0) == 10.0
        assert state.next_change(11.0) == math.inf


def run_with_faults(machine, injector, seconds):
    """Tick a plain machine 1 s at a time, applying due faults before each
    tick the way the fleet driver does."""
    for _ in range(int(seconds)):
        injector.advance(machine.clock.now)
        machine.run(1.0, dt=1.0)


class TestFaultInjectorOnMachine:
    """Injector semantics on a plain :class:`Machine` stepped by
    :func:`run_with_faults`; install, crash and coalescing-barrier
    semantics belong to the fleet driver, so those tests run a
    one-server :class:`DatacenterSimulation`."""

    def test_install_twice_rejected(self):
        sim = DatacenterSimulation(servers=1, seed=3)
        sched = FaultSchedule([], seed=1)
        sim.install_faults(sched)
        with pytest.raises(SimulationError):
            sim.install_faults(sched)

    def test_rapl_drop_hits_driver_read_path(self):
        machine = Machine(seed=3)
        sched = FaultSchedule(
            [FaultEvent(at=5.0, kind=FaultKind.RAPL_DROP, duration_s=10.0)],
            seed=1,
        )
        injector = FaultInjector(sched, kernels=[machine.kernel])
        domain = machine.kernel.rapl.package(0).package
        run_with_faults(machine, injector, 6.0)
        with pytest.raises(TransientReadError):
            machine.kernel.read_energy_uj(domain)
        run_with_faults(machine, injector, 10.0)
        assert machine.kernel.read_energy_uj(domain) >= 0

    def test_crash_stops_ticks_and_restarts(self):
        sim = DatacenterSimulation(servers=1, seed=3)
        sched = FaultSchedule(
            [FaultEvent(at=10.0, kind=FaultKind.MACHINE_CRASH, duration_s=30.0)],
            seed=1,
        )
        injector = sim.install_faults(sched)
        kernel = sim.cloud.hosts[0].kernel
        domain = kernel.rapl.package(0).package
        sim.run(11.0, dt=1.0)
        assert injector.crashed_now() == frozenset({0})
        mark = kernel.read_energy_uj(domain)
        sim.run(20.0, dt=1.0)  # still down: no ticks, no energy accrued
        assert kernel.read_energy_uj(domain) == mark
        sim.run(20.0, dt=1.0)  # past t=40: rebooted
        assert injector.crashed_now() == frozenset()
        assert kernel.boot_time == pytest.approx(40.0, abs=1.5)
        assert injector.stats.get("machine-restarts") == 1

    def test_crash_is_a_barrier_for_coalescing(self):
        sched = FaultSchedule(
            [FaultEvent(at=600.0, kind=FaultKind.MACHINE_CRASH, duration_s=120.0)],
            seed=1,
        )
        base = DatacenterSimulation(servers=1, seed=3, sample_interval_s=300.0)
        base.install_faults(sched)
        base.run(1800.0, dt=1.0)
        fast = DatacenterSimulation(servers=1, seed=3, sample_interval_s=300.0)
        fast.install_faults(sched)
        fast.run(1800.0, dt=1.0, coalesce=True)
        # both paths reboot at the same virtual time and agree on accrued
        # energy within the engine's 1% acceptance bound (the crash cut
        # exactly 120 s of accrual out of both)
        base_kernel = base.cloud.hosts[0].kernel
        fast_kernel = fast.cloud.hosts[0].kernel
        assert base_kernel.boot_time == fast_kernel.boot_time == 720.0
        domain_b = base_kernel.rapl.package(0).package
        domain_f = fast_kernel.rapl.package(0).package
        assert fast_kernel.read_energy_uj(domain_f) == pytest.approx(
            base_kernel.read_energy_uj(domain_b), rel=0.01
        )
        assert fast.metrics.ticks < 1800

    def test_oom_kill_removes_newest_task(self):
        machine = Machine(seed=3)
        engine = ContainerEngine(machine.kernel)
        container = engine.create(name="victim")
        task = container.exec("worker", workload=make_cpu_workload())
        sched = FaultSchedule(
            [FaultEvent(at=5.0, kind=FaultKind.OOM_KILL)], seed=1
        )
        injector = FaultInjector(
            sched, kernels=[machine.kernel], engines=[engine]
        )
        run_with_faults(machine, injector, 6.0)
        assert not task.alive
        assert container.init_task.alive
        assert injector.stats.get("oom-kills") == 1

    def test_oom_without_engine_is_noop(self):
        machine = Machine(seed=3)
        sched = FaultSchedule(
            [FaultEvent(at=2.0, kind=FaultKind.OOM_KILL)], seed=1
        )
        injector = FaultInjector(sched, kernels=[machine.kernel])
        run_with_faults(machine, injector, 5.0)
        assert injector.stats.get("oom-noop") == 1

    def test_next_barrier_sees_events_and_window_ends(self):
        machine = Machine(seed=3)
        sched = FaultSchedule(
            [
                FaultEvent(at=5.0, kind=FaultKind.RAPL_DROP, duration_s=10.0),
                FaultEvent(at=100.0, kind=FaultKind.OOM_KILL),
            ],
            seed=1,
        )
        injector = FaultInjector(sched, kernels=[machine.kernel])
        assert injector.next_barrier(0.0) == 5.0
        run_with_faults(machine, injector, 6.0)
        assert injector.next_barrier(machine.kernel.clock.now) == 15.0
        run_with_faults(machine, injector, 10.0)
        assert injector.next_barrier(machine.kernel.clock.now) == 100.0

    def test_jittered_time_bounded_and_floored(self):
        machine = Machine(seed=3)
        sched = FaultSchedule(
            [
                FaultEvent(
                    at=0.0,
                    kind=FaultKind.CLOCK_JITTER,
                    duration_s=2000.0,
                    magnitude=0.3,
                )
            ],
            seed=1,
        )
        injector = FaultInjector(sched, kernels=[machine.kernel])
        injector.advance(0.0)
        last = 0.0
        for k in range(1, 50):
            when = injector.jittered_time(30.0 * k, 30.0, floor=last)
            assert abs(when - 30.0 * k) <= 0.45 * 30.0 + 1e-9
            assert when >= last
            last = when
        assert injector.stats.get("samples-jittered") == 49
        # outside the window: no displacement, no draw
        assert injector.jittered_time(2000.0, 30.0, floor=last) == 2000.0

    def test_targetless_injector_replays_jitter_only(self):
        # the sharded driver's slice of a schedule: clock jitter needs no
        # target and draws exactly what a kernel-holding injector draws
        jitter = FaultEvent(
            at=0.0, kind=FaultKind.CLOCK_JITTER, duration_s=2000.0,
            magnitude=0.3,
        )
        machine = Machine(seed=3)
        ref = FaultInjector(
            FaultSchedule([jitter], seed=1), kernels=[machine.kernel]
        )
        bare = FaultInjector(FaultSchedule([jitter], seed=1), kernels=())
        assert ref.advance(0.0) and bare.advance(0.0)
        assert bare.next_barrier(0.0) == ref.next_barrier(0.0) == 2000.0
        last = 0.0
        for k in range(1, 20):
            when = bare.jittered_time(30.0 * k, 30.0, floor=last)
            assert when == ref.jittered_time(30.0 * k, 30.0, floor=last)
            last = when
        assert bare.stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize(
        "kind", (FaultKind.MACHINE_CRASH, FaultKind.OOM_KILL,
                 FaultKind.BREAKER_TRIP),
    )
    def test_targetless_injector_refuses_targeted_events(self, kind):
        duration = 10.0 if kind is not FaultKind.OOM_KILL else 0.0
        sched = FaultSchedule(
            [FaultEvent(at=5.0, kind=kind, duration_s=duration)], seed=1
        )
        with pytest.raises(SimulationError, match="no target"):
            FaultInjector(sched, kernels=())

    def test_pseudo_eio_default_paths_are_globs_over_real_files(self):
        machine = Machine(seed=3)
        vfs_paths = [p for p, _ in __import__(
            "repro.procfs.vfs", fromlist=["PseudoVFS"]
        ).PseudoVFS(machine.kernel).walk()]
        import fnmatch
        for glob in DEFAULT_EIO_PATHS:
            assert any(fnmatch.fnmatchcase(p, glob) for p in vfs_paths), glob

