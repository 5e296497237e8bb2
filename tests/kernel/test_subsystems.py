"""Tests for interrupts, timers, locks, modules, RNG, filesystem, netdev,
cpuidle, and thermal subsystems."""

import pytest

from repro.errors import KernelError
from repro.kernel.kernel import Machine
from repro.kernel.namespaces import NamespaceType
from repro.kernel.scheduler import TickResult
from repro.kernel.thermal import ThermalSubsystem
from repro.runtime.workload import constant, idle
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def machine():
    return Machine(seed=11, spawn_daemons=False)


def run_with_worker(machine, **workload_kwargs):
    defaults = dict(cpu_demand=1.0, ipc=2.0)
    defaults.update(workload_kwargs)
    task = machine.kernel.spawn("worker", workload=constant("w", **defaults))
    machine.run(10, dt=1.0)
    return task


class TestInterrupts:
    def test_timer_interrupts_accumulate(self, machine):
        machine.run(10, dt=1.0)
        loc = machine.kernel.interrupts.irq("LOC")
        assert loc.total > 0

    def test_busy_cpu_takes_more_timer_interrupts(self, machine):
        task = run_with_worker(machine)
        k = machine.kernel
        busy_cpu = k.scheduler.placement_of(task)
        loc = k.interrupts.irq("LOC")
        idle_cpu = (busy_cpu + 1) % k.config.total_cores
        assert loc.per_cpu[busy_cpu] > loc.per_cpu[idle_cpu] * 3

    def test_network_traffic_raises_net_irqs(self, machine):
        run_with_worker(machine, net_kbps=100_000)
        k = machine.kernel
        net_rx = sum(k.interrupts.softirqs["NET_RX"])
        assert net_rx > 0

    def test_disk_io_raises_block_softirqs(self, machine):
        run_with_worker(machine, io_ops_per_sec=1000)
        assert sum(machine.kernel.interrupts.softirqs["BLOCK"]) > 0

    def test_totals_are_consistent(self, machine):
        machine.run(5, dt=1.0)
        intr = machine.kernel.interrupts
        assert intr.total_interrupts == sum(ln.total for ln in intr.lines)


class TestTimers:
    def test_arm_and_find(self, machine):
        k = machine.kernel
        task = k.spawn("sigtask", workload=idle())
        entry = k.timers.arm(task, delay_seconds=100)
        assert k.timers.find_by_name("sigtask") == [entry]
        assert entry.host_pid == task.pid

    def test_expired_timers_drop_out(self, machine):
        k = machine.kernel
        task = k.spawn("shortlived", workload=idle())
        k.timers.arm(task, delay_seconds=3)
        machine.run(5, dt=1.0)
        assert k.timers.find_by_name("shortlived") == []

    def test_nonpositive_delay_rejected(self, machine):
        k = machine.kernel
        task = k.spawn("t", workload=idle())
        with pytest.raises(KernelError):
            k.timers.arm(task, delay_seconds=0)

    def test_cancel(self, machine):
        k = machine.kernel
        task = k.spawn("t", workload=idle())
        entry = k.timers.arm(task, delay_seconds=100)
        k.timers.cancel(entry)
        assert k.timers.entries == []
        with pytest.raises(KernelError):
            k.timers.cancel(entry)


class TestLocks:
    def test_acquire_and_find(self, machine):
        k = machine.kernel
        task = k.spawn("locker", workload=idle())
        entry = k.locks.acquire(task, inode=987654)
        assert k.locks.find_by_inode(987654) == [entry]
        assert str(task.pid) in entry.render()

    def test_release(self, machine):
        k = machine.kernel
        task = k.spawn("locker", workload=idle())
        entry = k.locks.acquire(task, inode=1)
        k.locks.release(entry)
        assert k.locks.entries == []

    def test_locks_die_with_process(self, machine):
        k = machine.kernel
        task = k.spawn("locker", workload=idle())
        k.locks.acquire(task, inode=1)
        k.locks.acquire(task, inode=2)
        k.kill(task)
        assert k.locks.entries == []

    def test_bad_type_rejected(self, machine):
        k = machine.kernel
        task = k.spawn("locker", workload=idle())
        with pytest.raises(KernelError):
            k.locks.acquire(task, inode=1, lock_type="WEIRD")


class TestModules:
    def test_boot_modules_loaded(self, machine):
        assert machine.kernel.modules.find("ext4") is not None

    def test_load_unload(self, machine):
        mods = machine.kernel.modules
        mods.load("test_mod")
        assert mods.find("test_mod") is not None
        mods.unload("test_mod")
        assert mods.find("test_mod") is None

    def test_double_load_rejected(self, machine):
        mods = machine.kernel.modules
        with pytest.raises(KernelError):
            mods.load("ext4")

    def test_unload_in_use_rejected(self, machine):
        with pytest.raises(KernelError):
            machine.kernel.modules.unload("bridge")  # refcount 1


class TestRandom:
    def test_boot_id_is_stable(self, machine):
        r = machine.kernel.random
        assert r.boot_id == r.boot_id
        assert len(r.boot_id) == 36

    def test_boot_id_differs_across_machines(self):
        a = Machine(seed=1).kernel.random.boot_id
        b = Machine(seed=2).kernel.random.boot_id
        assert a != b

    def test_fresh_uuid_changes_per_read(self, machine):
        r = machine.kernel.random
        assert r.fresh_uuid() != r.fresh_uuid()

    def test_entropy_stays_in_bounds(self, machine):
        run_with_worker(machine, syscalls_per_sec=100_000)
        entropy = machine.kernel.random.entropy_avail
        assert 128 <= entropy <= 4096


class TestFilesystem:
    def test_vfs_counters_drift_with_io(self, machine):
        before = machine.kernel.filesystem.vfs.nr_dentry
        run_with_worker(machine, io_ops_per_sec=10_000)
        assert machine.kernel.filesystem.vfs.nr_dentry != before

    def test_ext4_groups_change_with_writes(self, machine):
        fs = machine.kernel.filesystem.ext4_for("sda")
        before = [g.free_blocks for g in fs.groups]
        run_with_worker(machine, io_ops_per_sec=10_000)
        after = [g.free_blocks for g in fs.groups]
        assert before != after

    def test_unknown_disk_rejected(self, machine):
        with pytest.raises(KernelError):
            machine.kernel.filesystem.ext4_for("nvme9")

    def test_ext4_groups_drawn_on_first_access(self):
        """Boot skips the draw; a late draw equals an early one."""
        early = Machine(seed=77).kernel
        late = Machine(seed=77).kernel
        assert late.filesystem.ext4_for("sda")._groups is None
        for name in ("vfs-drift", "placement", "ext4-sdb"):
            late.rng.stream(name).random()
        groups = [
            [(g.free_blocks, g.fragments, g.first_free, g.buddy) for g in
             k.filesystem.ext4_for("sda").groups]
            for k in (early, late)
        ]
        assert groups[0] == groups[1]

    def test_ext4_free_blocks_bounded(self, machine):
        run_with_worker(machine, io_ops_per_sec=100_000)
        fs = machine.kernel.filesystem.ext4_for("sda")
        for g in fs.groups:
            assert 0 < g.free_blocks <= fs.BLOCKS_PER_GROUP


class TestNetdev:
    def test_root_devices_from_config(self, machine):
        devices = machine.kernel.netdev.for_each_netdev_init_net()
        assert [d.name for d in devices] == ["lo", "eth0", "eth1", "docker0"]

    def test_new_namespace_gets_lo_and_veth(self, machine):
        k = machine.kernel
        ns = k.namespaces.create(NamespaceType.NET)
        k.netdev.register_namespace(ns)
        assert [d.name for d in k.netdev.devices_in(ns)] == ["lo", "eth0"]

    def test_double_register_rejected(self, machine):
        k = machine.kernel
        ns = k.namespaces.create(NamespaceType.NET)
        k.netdev.register_namespace(ns)
        with pytest.raises(KernelError):
            k.netdev.register_namespace(ns)

    def test_traffic_charged_to_host_uplink(self, machine):
        run_with_worker(machine, net_kbps=8000)
        k = machine.kernel
        eth0 = k.netdev.device(k.netdev.init_net, "eth0")
        assert eth0.tx_bytes > 0


class TestCpuIdle:
    def test_idle_cpu_sleeps_deep(self, machine):
        machine.run(20, dt=1.0)
        states = {s.name: s for s in machine.kernel.cpuidle.cpu(1).states}
        assert states["C6"].time_us > states["C1"].time_us

    def test_busy_cpu_accumulates_no_idle_time(self, machine):
        task = run_with_worker(machine)
        cpu = machine.kernel.scheduler.placement_of(task)
        total_idle = sum(s.time_us for s in machine.kernel.cpuidle.cpu(cpu).states)
        assert total_idle == 0

    def test_unknown_cpu_rejected(self, machine):
        with pytest.raises(KernelError):
            machine.kernel.cpuidle.cpu(99)


class TestThermal:
    def test_idle_cores_near_ambient(self, machine):
        machine.run(60, dt=1.0)
        for sensor in machine.kernel.thermal.sensors:
            assert sensor.temp_c < 45.0

    def test_busy_core_heats_up(self, machine):
        task = run_with_worker(machine)
        machine.run(60, dt=1.0)
        k = machine.kernel
        busy = k.thermal.sensor(k.scheduler.placement_of(task)).temp_c
        # other cores heat a little through package coupling, but less
        others = [
            s.temp_c
            for s in k.thermal.sensors
            if s.core != k.scheduler.placement_of(task)
        ]
        assert busy > max(others) + 5

    def test_noise_draws_match_per_core_streams(self):
        # the tick draws every core's noise in one vector call; it must
        # equal the scalar draw of each core's temp-noise-{core} stream
        rng = DeterministicRNG(23)
        thermal = ThermalSubsystem(6, rng)
        temps = [ThermalSubsystem.AMBIENT_C] * 6
        for index in range(40):
            util = {c: ((index + c) % 5) / 4.0 for c in range(6)}
            thermal.tick(TickResult(dt=1.0, utilization=util))
            mean = sum(util.values()) / 6
            alpha = min(1.0, 1.0 / ThermalSubsystem.TAU_S)
            for c in range(6):
                effective = (
                    (1 - ThermalSubsystem.COUPLING) * util[c]
                    + ThermalSubsystem.COUPLING * mean
                )
                target = (
                    ThermalSubsystem.AMBIENT_C
                    + ThermalSubsystem.FULL_LOAD_DELTA_C * effective
                )
                noise = rng.keyed(f"temp-noise-{c}").gauss(
                    index, ThermalSubsystem.NOISE_SIGMA
                )
                temps[c] += (target - temps[c]) * alpha + noise * alpha
        assert [s.temp_c for s in thermal.sensors] == temps

    def test_millidegree_rendering(self, machine):
        sensor = machine.kernel.thermal.sensor(0)
        assert sensor.millidegrees == int(sensor.temp_c * 1000)

    def test_absent_sensors_raise(self):
        m = Machine(seed=1)
        m.kernel.thermal.present = False
        with pytest.raises(KernelError):
            m.kernel.thermal.sensor(0)
