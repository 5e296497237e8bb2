"""Shape-shared procfs trees: twins share one tree, never each other's state.

Hosts of one hardware shape serve ``/proc`` and ``/sys`` from one built
tree. These tests pin the isolation that sharing must keep: a stage-2
patch on one host stays off its twins, each host's RAPL files report its
own counters, and a tree is built once per shape, on first read, and not
at all for a fleet that never reads.
"""

from __future__ import annotations

import pickle

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.defense.kernel_patches import apply_all_patches
from repro.kernel.config import HostConfig
from repro.kernel.kernel import Machine
from repro.procfs import vfs as vfs_mod
from repro.procfs.render.patched import render_timer_list_patched
from repro.procfs.render.proc_kernel import render_timer_list
from repro.procfs.vfs import PseudoVFS
from repro.runtime.engine import ContainerEngine
from repro.runtime.workload import constant


@pytest.fixture
def fresh_trees(monkeypatch):
    """An empty tree cache; returns a callable giving builds since."""
    monkeypatch.setattr(vfs_mod, "_TREES", {})
    start = vfs_mod.tree_builds
    return lambda: vfs_mod.tree_builds - start


def _twin(seed, config=None):
    machine = Machine(config=config or HostConfig(), seed=seed)
    return machine, ContainerEngine(machine.kernel)


class TestPatchIsolation:
    def test_patch_stays_off_the_twin(self):
        machine_a, engine_a = _twin(1)
        machine_b, engine_b = _twin(2)
        assert engine_a.vfs.tree is engine_b.vfs.tree
        shared = engine_b.vfs.lookup("/proc/timer_list")

        apply_all_patches(engine_a.vfs)

        patched = engine_a.vfs.lookup("/proc/timer_list")
        assert patched.render is render_timer_list_patched and patched.namespaced
        twin = engine_b.vfs.lookup("/proc/timer_list")
        assert twin is shared
        assert twin.render is render_timer_list and not twin.namespaced
        walked = dict(engine_b.vfs.walk())
        assert walked["/proc/timer_list"] is shared
        assert dict(engine_a.vfs.walk())["/proc/timer_list"] is patched

    def test_twin_container_still_sees_foreign_timers(self):
        """Behaviourally: the twin leaks, the patched host does not."""
        views = {}
        for name, patch in (("patched", True), ("twin", False)):
            machine, engine = _twin(3)
            if patch:
                apply_all_patches(engine.vfs)
            victim = engine.create(name="victim")
            reader = engine.create(name="reader")
            victim.arm_timer("victim-timer", delay_seconds=300)
            machine.run(1, dt=1.0)
            views[name] = reader.read("/proc/timer_list")
        assert "victim-timer" not in views["patched"]
        assert "victim-timer" in views["twin"]


class TestRaplIsolation:
    @pytest.mark.parametrize(
        "domain, path",
        [
            ("package", "intel-rapl:0/energy_uj"),
            ("core", "intel-rapl:0/intel-rapl:0:0/energy_uj"),
            ("dram", "intel-rapl:0/intel-rapl:0:1/energy_uj"),
            ("package", "intel-rapl:1/energy_uj"),
        ],
    )
    def test_each_twin_reads_its_own_counter(self, domain, path):
        config = HostConfig(packages=2, numa_nodes=2)
        idle, idle_engine = _twin(4, config)
        busy, busy_engine = _twin(4, config)
        for i in range(config.total_cores):
            busy.kernel.spawn(
                f"burner{i}", workload=constant(f"burner{i}", cpu_demand=1.0, ipc=2.0)
            )
        idle.run(20, dt=1.0)
        busy.run(20, dt=1.0)
        assert idle_engine.vfs.tree is busy_engine.vfs.tree

        package_id = int(path.split("/")[0].split(":")[1])
        full = f"/sys/class/powercap/{path}"
        readings = {}
        for machine, engine in ((idle, idle_engine), (busy, busy_engine)):
            counter = getattr(machine.kernel.rapl.package(package_id), domain)
            assert engine.vfs.read(full) == f"{counter.energy_uj}\n"
            readings[machine] = counter.energy_uj
        assert readings[idle] != readings[busy]


class TestBuildCount:
    def test_one_build_per_shape_on_first_read(self, fresh_trees):
        engines = [_twin(seed)[1] for seed in range(4)]
        assert fresh_trees() == 0
        engines[0].vfs.read("/proc/uptime")
        assert fresh_trees() == 1
        for engine in engines[1:]:
            engine.vfs.read("/proc/uptime")
            assert engine.vfs.tree is engines[0].vfs.tree
        assert fresh_trees() == 1

        other = _twin(9, HostConfig(packages=2, numa_nodes=2))[1]
        assert other.vfs.exists("/sys/class/powercap/intel-rapl:1")
        assert fresh_trees() == 2

    def test_columnar_fleet_without_reads_builds_none(self, fresh_trees):
        sim = DatacenterSimulation(servers=8, seed=5, hosts="columnar")
        sim.run(60, dt=1.0, coalesce=True)
        assert fresh_trees() == 0

    def test_restored_vfs_finds_the_shared_tree(self, fresh_trees):
        _, engine = _twin(6)
        engine.vfs.read("/proc/uptime")
        restored = pickle.loads(pickle.dumps(engine.vfs))
        assert isinstance(restored, PseudoVFS)
        assert restored.tree is engine.vfs.tree
        assert fresh_trees() == 1
