"""Tests for the stage-2 namespace patches (the CVE-2017-5967 class)."""

import pickle

import pytest

from repro.coresidence.implant import ImplantVerifier
from repro.defense.kernel_patches import PATCHES, apply_all_patches, apply_patch
from repro.detection.crossvalidate import CrossValidator, LeakClass
from repro.errors import DefenseError


class TestPatching:
    def test_unknown_path_rejected(self, engine):
        with pytest.raises(DefenseError):
            apply_patch(engine.vfs, "/proc/meminfo")

    def test_apply_all_reports_paths(self, engine):
        applied = apply_all_patches(engine.vfs)
        assert set(applied) == set(PATCHES)

    @pytest.mark.parametrize("channel", ["timer_list", "locks", "sched_debug"])
    def test_implantation_defeated(self, machine, engine, channel):
        """After the patch, a planted signature is invisible next door."""
        c1 = engine.create(name="c1")
        c2 = engine.create(name="c2")
        verifier = ImplantVerifier(channel)
        # sanity: the implant works on the unpatched kernel
        implant = verifier.plant(c1)
        machine.run(1, dt=1.0)
        assert verifier.probe(c2, implant)

        apply_all_patches(engine.vfs)
        implant2 = verifier.plant(c1)
        machine.run(1, dt=1.0)
        assert not verifier.probe(c2, implant2)

    @pytest.mark.parametrize("channel", ["timer_list", "locks", "sched_debug"])
    def test_own_entries_still_visible(self, machine, engine, channel):
        """The patch hides foreign data, not the tenant's own."""
        apply_all_patches(engine.vfs)
        c1 = engine.create(name="c1")
        verifier = ImplantVerifier(channel)
        implant = verifier.plant(c1)
        machine.run(1, dt=1.0)
        assert verifier.probe(c1, implant)

    def test_ifpriomap_shows_only_namespace_devices(self, engine):
        apply_all_patches(engine.vfs)
        c = engine.create(name="c1")
        names = [
            line.split()[0]
            for line in c.read(
                "/sys/fs/cgroup/net_prio/net_prio.ifpriomap"
            ).splitlines()
        ]
        assert names == ["lo", "eth0"]

    def test_patches_survive_pickling(self, machine, engine):
        """A restored patched host is still patched (snapshots carry it)."""
        apply_all_patches(engine.vfs)
        restored_machine, restored = pickle.loads(pickle.dumps((machine, engine)))
        victim = restored.create(name="victim")
        reader = restored.create(name="reader")
        victim.arm_timer("victim-timer", delay_seconds=300)
        restored_machine.run(1, dt=1.0)
        assert "victim-timer" not in reader.read("/proc/timer_list")
        for path in PATCHES:
            assert restored.vfs.lookup(path).namespaced, path

    def test_host_still_sees_everything(self, machine, engine):
        """Root-namespace readers keep the full view after patching."""
        c = engine.create(name="c1")
        c.arm_timer("hostvisible", delay_seconds=100)
        apply_all_patches(engine.vfs)
        host_view = engine.vfs.read("/proc/timer_list")
        assert "hostvisible" in host_view

    def test_patched_pids_are_namespace_local(self, machine, engine):
        """Entries show the reader's pid numbering, like real /proc."""
        apply_all_patches(engine.vfs)
        c = engine.create(name="c1")
        c.take_lock(inode=777, task_name="locker")
        content = c.read("/proc/locks")
        ns_pid = int(content.split()[4])
        assert ns_pid < 10  # container-local numbering, not host pid

    def test_crossvalidation_reclassifies_patched_channels(self, machine, engine):
        """The detector confirms the fix: the channels become case ①."""
        apply_all_patches(engine.vfs)
        c = engine.create(name="probe")
        # give each context some namespace-distinct content (an empty
        # table renders identically everywhere and proves nothing)
        c.arm_timer("inner-timer", delay_seconds=500)
        c.take_lock(inode=111, task_name="inner-locker")
        from repro.runtime.workload import idle

        host_task = machine.kernel.spawn("host-locker", workload=idle())
        machine.kernel.locks.acquire(host_task, inode=222)
        machine.kernel.timers.arm(host_task, delay_seconds=500)
        machine.run(2, dt=1.0)
        report = CrossValidator(engine.vfs, c).run(
            paths=list(PATCHES)
        )
        for path in PATCHES:
            assert report.verdict_for(path).leak_class is LeakClass.NAMESPACED, path
