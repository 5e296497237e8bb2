"""Tests for the channel registry and the pseudo-file walker."""

import pytest

from repro.detection.channels import (
    CHANNELS,
    channel_by_id,
    channels_for_path,
    representative_paths,
)
from repro.detection.walker import PseudoWalker, ReadOutcome
from repro.procfs.node import ReadContext
from repro.runtime.policy import MaskingPolicy


class TestRegistry:
    def test_table1_row_count(self):
        # Table I has 21 rows; several rows expand to multiple concrete
        # channels here (e.g. /proc/sys/fs/* covers three files)
        assert len(CHANNELS) >= 21

    def test_ids_unique(self):
        ids = [c.channel_id for c in CHANNELS]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        assert channel_by_id("proc.meminfo").table_label == "/proc/meminfo"
        with pytest.raises(KeyError):
            channel_by_id("bogus")

    def test_vulnerability_flags_match_table1(self):
        # spot-check some Table I cells
        assert not channel_by_id("proc.modules").coresidence
        assert channel_by_id("proc.softirqs").dos
        assert channel_by_id("proc.meminfo").dos
        assert not channel_by_id("proc.uptime").dos
        assert all(c.info_leak for c in CHANNELS)

    def test_path_matching(self):
        matches = channels_for_path(
            "/sys/class/powercap/intel-rapl:0/energy_uj"
        )
        assert [c.channel_id for c in matches] == ["sys.class.powercap.energy_uj"]

    def test_rapl_channel_requires_hardware_flag(self):
        assert channel_by_id("sys.class.powercap.energy_uj").requires_rapl
        assert channel_by_id(
            "sys.devices.platform.coretemp.temp_input"
        ).requires_dts

    def test_representative_paths_exist_on_default_host(self, engine):
        for channel in CHANNELS:
            paths = representative_paths(engine.vfs, channel)
            assert paths, channel.channel_id

    def test_representative_paths_absent_without_hardware(self):
        from repro.kernel.config import AMD_OPTERON, HostConfig
        from repro.kernel.kernel import Machine
        from repro.procfs.vfs import PseudoVFS

        machine = Machine(config=HostConfig(cpu=AMD_OPTERON), seed=1)
        vfs = PseudoVFS(machine.kernel)
        rapl = channel_by_id("sys.class.powercap.energy_uj")
        assert representative_paths(vfs, rapl) == []


class TestWalker:
    def test_walk_reads_everything(self, machine, engine):
        walker = PseudoWalker(engine.vfs, ReadContext(kernel=machine.kernel))
        entries = walker.walk()
        assert all(e.outcome is ReadOutcome.OK for e in entries.values())
        assert len(entries) > 200

    def test_denied_recorded_not_raised(self, machine, engine):
        policy = MaskingPolicy(name="m").deny("/proc/meminfo")
        c = engine.create(name="c1", policy=policy)
        walker = PseudoWalker(engine.vfs, c.read_context())
        entry = walker.read_one("/proc/meminfo")
        assert entry.outcome is ReadOutcome.DENIED
        assert entry.content is None
        assert entry.channel == "proc.meminfo"

    def test_hidden_recorded_as_absent(self, machine, engine):
        policy = MaskingPolicy(name="m").hide("/proc/meminfo")
        c = engine.create(name="c1", policy=policy)
        walker = PseudoWalker(engine.vfs, c.read_context())
        assert walker.read_one("/proc/meminfo").outcome is ReadOutcome.ABSENT

    def test_missing_path_absent(self, machine, engine):
        walker = PseudoWalker(engine.vfs, ReadContext(kernel=machine.kernel))
        assert walker.read_one("/proc/bogus").outcome is ReadOutcome.ABSENT


class TestWalkerUnderFaults:
    """Satellite: tree walks tolerate masked and transiently-faulted files."""

    def _fault(self, machine, glob, until=1e9):
        from repro.sim.faults import KernelFaultState
        from repro.sim.rng import DeterministicRNG

        state = KernelFaultState(DeterministicRNG(1))
        state.add_eio(glob, until=until)
        machine.kernel.faults = state
        return state

    def test_transient_eio_recorded_as_error(self, machine, engine):
        self._fault(machine, "/proc/uptime")
        walker = PseudoWalker(engine.vfs, ReadContext(kernel=machine.kernel))
        entry = walker.read_one("/proc/uptime")
        assert entry.outcome is ReadOutcome.ERROR
        assert entry.content is None
        assert entry.channel == "proc.uptime"

    def test_full_walk_completes_over_faulted_tree(self, machine, engine):
        state = self._fault(machine, "/proc/*")
        walker = PseudoWalker(engine.vfs, ReadContext(kernel=machine.kernel))
        entries = walker.walk()
        outcomes = {e.outcome for e in entries.values()}
        assert ReadOutcome.ERROR in outcomes  # top-level /proc files fault
        assert ReadOutcome.OK in outcomes  # /sys and nested files still read
        assert state.stats.get("reads-failed:pseudo-eio") > 0

    def test_masked_and_faulted_tree_walk(self, machine, engine):
        """Policy masks and transient faults coexist in one walk."""
        self._fault(machine, "/proc/uptime")
        policy = MaskingPolicy(name="m").deny("/proc/meminfo").hide("/proc/stat")
        c = engine.create(name="c1", policy=policy)
        walker = PseudoWalker(engine.vfs, c.read_context())
        entries = walker.walk(
            ["/proc/uptime", "/proc/meminfo", "/proc/stat", "/proc/loadavg"]
        )
        assert entries["/proc/uptime"].outcome is ReadOutcome.ERROR
        assert entries["/proc/meminfo"].outcome is ReadOutcome.DENIED
        assert entries["/proc/stat"].outcome is ReadOutcome.ABSENT
        assert entries["/proc/loadavg"].outcome is ReadOutcome.OK

    def test_expired_fault_window_reads_ok(self, machine, engine):
        self._fault(machine, "/proc/uptime", until=5.0)
        machine.run(10.0, dt=1.0)
        walker = PseudoWalker(engine.vfs, ReadContext(kernel=machine.kernel))
        assert walker.read_one("/proc/uptime").outcome is ReadOutcome.OK


class TestWalkerReadSurface:
    def test_one_vfs_call_per_read(self, machine, engine, monkeypatch):
        """Each read_one makes one call into the VFS's read/lookup
        surface (none for a path that does not resolve), and keeps each
        outcome's channel."""
        from repro.sim.faults import KernelFaultState
        from repro.sim.rng import DeterministicRNG

        vfs = engine.vfs
        calls = []
        for name in ("read", "lookup"):
            real = getattr(vfs, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(vfs, name, counted)
        policy = (
            MaskingPolicy(name="m").deny("/proc/meminfo").hide("/proc/stat")
        )
        c = engine.create(name="c1", policy=policy)
        faults = KernelFaultState(DeterministicRNG(1))
        faults.add_eio("/proc/uptime", until=1e9)
        machine.kernel.faults = faults
        walker = PseudoWalker(vfs, c.read_context())
        cases = {
            "/proc/loadavg": (ReadOutcome.OK, "proc.loadavg", 1),
            "/proc/meminfo": (ReadOutcome.DENIED, "proc.meminfo", 1),
            "/proc/stat": (ReadOutcome.ABSENT, "proc.stat", 1),
            "/proc/uptime": (ReadOutcome.ERROR, "proc.uptime", 1),
            "/proc/bogus": (ReadOutcome.ABSENT, None, 0),
        }
        for path, (outcome, channel, n) in cases.items():
            calls.clear()
            entry = walker.read_one(path)
            assert (entry.outcome, entry.channel) == (outcome, channel), path
            assert calls == ["read"] * n, path
            assert (entry.content is None) == (outcome is not ReadOutcome.OK)
