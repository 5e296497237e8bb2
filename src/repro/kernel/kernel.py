"""The simulated kernel: one object per physical host.

:class:`Kernel` owns every subsystem and advances them coherently each
tick. It exposes the operations the rest of the stack needs:

- process lifecycle (``spawn`` / ``kill``) with namespace and cgroup wiring,
- the tick loop that turns workload demand into scheduler grants, hardware
  activity, subsystem counters, and RAPL energy,
- the RAPL read path with a pluggable per-container hook — the seam where
  the defense's power-based namespace installs itself, exactly as the
  paper's modified driver replaces ``get_energy_counter``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from repro.errors import KernelError
from repro.kernel.cgroups import Cgroup, CgroupManager
from repro.kernel.config import HostConfig
from repro.kernel.cpuidle import CpuIdleSubsystem
from repro.kernel.filesystem import FilesystemSubsystem
from repro.kernel.interrupts import InterruptSubsystem
from repro.kernel.locks import LockSubsystem
from repro.kernel.memory import MemorySubsystem
from repro.kernel.modules import ModuleSubsystem
from repro.kernel.namespaces import (
    Namespace,
    NamespaceRegistry,
    NamespaceType,
    root_namespace_set,
)
from repro.kernel.perf import PerfSubsystem, PerfTuning
from repro.kernel.power import PowerModel
from repro.kernel.process import ProcessTable, Task
from repro.kernel.random import RandomSubsystem
from repro.kernel.rapl import RaplDomain, RaplSubsystem
from repro.kernel.scheduler import Scheduler, TickResult
from repro.kernel.thermal import ThermalSubsystem
from repro.kernel.timers import TimerSubsystem
from repro.sim.clock import VirtualClock
from repro.sim.fastforward import kernel_demand_fingerprint, kernel_phase_horizon_s
from repro.sim.faults import KernelFaultState
from repro.sim.rng import DeterministicRNG


def _net_namespace(task: Task) -> Namespace:
    """The NET namespace a task's traffic is charged to."""
    return task.namespaces[NamespaceType.NET]


#: host daemons spawned at boot (name, cpu_demand)
_BOOT_DAEMONS = (
    ("systemd", 0.002),
    ("kthreadd", 0.001),
    ("rcu_sched", 0.002),
    ("kworker/0:1", 0.004),
    ("kworker/u16:0", 0.003),
    ("sshd", 0.001),
    ("dockerd", 0.008),
    ("containerd", 0.004),
    ("rsyslogd", 0.002),
    ("cron", 0.001),
)


class Kernel:
    """One booted simulated kernel."""

    def __init__(
        self,
        config: Optional[HostConfig] = None,
        clock: Optional[VirtualClock] = None,
        rng: Optional[DeterministicRNG] = None,
        perf_tuning: PerfTuning = PerfTuning(),
        spawn_daemons: bool = True,
    ):
        self.config = config or HostConfig()
        self.clock = clock or VirtualClock()
        self.rng = rng or DeterministicRNG(seed=0)
        self.boot_time = self.clock.now

        self.namespaces = NamespaceRegistry()
        self.processes = ProcessTable()
        self.cgroups = CgroupManager()
        self.perf = PerfSubsystem(self.cgroups, perf_tuning)
        self.scheduler = Scheduler(self.config, self.cgroups, self.perf, rng=self.rng)

        self.memory = MemorySubsystem(self.config, self.rng)
        self.interrupts = InterruptSubsystem(self.config)
        self.timers = TimerSubsystem(self.config.total_cores)
        self.locks = LockSubsystem()
        self.modules = ModuleSubsystem(self.config.modules)
        self.random = RandomSubsystem(self.rng)
        self.filesystem = FilesystemSubsystem(self.config.disks, self.rng)
        self.netdev = None  # set below; needs the root NET namespace
        self.cpuidle = CpuIdleSubsystem(self.config.total_cores)
        self.thermal = ThermalSubsystem(
            self.config.total_cores, self.rng, present=self.config.has_coretemp
        )
        self.power = PowerModel(self.config)
        self.rapl = RaplSubsystem(self.config, self.rng)

        from repro.kernel.netdev import NetSubsystem  # local import, cycle-free

        self.netdev = NetSubsystem(
            self.namespaces.root(NamespaceType.NET), self.config.net_interfaces
        )

        #: UTS payload for the root namespace
        self.namespaces.root(NamespaceType.UTS).payload["hostname"] = (
            self.config.hostname
        )

        #: the defense's interception point: (task, domain) -> energy_uj.
        #: ``None`` means the vanilla driver (host-global counter) serves
        #: every reader — the Case Study II leak.
        self.rapl_read_hook: Optional[Callable[[Optional[Task], RaplDomain], int]] = None

        #: hooks called after every tick (defense bookkeeping, tracers)
        self.tick_listeners: List[Callable[[TickResult], None]] = []

        #: active sensor/read faults (installed by a fault injector;
        #: ``None`` keeps every read path on the fault-free fast path)
        self.faults: Optional[KernelFaultState] = None

        self.last_tick: Optional[TickResult] = None
        self._ticks = 0

        if spawn_daemons:
            self._spawn_boot_daemons()

    # ------------------------------------------------------------------
    # process lifecycle

    def spawn(
        self,
        name: str,
        namespaces: Optional[Dict[NamespaceType, Namespace]] = None,
        workload=None,
        affinity: Optional[FrozenSet[int]] = None,
        cgroup_set: Optional[Dict[str, Cgroup]] = None,
    ) -> Task:
        """Create a task, attach it to cgroups, and admit it for scheduling."""
        ns = namespaces or root_namespace_set(self.namespaces)
        task = self.processes.spawn(name, ns, now=self.clock.now, affinity=affinity)
        task.workload = workload
        if cgroup_set:
            self.cgroups.attach_all(task, cgroup_set)
        self.scheduler.add_task(task)
        return task

    def kill(self, task: Task) -> None:
        """Terminate a task: scheduler, cgroups, locks, process table."""
        if task.workload is not None:
            task.workload.stop()
        self.scheduler.remove_task(task)
        self.cgroups.detach_all(task)
        self.locks.release_owned_by(task.pid)
        self.processes.reap(task)

    def _spawn_boot_daemons(self) -> None:
        from repro.runtime.workload import constant

        for name, demand in _BOOT_DAEMONS:
            self.spawn(
                name,
                workload=constant(
                    f"daemon-{name}",
                    cpu_demand=demand,
                    ipc=1.0,
                    cache_miss_per_kinst=2.0,
                    branch_miss_per_kinst=3.0,
                    rss_mb=8.0,
                    syscalls_per_sec=40.0,
                    voluntary_switches_per_sec=20.0,
                    io_ops_per_sec=2.0,
                ),
            )

    # ------------------------------------------------------------------
    # the tick

    def tick(self, dt: float) -> TickResult:
        """Advance every subsystem by ``dt`` seconds of virtual time.

        The caller is responsible for advancing the shared
        :class:`VirtualClock` (a fleet driver ticks many kernels against
        one clock); :class:`Machine` wraps both for single-host use.

        The stage calls below, in this order, are the scalar reference
        semantics: the columnar host engine mirrors the scheduler and
        energy stages up to wall power, and replays the rest.
        """
        result = self.scheduler.tick(dt)
        self.memory.tick(result)
        self.interrupts.tick(result)
        self.filesystem.tick(result)
        self.netdev.tick(result, _net_namespace)
        self.cpuidle.tick(result)
        self.thermal.tick(result)
        self.timers.tick(dt)
        config = self.config
        self.random.tick(
            dt, int(config.hz * config.total_cores * dt), result.total.syscalls
        )
        self.rapl.accumulate(self.power.tick_energy(result))
        self.last_tick = result
        self._ticks += 1
        for listener in self.tick_listeners:
            listener(result)
        return result

    # ------------------------------------------------------------------
    # derived quantities

    @property
    def ticks_taken(self) -> int:
        """How many ticks this kernel has executed since boot."""
        return self._ticks

    def next_phase_boundary_s(self) -> float:
        """Seconds until the earliest workload phase boundary (inf if none).

        A tick-coalescing driver must not step across a phase boundary,
        because the workload's activity vector changes there.
        """
        return kernel_phase_horizon_s(self)

    def demand_fingerprint(self) -> float:
        """Total runnable CPU demand — changes on any workload-set churn."""
        return kernel_demand_fingerprint(self)

    @property
    def uptime_seconds(self) -> float:
        """Seconds since boot (first field of /proc/uptime)."""
        return self.clock.now - self.boot_time

    @property
    def idle_seconds(self) -> float:
        """Aggregate idle seconds across CPUs (second field of /proc/uptime).

        Served from the scheduler's running total — this sits on the
        /proc/uptime sampling path, so it must stay O(1) in core count.
        """
        return self.scheduler.idle_ns_total / 1e9

    @property
    def btime(self) -> int:
        """Boot time as integer epoch seconds (/proc/stat btime)."""
        return int(self.boot_time)

    def read_energy_uj(self, domain: RaplDomain, reader: Optional[Task] = None) -> int:
        """The RAPL ``energy_uj`` read path.

        With no hook installed this is the vanilla driver: every reader —
        host or container — gets the host-global counter (the leak). The
        defense installs a hook that detects containerized readers and
        serves modelled, calibrated, per-container energy instead.
        """
        if not self.rapl.present:
            raise KernelError("RAPL not supported on this host")
        if self.rapl_read_hook is not None:
            value = self.rapl_read_hook(reader, domain)
        else:
            value = domain.energy_uj
        if self.faults is not None:
            # sensor faults live at the driver read seam, downstream of
            # any defense hook: a flaky MSR corrupts whatever is served
            value = self.faults.filter_energy_uj(self.clock.now, domain, value)
        return value

    def host_package_watts(self) -> float:
        """Ground-truth host package power from the last tick.

        Summed over packages and averaged over the last tick's ``dt`` —
        no trailing-window smoothing (callers wanting smoothing should
        average a trace); all idle before the first tick. This is the
        one body behind :func:`repro.datacenter.topology.package_power_watts`,
        and it reads the tick's memoized ``power.tick_energy``.
        """
        if self.last_tick is None:
            return self.power.idle_package_watts() * self.config.packages
        per_pkg = self.power.tick_energy(self.last_tick)
        return sum(e.package_j for e in per_pkg.values()) / self.last_tick.dt


class Machine:
    """A single-host harness: one clock + one kernel + a run loop."""

    def __init__(
        self,
        config: Optional[HostConfig] = None,
        seed: int = 0,
        start_time: float = 0.0,
        perf_tuning: PerfTuning = PerfTuning(),
        spawn_daemons: bool = True,
    ):
        self.clock = VirtualClock(start=start_time)
        self.kernel = Kernel(
            config=config,
            clock=self.clock,
            rng=DeterministicRNG(seed=seed),
            perf_tuning=perf_tuning,
            spawn_daemons=spawn_daemons,
        )

    def run(self, seconds: float, dt: float = 1.0, on_tick=None) -> None:
        """Advance the machine by ``seconds`` in fixed steps of ``dt``.

        ``on_tick(kernel, result)`` is called after every step; the last
        step is shortened if ``seconds`` is not a multiple of ``dt``.
        Tick coalescing and fault replay live in the fleet driver
        (:class:`repro.datacenter.simulation.DatacenterSimulation`).
        """
        if seconds <= 0:
            raise KernelError(f"run needs positive duration: {seconds}")
        remaining = seconds
        while remaining > 1e-9:
            step = min(dt, remaining)
            self.clock.advance(step)
            result = self.kernel.tick(step)
            if on_tick is not None:
                on_tick(self.kernel, result)
            remaining -= step
