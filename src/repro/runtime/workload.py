"""Workloads: phase-structured activity generators.

A workload describes *what a process does to the hardware* as a sequence of
phases, each characterized by an activity vector — CPU demand, instructions
per cycle, cache/branch miss rates, memory footprint, syscall and
context-switch rates. Given the CPU time the scheduler grants in a tick,
the phase deterministically yields retired instructions, cache misses,
branch misses, etc.

This is the level of abstraction the paper's power model operates at
(Formula 2 consumes exactly these counters), so an opcode-accurate CPU
model would add nothing to the reproduction while costing orders of
magnitude in simulation speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.kernel.activity import ActivitySample


@dataclass(frozen=True)
class WorkloadPhase:
    """One phase of a workload.

    Parameters
    ----------
    duration:
        Phase length in seconds; ``None`` means "runs until the workload is
        stopped externally".
    cpu_demand:
        Fraction of one core the task tries to consume (0..1).
    ipc:
        Retired instructions per busy cycle.
    cache_miss_per_kinst / branch_miss_per_kinst:
        LLC misses / branch mispredictions per 1000 retired instructions.
        These two rates are what make energy-per-instruction differ across
        benchmarks (the distinct slopes of Figure 6).
    rss_mb:
        Resident set size while the phase runs.
    syscalls_per_sec / voluntary_switches_per_sec:
        OS-interaction rates (drive Table III's overhead mechanisms).
    net_kbps / io_ops_per_sec:
        Network and block-IO activity (drive interrupt/softirq counters).
    work_rate:
        Benchmark work units completed per second of *useful* CPU time.
    """

    duration: Optional[float] = None
    cpu_demand: float = 1.0
    ipc: float = 1.5
    cache_miss_per_kinst: float = 1.0
    branch_miss_per_kinst: float = 1.0
    rss_mb: float = 10.0
    syscalls_per_sec: float = 100.0
    voluntary_switches_per_sec: float = 10.0
    net_kbps: float = 0.0
    io_ops_per_sec: float = 0.0
    work_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_demand <= 1.0:
            raise SimulationError(f"cpu_demand must be in [0,1]: {self.cpu_demand}")
        if self.ipc <= 0:
            raise SimulationError(f"ipc must be positive: {self.ipc}")
        if self.cache_miss_per_kinst < 0 or self.branch_miss_per_kinst < 0:
            raise SimulationError("miss rates cannot be negative")
        if self.duration is not None and self.duration <= 0:
            raise SimulationError(f"phase duration must be positive: {self.duration}")


class Workload:
    """A stateful sequence of phases attached to one task.

    The scheduler calls :meth:`demand` to learn how much CPU the task wants
    this tick, then :meth:`consume` with the CPU time actually granted.
    """

    def __init__(self, phases: Sequence[WorkloadPhase], name: str = "workload"):
        if not phases:
            raise SimulationError("workload needs at least one phase")
        self.name = name
        self.phases: List[WorkloadPhase] = list(phases)
        self._index = 0
        self._elapsed_in_phase = 0.0
        self.finished = False
        # running total of every sample consumed, as plain fields (see
        # :attr:`total`)
        self._cpu_ns = self._cycles = self._instructions = 0
        self._cache_misses = self._branch_misses = self._syscalls = 0
        self._voluntary_switches = self._rss_bytes = 0
        self._net_bytes = self._io_ops = 0
        self._work_units = 0.0
        #: single-entry memo of :meth:`consume`'s sample: ((phase index,
        #: cpu_seconds, dt, frequency_hz), sample). The sample is a pure
        #: function of that key, and a task's grants repeat tick to tick.
        self._memo: Optional[tuple] = None

    @property
    def total(self) -> ActivitySample:
        """Every sample consumed so far, summed as ``ActivitySample.__add__``
        sums them (``rss_bytes`` is the peak)."""
        return ActivitySample(
            self._cpu_ns,
            self._cycles,
            self._instructions,
            self._cache_misses,
            self._branch_misses,
            self._syscalls,
            self._voluntary_switches,
            self._rss_bytes,
            self._net_bytes,
            self._io_ops,
            self._work_units,
        )

    @property
    def current_phase(self) -> Optional[WorkloadPhase]:
        """The active phase, or None once the workload has finished."""
        if self.finished:
            return None
        return self.phases[self._index]

    def demand(self) -> float:
        """CPU demand (cores, 0..1) for the current tick."""
        phase = self.current_phase
        return 0.0 if phase is None else phase.cpu_demand

    def consume(self, cpu_seconds: float, dt: float, frequency_hz: float) -> ActivitySample:
        """Convert granted CPU time into hardware activity and advance.

        ``cpu_seconds`` is the busy time the scheduler granted within the
        ``dt``-second tick; phase progression follows wall (virtual) time,
        not CPU time, as real phases do.
        """
        if cpu_seconds < 0 or dt <= 0:
            raise SimulationError(
                f"bad consume arguments: cpu_seconds={cpu_seconds} dt={dt}"
            )
        if cpu_seconds > dt * 1.000001:
            raise SimulationError(
                f"granted {cpu_seconds}s of CPU in a {dt}s tick"
            )
        phase = self.current_phase
        if phase is None:
            return ActivitySample()

        key = (self._index, cpu_seconds, dt, frequency_hz)
        memo = self._memo
        if memo is not None and memo[0] == key:
            sample = memo[1]
        else:
            cycles = int(cpu_seconds * frequency_hz)
            instructions = int(cycles * phase.ipc)
            sample = ActivitySample(
                cpu_ns=int(cpu_seconds * 1e9),
                cycles=cycles,
                instructions=instructions,
                cache_misses=int(instructions * phase.cache_miss_per_kinst / 1000.0),
                branch_misses=int(instructions * phase.branch_miss_per_kinst / 1000.0),
                syscalls=int(phase.syscalls_per_sec * dt),
                voluntary_switches=int(phase.voluntary_switches_per_sec * dt),
                rss_bytes=int(phase.rss_mb * 1024 * 1024),
                net_bytes=int(phase.net_kbps * 1024 / 8 * dt),
                io_ops=int(phase.io_ops_per_sec * dt),
                work_units=phase.work_rate * cpu_seconds,
            )
            # a zero grant is not memoized: 0.0 == -0.0, but the two
            # give work_units of different sign
            if cpu_seconds:
                self._memo = (key, sample)
        self._cpu_ns += sample.cpu_ns
        self._cycles += sample.cycles
        self._instructions += sample.instructions
        self._cache_misses += sample.cache_misses
        self._branch_misses += sample.branch_misses
        self._syscalls += sample.syscalls
        self._voluntary_switches += sample.voluntary_switches
        if sample.rss_bytes > self._rss_bytes:
            self._rss_bytes = sample.rss_bytes
        self._net_bytes += sample.net_bytes
        self._io_ops += sample.io_ops
        self._work_units = self._work_units + sample.work_units

        self._elapsed_in_phase += dt
        if phase.duration is not None and self._elapsed_in_phase >= phase.duration:
            self._elapsed_in_phase = 0.0
            self._index += 1
            if self._index >= len(self.phases):
                self.finished = True
        return sample

    def seconds_to_phase_boundary(self) -> Optional[float]:
        """Virtual seconds until the current phase ends.

        ``None`` when the workload is finished or its current phase is
        unbounded — i.e. when the workload contributes no event horizon
        and a tick-coalescing driver may skip arbitrarily far as far as
        this workload is concerned. A boundary exactly due returns 0.0.
        """
        phase = self.current_phase
        if phase is None or phase.duration is None:
            return None
        return max(0.0, phase.duration - self._elapsed_in_phase)

    def stop(self) -> None:
        """Terminate the workload regardless of remaining phases."""
        self.finished = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else f"phase {self._index}/{len(self.phases)}"
        return f"Workload({self.name!r}, {state})"


def constant(
    name: str,
    *,
    cpu_demand: float = 1.0,
    ipc: float = 1.5,
    cache_miss_per_kinst: float = 1.0,
    branch_miss_per_kinst: float = 1.0,
    rss_mb: float = 10.0,
    duration: Optional[float] = None,
    syscalls_per_sec: float = 100.0,
    voluntary_switches_per_sec: float = 10.0,
    net_kbps: float = 0.0,
    io_ops_per_sec: float = 0.0,
    work_rate: float = 1.0,
) -> Workload:
    """A single-phase workload (the common case in experiments)."""
    phase = WorkloadPhase(
        duration=duration,
        cpu_demand=cpu_demand,
        ipc=ipc,
        cache_miss_per_kinst=cache_miss_per_kinst,
        branch_miss_per_kinst=branch_miss_per_kinst,
        rss_mb=rss_mb,
        syscalls_per_sec=syscalls_per_sec,
        voluntary_switches_per_sec=voluntary_switches_per_sec,
        net_kbps=net_kbps,
        io_ops_per_sec=io_ops_per_sec,
        work_rate=work_rate,
    )
    return Workload([phase], name=name)


def idle(duration: Optional[float] = None) -> Workload:
    """A workload that consumes (almost) nothing — a sleeping process."""
    return constant(
        "idle",
        cpu_demand=0.001,
        ipc=0.5,
        cache_miss_per_kinst=0.1,
        branch_miss_per_kinst=0.1,
        rss_mb=2.0,
        duration=duration,
        syscalls_per_sec=5.0,
        voluntary_switches_per_sec=2.0,
    )
