"""cpuidle state accounting behind
``/sys/devices/system/cpu/cpu*/cpuidle/state*/{usage,time}``.

Idle-state residency counters are host-global accumulators unique to a
machine (Table II ranks them in the U=True group) and their deltas track
the host's instantaneous load — each idle entry bumps ``usage`` and the
microsecond ``time`` counter of whichever C-state the governor picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.scheduler import TickResult

#: (name, description, exit latency µs) of the modelled C-states
C_STATES = (
    ("POLL", "CPUIDLE CORE POLL IDLE", 0),
    ("C1", "MWAIT 0x00", 2),
    ("C1E", "MWAIT 0x01", 10),
    ("C3", "MWAIT 0x10", 70),
    ("C6", "MWAIT 0x20", 85),
)


def _band(entries_per_sec: float, split: dict) -> Tuple[float, tuple]:
    """One governor load band: ``(entries_per_sec, ((C-state index,
    share), ...))`` in C-state order, zero shares dropped."""
    return entries_per_sec, tuple(
        (i, split[name]) for i, (name, _, _) in enumerate(C_STATES) if split[name] > 0
    )


#: the idle split of a mostly-idle, a lightly loaded and a loaded CPU
_IDLE_BAND = _band(30.0, {"C6": 0.92, "C3": 0.05, "C1E": 0.02, "C1": 0.01, "POLL": 0.0})
_LIGHT_BAND = _band(300.0, {"C6": 0.55, "C3": 0.25, "C1E": 0.12, "C1": 0.07, "POLL": 0.01})
_BUSY_BAND = _band(1500.0, {"C6": 0.10, "C3": 0.25, "C1E": 0.35, "C1": 0.25, "POLL": 0.05})


@dataclass
class IdleState:
    """One C-state of one CPU."""

    name: str
    desc: str
    latency_us: int
    usage: int = 0
    time_us: int = 0


@dataclass
class CpuIdle:
    """All C-states of one CPU."""

    cpu: int
    states: List[IdleState] = field(default_factory=list)


class CpuIdleSubsystem:
    """Per-CPU idle-state residency accounting."""

    def __init__(self, ncpus: int):
        self.cpus: List[CpuIdle] = [
            CpuIdle(
                cpu=c,
                states=[
                    IdleState(name=n, desc=d, latency_us=lat) for n, d, lat in C_STATES
                ],
            )
            for c in range(ncpus)
        ]
        #: per CPU, a single-entry memo of the last tick's increments:
        #: (idle seconds, band, ((state, time_us, usage), ...))
        self._last: List[Optional[tuple]] = [None] * ncpus

    def cpu(self, cpu: int) -> CpuIdle:
        """Idle accounting for one CPU."""
        try:
            return self.cpus[cpu]
        except IndexError:
            raise KernelError(f"no such cpu: {cpu}")

    def tick(self, result: TickResult) -> None:
        """Distribute each CPU's idle time across C-states.

        Heuristic governor: a mostly-idle CPU sinks into deep C6; a loaded
        CPU's short idle gaps stay in shallow C1/C1E. This mirrors how the
        menu governor's choices correlate with load, which is what makes
        the deltas informative to an observer.
        """
        dt = result.dt
        busy_of = result.busy_seconds.get
        util_of = result.utilization.get
        last = self._last
        for i, idle in enumerate(self.cpus):
            idle_s = max(0.0, dt - busy_of(idle.cpu, 0.0))
            if idle_s <= 0:
                continue
            util = util_of(idle.cpu, 0.0)
            if util < 0.05:
                band = _IDLE_BAND
            elif util < 0.5:
                band = _LIGHT_BAND
            else:
                band = _BUSY_BAND
            memo = last[i]
            if memo is None or memo[0] != idle_s or memo[1] is not band:
                entries_per_sec, split = band
                states = idle.states
                memo = last[i] = (
                    idle_s,
                    band,
                    tuple(
                        (
                            states[s],
                            int(idle_s * share * 1e6),
                            max(1, int(entries_per_sec * idle_s * share)),
                        )
                        for s, share in split
                    ),
                )
            for state, time_us, usage in memo[2]:
                state.time_us += time_us
                state.usage += usage
