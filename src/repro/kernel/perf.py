"""The perf_event subsystem.

Per-cgroup performance accounting is the data source of the defense's
power model (Section V-B-1): the modified RAPL driver reads retired
instructions, cache misses, and branch misses per perf_event cgroup.

Two properties of the real subsystem matter for the reproduction and are
modelled here:

1. Accounting is off until someone creates perf events for a cgroup
   (the defense does this at power-namespace initialization, with the
   events owned by ``TASK_TOMBSTONE`` so they outlive any user process).
2. Accounting costs time: scheduling *into* or *out of* a monitored cgroup
   toggles the hardware counters, so inter-cgroup context switches become
   more expensive — the mechanism behind Table III's pipe-based
   context-switching overhead — and event streams impose a small
   per-event bookkeeping cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.kernel.activity import ActivitySample
from repro.kernel.cgroups import Cgroup, CgroupManager, PerfCounters, PerfEventState
from repro.errors import KernelError

#: Sentinel owner for perf events detached from any user process, mirroring
#: the kernel's TASK_TOMBSTONE trick used by the paper's implementation.
TASK_TOMBSTONE = object()


@dataclass(frozen=True)
class PerfTuning:
    """Cost model for perf accounting overhead.

    - ``toggle_ns``: CPU time to disable+re-enable counters on one
      inter-cgroup context switch involving a monitored cgroup.
    - ``spawn_ns``: CPU time to wire a newly spawned task into its
      cgroup's perf events.
    - ``per_event_cost_s``: bookkeeping time per counted hardware event
      (cache/branch misses), modelling shared-buffer contention; this is
      what makes memory-intensive workloads (UnixBench file copy) slow
      down when many monitored copies run in parallel.
    """

    toggle_ns: int = 2000
    spawn_ns: int = 15000
    per_event_cost_s: float = 3.0e-10


class PerfSubsystem:
    """Host-wide view of perf_event accounting."""

    def __init__(self, cgroups: CgroupManager, tuning: PerfTuning = PerfTuning()):
        self._cgroups = cgroups
        self.tuning = tuning
        #: counters for the entire host, always on (the host root can
        #: always run `perf`); the defense's M_host model reads these.
        self.host_counters = PerfCounters()
        self._monitored: Set[Cgroup] = set()
        #: monitored-cgroup event rate observed in the previous tick
        #: (events/sec), used for the contention cost model.
        self.monitored_event_rate: float = 0.0

    def _perf_state(self, cgroup: Cgroup) -> PerfEventState:
        if cgroup.controller != "perf_event":
            raise KernelError(
                f"perf operations need a perf_event cgroup, got {cgroup.controller}"
            )
        state = cgroup.state
        assert isinstance(state, PerfEventState)
        return state

    def enable(self, cgroup: Cgroup, owner: object = TASK_TOMBSTONE) -> None:
        """Create perf events for a cgroup (start accounting).

        ``owner`` is recorded for fidelity with the paper's TASK_TOMBSTONE
        ownership but has no behavioural effect in the simulation.
        """
        state = self._perf_state(cgroup)
        state.enabled = True
        self._monitored.add(cgroup)

    def disable(self, cgroup: Cgroup) -> None:
        """Tear down a cgroup's perf events (stop accounting)."""
        state = self._perf_state(cgroup)
        state.enabled = False
        self._monitored.discard(cgroup)

    def is_monitored(self, cgroup: Cgroup) -> bool:
        """Whether accounting is active for this perf_event cgroup."""
        return self._perf_state(cgroup).enabled

    def finish_tick(self, dt: float, total: ActivitySample, monitored_events: int) -> None:
        """Close out a tick: account the host's activity, publish the
        monitored event rate.

        ``total`` is the tick's host-wide activity (the host counters are
        always on); ``monitored_events`` the cache and branch misses the
        monitored cgroups counted, each of which the scheduler charged
        sample by sample.
        """
        self.host_counters.add(
            total.cycles, total.instructions, total.cache_misses, total.branch_misses
        )
        self.monitored_event_rate = monitored_events / dt if dt > 0 else 0.0

    def contention_slowdown(self) -> float:
        """Fractional CPU-time tax on monitored tasks from event bookkeeping.

        Derived from the previous tick's monitored event rate; bounded so a
        pathological workload cannot drive useful time negative.
        """
        tax = self.monitored_event_rate * self.tuning.per_event_cost_s
        return min(tax, 0.5)
