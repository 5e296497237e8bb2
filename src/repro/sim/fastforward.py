"""Adaptive tick coalescing: advance phase-stable stretches in one tick.

The Figure 2–4 experiments drive every kernel with per-second ticks for a
week of virtual time — millions of ticks whose subsystem updates are all
linear in ``dt`` while nothing about the admitted workload set changes.
This module detects those stretches and replaces the many small ticks
with one large coalesced ``tick(dt)``.

A coalesced step is legal only when the window it spans is *event free*:

1. **Workload-set stability** — no tenant arrivals/departures, no
   container exec/kill, no workload phase boundary inside the window.
   Enforced two ways: phase boundaries are reported as *horizons* (the
   engine never steps across one), and spawn/kill/exec churn is caught by
   the :class:`StabilityTracker` demand fingerprint, which forces one
   base-``dt`` "stabilizing" tick after any change so the subsequent
   power/ratio guards see state that reflects the current workload set.
2. **No pending trace sample** — a sample must observe a tick that *ends*
   at the sample time, so the next sample time is a horizon.
3. **No driver decision point** — tenant drivers and attack strategies
   report their next decision time (:meth:`next_event_time` /
   ``next_event_horizon``); the engine never skips one.
4. **No breaker near its trip knee** — the thermal trip integral is exact
   under constant load only while the overload ratio stays <= 1; drivers
   guard coalescing on every breaker being comfortably below rating (or
   already tripped) and fall back to base ticks during overloads, which
   preserves exact trip timing.
5. **Grid alignment** — coalesced steps are whole multiples of the base
   ``dt``, so every coalesced tick boundary is also a reference tick
   boundary and time-triggered events fire at identical virtual times.

Under these invariants every subsystem counter the power model consumes
is linear in ``dt``, so a coalesced run matches the per-second reference
within integer-truncation noise; ``tests/sim/test_fastforward_accuracy.py``
enforces the tolerance.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.metrics import SimMetrics

#: slack used when comparing float times that should sit on the dt grid
_EPS = 1e-9


def kernel_demand_fingerprint(kernel) -> float:
    """Total CPU demand (cores) of one kernel's runnable workload set.

    Any spawn, kill, exec, workload finish, or phase change moves this
    sum, so equal consecutive fingerprints mean the admitted workload set
    is unchanged since the previous tick was planned.
    """
    from repro.kernel.process import TaskState

    total = 0.0
    for task in kernel.scheduler.iter_tasks():
        workload = task.workload
        if (
            task.state is TaskState.RUNNING
            and workload is not None
            and not workload.finished
        ):
            total += workload.demand()
    return total


def kernel_phase_horizon_s(kernel) -> float:
    """Seconds until the earliest workload phase boundary on one kernel.

    ``math.inf`` when every running workload is in an unbounded phase.
    """
    horizon = math.inf
    for task in kernel.scheduler.iter_tasks():
        workload = task.workload
        if workload is None or workload.finished:
            continue
        boundary = workload.seconds_to_phase_boundary()
        if boundary is not None and boundary < horizon:
            horizon = boundary
    return horizon


class DriverHorizon:
    """A horizon source whose state lives entirely on the driver side.

    Horizon callables registered in ``DatacenterSimulation.horizon_sources``
    normally may observe host kernels, which in parallel mode live in shard
    workers — so the parallel driver rejects them. Wrapping a callable in
    ``DriverHorizon`` asserts that it reads only driver-held state (e.g. an
    attack strategy's scheduled next action time), making it legal to fold
    into the parallel horizon min-reduce. The serial path calls it like any
    other source.
    """

    __slots__ = ("fn",)

    #: the parallel driver folds sources carrying this marker
    parallel_safe = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, now: float) -> float:
        return self.fn(now)


def fold_driver_horizons(now: float, sources) -> float:
    """Min over the parallel-safe horizon sources (``inf`` if none).

    The parallel driver's half of the horizon merge: shard workers reduce
    their host-observing horizons (tenant decisions, phase boundaries,
    fault barriers) worker-side, and the driver folds in the sources that
    are marked :class:`DriverHorizon`-safe, so the merged horizon equals
    the serial driver's fold value exactly (min is order-independent on
    floats).
    """
    horizon = math.inf
    for source in sources:
        if getattr(source, "parallel_safe", False):
            horizon = min(horizon, source(now))
    return horizon


class DecisionGrid:
    """An absolute-time decision grid: boundaries at ``k * interval_s``.

    Tenant demand adjustments are anchored to this grid rather than to
    ``last_adjust + interval`` so that a coalescing engine jumping several
    intervals in one tick lands on the *same* decision sequence as a
    fine-ticked run: boundary ``k`` exists at ``k * interval_s`` whether or
    not any tick happened to end there, and keyed draws (``burst@<k>``)
    address it by index. Both the scalar
    :class:`~repro.datacenter.tenants.DiurnalTenantDriver` and the
    columnar :class:`~repro.datacenter.population.TenantPopulation` share
    this arithmetic, which is part of the bit-identity contract between
    them.
    """

    __slots__ = ("interval_s",)

    def __init__(self, interval_s: float):
        if interval_s <= 0:
            raise SimulationError(f"grid interval must be positive: {interval_s}")
        self.interval_s = interval_s

    def index_at(self, now: float) -> int:
        """Index of the last boundary at or before ``now``."""
        return int(now // self.interval_s)

    def time_of(self, index: int) -> float:
        """Absolute virtual time of boundary ``index``."""
        return index * self.interval_s

    def next_boundary(self, now: float, pending_index: Optional[int] = None) -> float:
        """Strictly-future decision time as seen from ``now``.

        ``pending_index`` is the caller's next unprocessed boundary; when
        it is already past ``now`` (the caller has caught up), that
        boundary is the answer. Otherwise the next grid point after
        ``now``. The result is always ``> now``, so a coalescing engine
        is never handed a zero-length horizon.
        """
        index = self.index_at(now)
        if pending_index is not None and pending_index > index:
            return self.time_of(pending_index)
        return self.time_of(index + 1)


class StabilityTracker:
    """Detects whether the workload set changed since the last planned tick.

    The tracker is fed a fingerprint once per planning decision; a
    coalesced step is only offered when the fingerprint equals the one
    observed at the previous decision, i.e. when at least one tick has
    already executed against the current workload set. That guarantees
    ``last_tick``-derived quantities (wall power, breaker ratios) that
    guards consult describe the load the coalesced window will actually
    carry.
    """

    def __init__(self) -> None:
        self._last: Optional[Tuple] = None

    def observe(self, fingerprint: Tuple) -> bool:
        """Feed the current fingerprint; returns True when stable."""
        stable = fingerprint == self._last
        self._last = fingerprint
        return stable

    def peek(self, fingerprint: Tuple) -> bool:
        """:meth:`observe`'s answer without recording the fingerprint.

        Batched epoch planners use this to *decide* whether a candidate
        tick is stable before committing to include it: a rejected tick
        must leave the tracker exactly as it was (recording it would
        clobber a fresh :meth:`reset` and skew the next real observe).
        """
        return fingerprint == self._last

    def reset(self) -> None:
        """Forget history (forces a stabilizing tick next plan)."""
        self._last = None

    def snapshot(self) -> Optional[Tuple]:
        """The last observed fingerprint, for checkpoint manifests."""
        return self._last

    def restore(self, state: Optional[Tuple]) -> None:
        """Restore a :meth:`snapshot` value on campaign resume."""
        self._last = state


class FastForwardEngine:
    """Plans tick sizes: base ``dt`` near events, large steps in between.

    Parameters
    ----------
    max_step_s:
        Upper bound on a single coalesced step, bounding how long the
        simulation can go without re-evaluating guards.
    """

    def __init__(self, max_step_s: float = 3600.0):
        if max_step_s <= 0:
            raise SimulationError(f"max_step_s must be positive: {max_step_s}")
        self.max_step_s = max_step_s
        self.stability = StabilityTracker()
        self.metrics = SimMetrics()

    def plan_step(
        self,
        now: float,
        remaining: float,
        base_dt: float,
        *,
        horizon: float = math.inf,
        stable: bool = True,
    ) -> float:
        """The next tick size in virtual seconds.

        ``horizon`` is the absolute virtual time of the next event the
        window must not cross (the engine may step exactly *to* it);
        ``stable`` is the conjunction of the caller's safety guards.
        Returns ``min(base_dt, remaining)`` whenever coalescing is not
        both safe and worthwhile; otherwise a multiple of ``base_dt``.
        """
        if base_dt <= 0:
            raise SimulationError(f"base dt must be positive: {base_dt}")
        base = min(base_dt, remaining)
        if not stable:
            return base
        limit = min(remaining, self.max_step_s, horizon - now)
        # Align to the base-dt grid so coalesced boundaries are a subset
        # of the reference driver's boundaries (invariant 5).
        steps = math.floor(limit / base_dt + _EPS)
        if steps <= 1:
            return base
        return steps * base_dt

    @staticmethod
    def min_horizon(now: float, horizons: Iterable[float]) -> float:
        """The nearest of several absolute event times (``inf`` if none)."""
        nearest = math.inf
        for h in horizons:
            if h < nearest:
                nearest = h
        return max(nearest, now)
