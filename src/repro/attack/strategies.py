"""Attack strategies: continuous, periodic, and synergistic (Section IV).

All three drive the same attacker assets — container instances on target
servers — and differ only in *when* they burn: continuously (maximum cost,
maximum detectability), on a blind timer (the paper's Figure 3 baseline),
or triggered by the leaked power signal at benign crests (the synergistic
attack). Outcomes record spike heights, trial counts, and the attacker's
utilization-based bill, reproducing the paper's effect/cost comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.attack.monitor import CrestDetector, RaplPowerMonitor
from repro.attack.virus import power_virus
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import AttackError
from repro.runtime.cloud import Instance
from repro.runtime.workload import Workload
from repro.sim.fastforward import DriverHorizon
from repro.sim.parallel import ShardInstanceView


@dataclass
class AttackOutcome:
    """What one attack run achieved and cost."""

    strategy: str
    duration_s: float
    trials: int = 0
    peak_watts: float = 0.0
    background_peak_watts: float = 0.0
    attacker_cpu_seconds: float = 0.0
    bill_dollars: float = 0.0
    breaker_tripped: bool = False
    spike_watts: List[float] = field(default_factory=list)
    #: fault-injection and graceful-degradation counters observed during
    #: the run (empty when the fleet ran fault-free); see docs/faults.md
    degradation: Dict[str, float] = field(default_factory=dict)

    @property
    def amplification_watts(self) -> float:
        """Spike height over the benign-only peak."""
        return self.peak_watts - self.background_peak_watts


class _StrategyBase:
    """Shared driver plumbing for the three strategies."""

    name = "base"

    def __init__(
        self,
        sim: DatacenterSimulation,
        instances: List[Instance],
        virus_factory: Callable[[float], Workload] = power_virus,
        burst_s: float = 30.0,
        cores_per_instance: int = 4,
    ):
        if not instances:
            raise AttackError("attack needs at least one controlled instance")
        self.sim = sim
        self.instances = instances
        self.virus_factory = virus_factory
        self.burst_s = burst_s
        self.cores = cores_per_instance
        #: the execution mode the strategy was built for: the parallel
        #: engine when the sim already runs sharded, else None (serial).
        #: Bursts, reaps, bills, and monitors are wired for that mode at
        #: construction, so run() refuses a sim that switched since.
        self._par = sim._parallel
        #: absolute time of this strategy's next scheduled action; the
        #: sim's fast-forward engine must not coalesce a tick across it.
        #: It is pure driver-side state, so the parallel engine may fold
        #: it into the merged horizon (DriverHorizon marks it safe).
        self._next_event = math.inf
        sim.horizon_sources.append(DriverHorizon(self.next_event_horizon))

    def next_event_horizon(self, now: float) -> float:
        """Absolute virtual time of the strategy's next decision point."""
        return max(self._next_event, now)

    def _trace(self):
        """The sim's tracer when tracing is live, else ``None``.

        Attack spans land on the ``attack`` track and carry sim-time
        intervals only, so serial and parallel campaigns (bit-identical
        by the golden contract) emit identical span timelines.
        """
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def _check_mode(self) -> None:
        if self._par is not self.sim._parallel:
            raise AttackError(
                "the simulation changed execution mode after this strategy"
                " was built; construct strategies after the first parallel"
                " run (or keep the simulation serial)"
            )

    def _burst(self) -> None:
        """Start one power burst on every controlled instance."""
        for instance in self.instances:
            for core in range(self.cores):
                self.sim.exec_in_instance(
                    instance, f"pv-{core}", self.virus_factory, self.burst_s
                )

    def _reap(self) -> None:
        for instance in self.instances:
            self.sim.reap_instance(instance)

    def _billed(self) -> float:
        tenants = {i.tenant for i in self.instances}
        return sum(self.sim.tenant_bill(t) for t in tenants)

    def _cpu_seconds(self) -> float:
        return self.sim.instances_cpu_seconds(self.instances)

    def _degradation(self) -> Dict[str, float]:
        """Fault/degradation counters for the outcome (fleet-wide view)."""
        return dict(self.sim.fault_report())

    def _finish(self, outcome: AttackOutcome, window_start: float) -> AttackOutcome:
        trace = self.sim.aggregate_trace.window(window_start, self.sim.now + 1)
        outcome.peak_watts = trace.peak if len(trace) else 0.0
        outcome.attacker_cpu_seconds = self._cpu_seconds()
        outcome.bill_dollars = self._billed()
        outcome.breaker_tripped = self.sim.any_breaker_tripped()
        outcome.degradation = self._degradation()
        return outcome


class ContinuousAttack(_StrategyBase):
    """Burn everywhere, all the time: catches every crest, costs the most."""

    name = "continuous"

    def run(self, duration_s: float, dt: float = 1.0, coalesce: bool = False) -> AttackOutcome:
        """Run viruses for the whole window.

        ``coalesce`` lets the fleet fast-forward between events; the
        breaker-knee guard keeps overloaded stretches at base ``dt``.
        """
        self._check_mode()
        tracer = self._trace()
        start = self.sim.now
        outcome = AttackOutcome(strategy=self.name, duration_s=duration_s)
        elapsed = 0.0
        while elapsed < duration_s:
            if tracer is not None:
                b_t0, b_w0 = self.sim.now, perf_counter()
            self._burst()
            outcome.trials += 1
            window = min(self.burst_s, duration_s - elapsed)
            self._next_event = self.sim.now + window
            self.sim.run(window, dt=dt, coalesce=coalesce)
            self._reap()
            if tracer is not None:
                tracer.add_span(
                    "attack.burst",
                    b_t0,
                    self.sim.now,
                    perf_counter() - b_w0,
                    track="attack",
                    trial=outcome.trials,
                )
            elapsed = self.sim.now - start
        self._next_event = math.inf
        return self._finish(outcome, start)


class PeriodicAttack(_StrategyBase):
    """The blind baseline of Figure 3: a burst every ``period_s``."""

    name = "periodic"

    def __init__(self, *args, period_s: float = 300.0, **kwargs):
        super().__init__(*args, **kwargs)
        if period_s <= self.burst_s:
            raise AttackError(
                f"period {period_s}s must exceed burst {self.burst_s}s"
            )
        self.period_s = period_s

    def run(self, duration_s: float, dt: float = 1.0, coalesce: bool = False) -> AttackOutcome:
        """Fire on the timer, record each spike.

        With ``coalesce=True`` the quiet stretches between bursts — the
        bulk of the schedule — fast-forward; bursts themselves stay at
        base ``dt`` via the breaker-knee guard.
        """
        self._check_mode()
        tracer = self._trace()
        start = self.sim.now
        outcome = AttackOutcome(strategy=self.name, duration_s=duration_s)
        elapsed = 0.0
        while elapsed < duration_s:
            if tracer is not None:
                b_t0, b_w0 = self.sim.now, perf_counter()
            self._burst()
            outcome.trials += 1
            self._next_event = self.sim.now + self.burst_s
            self.sim.run(self.burst_s, dt=dt, coalesce=coalesce)
            spike = self.sim.aggregate_trace.window(
                self.sim.now - self.burst_s, self.sim.now + 1
            )
            if len(spike):
                outcome.spike_watts.append(spike.peak)
            self._reap()
            if tracer is not None:
                tracer.add_span(
                    "attack.burst",
                    b_t0,
                    self.sim.now,
                    perf_counter() - b_w0,
                    track="attack",
                    trial=outcome.trials,
                    spike=spike.peak if len(spike) else 0.0,
                )
            idle = min(self.period_s - self.burst_s, duration_s - (self.sim.now - start))
            if idle > 0:
                self._next_event = self.sim.now + idle
                self.sim.run(idle, dt=dt, coalesce=coalesce)
            elapsed = self.sim.now - start
        self._next_event = math.inf
        return self._finish(outcome, start)


class SynergisticAttack(_StrategyBase):
    """The paper's attack: monitor the leaked RAPL signal, strike crests."""

    name = "synergistic"

    def __init__(
        self,
        *args,
        detector_factory: Callable[[], CrestDetector] = CrestDetector,
        cooldown_s: float = 600.0,
        max_trials: Optional[int] = None,
        learn_s: float = 0.0,
        monitor_factory: Callable = RaplPowerMonitor,
        resume_key: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.cooldown_s = cooldown_s
        self.max_trials = max_trials
        #: "learn the crests and troughs of the power consumption pattern"
        #: (Section IV-A): observe this long before the first strike, so
        #: the crest detector's band reflects the real range instead of a
        #: short prefix.
        self.learn_s = learn_s
        #: checkpoint/resume participation (``docs/resilience.md``): with
        #: a key set, the strategy contributes its campaign state —
        #: monitors included — to every checkpoint manifest and, on a
        #: resumed sim that restored such a manifest, reconstructs itself
        #: from it instead of building fresh monitors.
        self.resume_key = resume_key
        restored = (
            self.sim.restored_extras.get(resume_key)
            if resume_key is not None
            else None
        )
        #: the leaked signal source: RAPL by default, or the Section
        #: VII-A utilization estimator on hosts without RAPL. Monitors
        #: live on the driver in both modes; sharded, each reads through
        #: a ShardInstanceView whose reads run in the owning worker.
        self.monitors: Dict[str, object] = {}
        self._monitors_unavailable = 0
        #: campaign state promoted to attributes so a checkpoint taken at
        #: a mid-campaign safepoint can capture it (None while no
        #: campaign is live)
        self._outcome: Optional[AttackOutcome] = None
        self._campaign_start = 0.0
        self._last_burst = -1e18
        self._restored_campaign: Optional[dict] = None
        if restored is not None:
            if self._par is None:
                raise AttackError(
                    "restored campaign state requires the parallel engine"
                    " (resume the simulation before building the strategy)"
                )
            # the monitors rode the manifest with views unbound from any
            # engine; point them at the resumed one
            self.monitors = restored["monitors"]
            for monitor in self.monitors.values():
                monitor.instance.engine = self._par
            self._monitors_unavailable = restored["monitors_unavailable"]
            self.detector = restored["detector"]
            self._restored_campaign = restored["campaign"]
        else:
            for instance in self.instances:
                view = instance
                if self._par is not None:
                    view = ShardInstanceView(self._par, instance.instance_id)
                monitor = monitor_factory(view)
                if not monitor.available():
                    # a masked or currently-faulted channel degrades
                    # coverage; only losing *every* channel kills the
                    # attack
                    self._monitors_unavailable += 1
                    continue
                self.monitors[instance.instance_id] = monitor
            # One detector over the *sum* of the per-server RAPL signals:
            # the attacker cares about the load on the shared power feed,
            # so the trigger is a crest of the aggregate, not of any
            # single machine.
            self.detector = detector_factory()
        if not self.monitors:
            raise AttackError(
                "no instance can read the leaked signal channel; "
                "synergistic attack needs the leak"
            )
        if resume_key is not None:
            self.sim.checkpoint_extras[resume_key] = self._checkpoint_state

    def _checkpoint_state(self) -> dict:
        """Driver-side campaign state for the checkpoint manifest.

        Captured only at safepoints (top of a campaign iteration), where
        the loop state is exactly these four scalars plus the detector
        and the monitors (differentiator, backoff and gap state).
        """
        state = {
            "monitors": self.monitors,
            "monitors_unavailable": self._monitors_unavailable,
            "detector": self.detector,
            "campaign": None,
        }
        if self._outcome is not None:
            state["campaign"] = {
                "start": self._campaign_start,
                "trials": self._outcome.trials,
                "spikes": list(self._outcome.spike_watts),
                "last_burst": self._last_burst,
            }
        return state

    def _aggregate_sample(self) -> Optional[float]:
        watts = [m.sample(self.sim.now) for m in self.monitors.values()]
        live = [w for w in watts if w is not None]
        if len(live) < len(watts):
            # priming or a monitor in fault backoff: a partial sum would
            # skew the detector band, so skip this sampling period
            return None
        return sum(live)

    def _degradation(self) -> Dict[str, float]:
        report = super()._degradation()
        if self._monitors_unavailable:
            report["monitors-unavailable"] = self._monitors_unavailable
        for monitor in self.monitors.values():
            summary = getattr(monitor, "degradation", None)
            if summary is None:
                continue
            for key, value in summary().items():
                name = f"monitor-{key.replace('_', '-')}"
                report[name] = report.get(name, 0) + value
        return report

    def run(self, duration_s: float, dt: float = 1.0, coalesce: bool = False) -> AttackOutcome:
        """Sample every step; burst when the aggregate power crests.

        The monitoring loop itself cannot be coalesced — the attacker
        needs a RAPL delta every ``dt`` to see crests, so the strategy's
        event horizon is always one sampling period out. ``coalesce``
        only lets the engine tighten the burst windows' bookkeeping.
        """
        self._check_mode()
        tracer = self._trace()
        # a resumed sim replays already-covered windows as no-ops; drain
        # them at the monitoring cadence (burst_s is a dt multiple, so
        # the replay cursor lands exactly on the checkpoint time)
        while self.sim.replaying:
            self.sim.run(dt, dt=dt, coalesce=coalesce)
        restored = self._restored_campaign
        self._restored_campaign = None
        outcome = AttackOutcome(strategy=self.name, duration_s=duration_s)
        if restored is not None:
            # mid-campaign checkpoint: pick the loop up where the golden
            # run stood at the snapshot instant (the recon span is
            # already in the restored tracer timeline)
            start = restored["start"]
            outcome.trials = restored["trials"]
            outcome.spike_watts = list(restored["spikes"])
            self._last_burst = restored["last_burst"]
        else:
            start = self.sim.now
            self._last_burst = -1e18
            if tracer is not None and self.learn_s > 0:
                # the Section IV-A learning phase is a fixed sim-time
                # window known up front; record it as one recon span
                tracer.add_span(
                    "attack.recon",
                    start,
                    start + min(self.learn_s, duration_s),
                    0.0,
                    track="attack",
                    learn_s=self.learn_s,
                )
        self._outcome = outcome
        self._campaign_start = start
        while self.sim.now - start < duration_s:
            self.sim.checkpoint_safepoint()
            if tracer is not None:
                m_t0, m_w0 = self.sim.now, perf_counter()
            self._next_event = self.sim.now + dt
            self.sim.run(dt, dt=dt, coalesce=coalesce)
            aggregate = self._aggregate_sample()
            is_crest = aggregate is not None and self.detector.observe(aggregate)
            if tracer is not None:
                tracer.add_span(
                    "attack.monitor",
                    m_t0,
                    self.sim.now,
                    perf_counter() - m_w0,
                    track="attack",
                    crest=is_crest,
                )
            armed = self.sim.now - start >= self.learn_s
            trials_left = (
                self.max_trials is None or outcome.trials < self.max_trials
            )
            if (
                is_crest
                and armed
                and trials_left
                and self.sim.now - self._last_burst >= self.cooldown_s
            ):
                if tracer is not None:
                    b_t0, b_w0 = self.sim.now, perf_counter()
                self._burst()
                outcome.trials += 1
                self._last_burst = self.sim.now
                self._next_event = self.sim.now + self.burst_s
                self.sim.run(self.burst_s, dt=dt, coalesce=coalesce)
                spike = self.sim.aggregate_trace.window(
                    self.sim.now - self.burst_s, self.sim.now + 1
                )
                if len(spike):
                    outcome.spike_watts.append(spike.peak)
                self._reap()
                # re-prime monitors: our own burst polluted the series
                for monitor in self.monitors.values():
                    monitor.sample(self.sim.now)
                if tracer is not None:
                    tracer.add_span(
                        "attack.burst",
                        b_t0,
                        self.sim.now,
                        perf_counter() - b_w0,
                        track="attack",
                        trial=outcome.trials,
                        spike=spike.peak if len(spike) else 0.0,
                    )
        self._next_event = math.inf
        self._outcome = None
        return self._finish(outcome, start)

    def release_monitors(self) -> None:
        """Drop this campaign's monitors.

        The strategy cannot sample after this; call it once the campaign
        (and any degradation reporting) is finished.
        """
        self.monitors = {}
