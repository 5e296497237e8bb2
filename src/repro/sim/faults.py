"""Deterministic fault injection for the simulated substrate.

The paper's power attack and defense run for days on real clouds where
sensors glitch, hosts reboot, and ``/proc``/``/sys`` reads intermittently
fail. This module gives the reproduction the same hostile substrate,
*deterministically*: a :class:`FaultSchedule` of timestamped
:class:`FaultEvent` s is generated from a seed (via
:class:`repro.sim.rng.DeterministicRNG` — never wall-clock randomness) and
replayed against the simulation clock by a :class:`FaultInjector`.

Fault taxonomy (see ``docs/faults.md`` for the degradation contracts):

- **RAPL counter faults** — stuck (counter freezes), dropped (reads raise
  ``EIO``), garbage (reads return uniform junk), and spurious wraparound
  (one displaced reading, which consumers see as a wrap).
- **Pseudo-file read faults** — transient ``EIO`` on reads matching a
  glob under ``/proc`` or ``/sys`` for a bounded window.
- **Machine crash/restart** — a server goes dark (no ticks, no wall
  power, trace gap) and reboots after a downtime window.
- **Container OOM kill** — the most recently started non-init task of
  one container is killed, as the OOM killer would.
- **Clock jitter** — recorded trace-sample timestamps wobble around the
  nominal sampling grid for a window.
- **Forced breaker trip** — a rack breaker opens (operator error, ground
  fault) and recloses after a downtime window.

Determinism rules:

1. All randomness derives from the schedule/injector seed through named
   :class:`DeterministicRNG` streams; two runs with equal seeds replay
   bit-identical faults.
2. Random draws happen per *event* or per *trace sample*, never per
   simulation tick, so a coalescing driver consumes the same draws as a
   per-``dt`` reference driver.
3. Generated event times (and durations) snap to the base-``dt`` grid,
   and every fault boundary is a **barrier** for the fast-forward engine
   (:meth:`FaultInjector.next_barrier`): a coalesced tick may end exactly
   at a fault boundary but never step across one.
"""

from __future__ import annotations

import enum
import fnmatch
import math
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, TransientReadError
from repro.sim.rng import DeterministicRNG

_EPS = 1e-9

#: pseudo-files a flaky host plausibly fails to serve (the generator
#: picks targets from this pool)
DEFAULT_EIO_PATHS: Tuple[str, ...] = (
    "/proc/uptime",
    "/proc/stat",
    "/proc/meminfo",
    "/proc/sys/kernel/random/boot_id",
    "/sys/class/powercap/*",
    "/sys/class/net/*",
)


class FaultKind(enum.Enum):
    """The injectable fault types."""

    RAPL_STUCK = "rapl-stuck"
    RAPL_DROP = "rapl-drop"
    RAPL_GARBAGE = "rapl-garbage"
    RAPL_WRAP = "rapl-wrap"
    PSEUDO_EIO = "pseudo-eio"
    MACHINE_CRASH = "machine-crash"
    OOM_KILL = "oom-kill"
    CLOCK_JITTER = "clock-jitter"
    BREAKER_TRIP = "breaker-trip"


#: fault kinds whose effect spans ``duration_s`` (the rest are one-shot)
WINDOWED_KINDS = frozenset(
    {
        FaultKind.RAPL_STUCK,
        FaultKind.RAPL_DROP,
        FaultKind.RAPL_GARBAGE,
        FaultKind.PSEUDO_EIO,
        FaultKind.MACHINE_CRASH,
        FaultKind.CLOCK_JITTER,
        FaultKind.BREAKER_TRIP,
    }
)

#: fault kinds that target one host and therefore need its per-object
#: kernel live (a cold columnar host materializes before these apply)
_HOST_SCOPED_KINDS = frozenset(
    {
        FaultKind.RAPL_STUCK,
        FaultKind.RAPL_DROP,
        FaultKind.RAPL_GARBAGE,
        FaultKind.RAPL_WRAP,
        FaultKind.PSEUDO_EIO,
        FaultKind.MACHINE_CRASH,
        FaultKind.OOM_KILL,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``server`` indexes the target host for host-scoped kinds and the
    target *rack* for :attr:`FaultKind.BREAKER_TRIP`; ``path_glob`` is the
    target pattern for :attr:`FaultKind.PSEUDO_EIO`; ``magnitude`` is the
    jitter standard deviation (as a fraction of the sampling interval)
    for :attr:`FaultKind.CLOCK_JITTER`.
    """

    at: float
    kind: FaultKind
    duration_s: float = 0.0
    server: int = 0
    path_glob: Optional[str] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"fault event before t=0: {self.at}")
        if self.duration_s < 0:
            raise SimulationError(f"negative fault duration: {self.duration_s}")
        if self.kind in WINDOWED_KINDS and self.duration_s <= 0:
            raise SimulationError(
                f"{self.kind.value} fault needs a positive duration"
            )
        if self.kind is FaultKind.PSEUDO_EIO and not self.path_glob:
            raise SimulationError("pseudo-eio fault needs a path glob")

    @property
    def until(self) -> float:
        """Absolute virtual time the fault's effect window ends."""
        return self.at + self.duration_s


@dataclass
class FaultStats:
    """Counters describing what was injected and how consumers degraded."""

    counts: Dict[str, int] = field(default_factory=dict)

    def count(self, key: str, n: int = 1) -> None:
        """Increment one counter."""
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, key: str) -> int:
        """Read one counter (0 if never incremented)."""
        return self.counts.get(key, 0)

    @property
    def total_injected(self) -> int:
        """Total fault events applied."""
        return sum(
            n for key, n in self.counts.items() if key.startswith("injected:")
        )

    def as_dict(self) -> Dict[str, int]:
        """A sorted plain-dict snapshot (for result records)."""
        return dict(sorted(self.counts.items()))

    def render(self) -> str:
        """Human-readable counter block."""
        if not self.counts:
            return "(no faults recorded)"
        return "\n".join(
            f"  {key:<28} {n}" for key, n in sorted(self.counts.items())
        )


class FaultSchedule:
    """A time-ordered list of fault events plus the seed that made it."""

    def __init__(self, events: Iterable[FaultEvent] = (), seed: int = 0):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.at, e.kind.value, e.server)
        )
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent) -> None:
        """Insert one event, keeping the schedule ordered."""
        self.events.append(event)
        self.events.sort(key=lambda e: (e.at, e.kind.value, e.server))

    def events_between(self, t0: float, t1: float) -> List[FaultEvent]:
        """Events with ``t0 <= at < t1``."""
        return [e for e in self.events if t0 <= e.at < t1]

    def next_event_time(self, now: float) -> float:
        """Absolute time of the first event at or after ``now`` (inf if none)."""
        for event in self.events:
            if event.at >= now - _EPS:
                return max(event.at, now)
        return math.inf

    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        servers: int = 1,
        racks: int = 1,
        *,
        grid_s: float = 1.0,
        rapl_per_day: float = 4.0,
        eio_per_day: float = 6.0,
        crashes_per_week: float = 1.0,
        oom_per_day: float = 2.0,
        jitter_per_day: float = 1.0,
        breaker_trips_per_week: float = 0.0,
        eio_paths: Sequence[str] = DEFAULT_EIO_PATHS,
    ) -> "FaultSchedule":
        """A seeded schedule with Poisson arrivals per fault family.

        Arrival times come from per-family exponential inter-arrival
        draws, then snap to the ``grid_s`` grid (rule 3 above) so base
        and coalesced drivers apply each fault at the same virtual time.
        """
        if duration_s <= 0:
            raise SimulationError(f"schedule needs positive duration: {duration_s}")
        if servers < 1 or racks < 1 or grid_s <= 0:
            raise SimulationError("schedule needs servers >= 1, racks >= 1, grid > 0")
        rng = DeterministicRNG(seed)
        events: List[FaultEvent] = []

        def snap(t: float) -> float:
            return max(grid_s, round(t / grid_s) * grid_s)

        def arrivals(name: str, per_day: float) -> List[float]:
            if per_day <= 0:
                return []
            stream = rng.stream(f"arrivals-{name}")
            rate = per_day / 86400.0
            out, t = [], stream.expovariate(rate)
            while t < duration_s:
                out.append(snap(t))
                t += stream.expovariate(rate)
            return out

        rapl_kinds = (
            FaultKind.RAPL_STUCK,
            FaultKind.RAPL_DROP,
            FaultKind.RAPL_GARBAGE,
            FaultKind.RAPL_WRAP,
        )
        detail = rng.stream("detail")
        for t in arrivals("rapl", rapl_per_day):
            kind = detail.choice(rapl_kinds)
            duration = 0.0
            if kind in WINDOWED_KINDS:
                duration = snap(detail.uniform(5.0, 120.0))
            events.append(
                FaultEvent(
                    at=t,
                    kind=kind,
                    duration_s=duration,
                    server=detail.randrange(servers),
                )
            )
        for t in arrivals("eio", eio_per_day):
            events.append(
                FaultEvent(
                    at=t,
                    kind=FaultKind.PSEUDO_EIO,
                    duration_s=snap(detail.uniform(5.0, 60.0)),
                    server=detail.randrange(servers),
                    path_glob=detail.choice(tuple(eio_paths)),
                )
            )
        for t in arrivals("crash", crashes_per_week / 7.0):
            events.append(
                FaultEvent(
                    at=t,
                    kind=FaultKind.MACHINE_CRASH,
                    duration_s=snap(detail.uniform(120.0, 900.0)),
                    server=detail.randrange(servers),
                )
            )
        for t in arrivals("oom", oom_per_day):
            events.append(
                FaultEvent(
                    at=t, kind=FaultKind.OOM_KILL, server=detail.randrange(servers)
                )
            )
        for t in arrivals("jitter", jitter_per_day):
            events.append(
                FaultEvent(
                    at=t,
                    kind=FaultKind.CLOCK_JITTER,
                    duration_s=snap(detail.uniform(300.0, 1800.0)),
                    magnitude=detail.uniform(0.05, 0.3),
                )
            )
        for t in arrivals("breaker", breaker_trips_per_week / 7.0):
            events.append(
                FaultEvent(
                    at=t,
                    kind=FaultKind.BREAKER_TRIP,
                    duration_s=snap(detail.uniform(300.0, 1200.0)),
                    server=detail.randrange(racks),
                )
            )
        return cls(events, seed=seed)

    @classmethod
    def standard(
        cls, seed: int, duration_s: float, servers: int = 1, racks: int = 1
    ) -> "FaultSchedule":
        """The standard chaos-harness schedule: every family at default rates."""
        return cls.generate(
            seed,
            duration_s,
            servers=servers,
            racks=racks,
            breaker_trips_per_week=2.0,
        )

    def partition(
        self,
        shard_hosts: Sequence[Sequence[int]],
        shard_racks: Sequence[Sequence[int]],
        total_servers: int,
        total_racks: int,
    ) -> Tuple[List["FaultSchedule"], "FaultSchedule"]:
        """Split the schedule for rack-sharded parallel execution.

        Host-scoped events (RAPL, EIO, crash, OOM) go to the shard owning
        ``event.server % total_servers``; breaker trips go to the shard
        owning ``event.server % total_racks``; clock-jitter events go to
        the returned *driver* schedule (jitter displaces recorded trace
        timestamps, which only the driver writes). Shard events have
        ``server`` remapped to the shard-local index so a shard-local
        :class:`FaultInjector` applies them to the right target; per-event
        randomness stays keyed on the *global* index (see
        :class:`FaultInjector`), so partitioning never changes a draw.

        Returns ``(per-shard schedules, driver schedule)``; every schedule
        keeps this schedule's seed.
        """
        host_owner: Dict[int, Tuple[int, int]] = {}
        for shard, hosts in enumerate(shard_hosts):
            for local, host in enumerate(hosts):
                host_owner[host] = (shard, local)
        rack_owner: Dict[int, Tuple[int, int]] = {}
        for shard, racks in enumerate(shard_racks):
            for local, rack in enumerate(racks):
                rack_owner[rack] = (shard, local)
        if len(host_owner) != total_servers or len(rack_owner) != total_racks:
            raise SimulationError("shard host/rack groups must cover the fleet")

        shard_events: List[List[FaultEvent]] = [[] for _ in shard_hosts]
        driver_events: List[FaultEvent] = []
        for event in self.events:
            if event.kind is FaultKind.CLOCK_JITTER:
                driver_events.append(event)
                continue
            if event.kind is FaultKind.BREAKER_TRIP:
                shard, local = rack_owner[event.server % total_racks]
            else:
                shard, local = host_owner[event.server % total_servers]
            shard_events[shard].append(dataclass_replace(event, server=local))
        return (
            [FaultSchedule(events, seed=self.seed) for events in shard_events],
            FaultSchedule(driver_events, seed=self.seed),
        )


# ----------------------------------------------------------------------
# per-kernel sensor/read fault state


class KernelFaultState:
    """The currently active sensor/read faults of one kernel.

    Installed as ``kernel.faults`` by the injector and consulted from the
    RAPL read seam (:meth:`repro.kernel.kernel.Kernel.read_energy_uj`) and
    the pseudo-VFS read path. Holding the state on the kernel keeps the
    fault visible to *every* reader of that host — attacker monitors,
    defense harnesses, detection walkers — exactly like a real flaky MSR.
    """

    def __init__(self, rng: DeterministicRNG, stats: Optional[FaultStats] = None):
        self._rng = rng
        self.stats = stats or FaultStats()
        self.drop_until = -math.inf
        self.stuck_until = -math.inf
        self.garbage_until = -math.inf
        self.wrap_pending = False
        self._stuck_values: Dict[str, int] = {}
        self._eio: List[Tuple[str, float]] = []

    # -- installation (called by the injector) --------------------------

    def fault_rapl(self, kind: FaultKind, until: float) -> None:
        """Open one RAPL fault window (or arm a one-shot wrap)."""
        if kind is FaultKind.RAPL_DROP:
            self.drop_until = max(self.drop_until, until)
        elif kind is FaultKind.RAPL_STUCK:
            self.stuck_until = max(self.stuck_until, until)
            self._stuck_values.clear()
        elif kind is FaultKind.RAPL_GARBAGE:
            self.garbage_until = max(self.garbage_until, until)
        elif kind is FaultKind.RAPL_WRAP:
            self.wrap_pending = True
        else:  # pragma: no cover - guarded by the injector
            raise SimulationError(f"not a RAPL fault kind: {kind}")

    def add_eio(self, glob: str, until: float) -> None:
        """Make reads matching ``glob`` fail with EIO until ``until``."""
        self._eio.append((glob, until))

    # -- read-path consultation -----------------------------------------

    def check_pseudo_read(self, now: float, path: str) -> None:
        """Raise :class:`TransientReadError` when ``path`` is faulted now."""
        if not self._eio:
            return
        live = [(g, u) for g, u in self._eio if u > now + _EPS]
        self._eio = live
        for glob, _ in live:
            if fnmatch.fnmatchcase(path, glob):
                self.stats.count("reads-failed:pseudo-eio")
                raise TransientReadError(path)

    def filter_energy_uj(self, now: float, domain, value: int) -> int:
        """Apply active RAPL faults to one ``energy_uj`` reading.

        Precedence when windows overlap: drop > garbage > stuck > wrap.
        """
        if now < self.drop_until:
            self.stats.count("reads-failed:rapl-drop")
            raise TransientReadError(
                f"/sys/class/powercap/{domain.sysfs_name}/energy_uj"
            )
        if now < self.garbage_until:
            self.stats.count("reads-corrupted:rapl-garbage")
            return self._rng.stream("garbage").randrange(domain.max_energy_range_uj)
        if now < self.stuck_until:
            self.stats.count("reads-corrupted:rapl-stuck")
            return self._stuck_values.setdefault(domain.sysfs_name, value)
        if self.wrap_pending:
            self.wrap_pending = False
            self.stats.count("reads-corrupted:rapl-wrap")
            half = domain.max_energy_range_uj // 2
            return (value + half) % domain.max_energy_range_uj
        return value

    def next_change(self, now: float) -> float:
        """The nearest future time an active fault window closes (inf if none)."""
        candidates = [self.drop_until, self.stuck_until, self.garbage_until]
        candidates.extend(until for _, until in self._eio)
        future = [t for t in candidates if t > now + _EPS]
        return min(future) if future else math.inf


# ----------------------------------------------------------------------
# clock jitter


class JitterModel:
    """Replayable clock-jitter state (recorded-timestamp wobble).

    Jitter displaces *recorded* trace timestamps, which only the
    trace-owning driver writes, so the rack-sharded driver keeps the
    jitter events in its own target-less :class:`FaultInjector` while
    host/rack events ship to shard workers. Draws come from the
    ``sample-jitter`` stream of the rng handed in — give two models rngs
    with equal seeds and identical per-sample call sequences and they
    produce identical timestamps.
    """

    def __init__(self, rng: DeterministicRNG, stats: FaultStats):
        self._rng = rng
        self.stats = stats
        self.until = -math.inf
        self.magnitude = 0.0

    def arm(self, event: FaultEvent) -> None:
        """Open (or extend) a jitter window from one CLOCK_JITTER event."""
        self.until = max(self.until, event.until)
        self.magnitude = event.magnitude or 0.1

    def active(self, now: float) -> bool:
        """Whether a jitter window is open."""
        return now < self.until

    def jittered_time(self, when: float, interval_s: float, floor: float) -> float:
        """The recorded timestamp for a sample nominally due at ``when``.

        Draws once per *sample* (never per tick — determinism rule 2),
        bounded to less than half the sampling interval and clamped to
        ``floor`` so trace timestamps stay nondecreasing.
        """
        if when >= self.until:
            return when
        sigma = self.magnitude * interval_s
        offset = self._rng.stream("sample-jitter").gauss(0.0, sigma)
        bound = 0.45 * interval_s
        offset = max(-bound, min(bound, offset))
        self.stats.count("samples-jittered")
        return max(floor, when + offset)


# ----------------------------------------------------------------------
# the injector


class FaultInjector:
    """Replays a :class:`FaultSchedule` against a running simulation.

    The injector is wired with duck-typed targets (kernels with a
    ``boot_time``/``faults`` attribute, container engines with a
    ``containers`` dict, racks with a ``breaker``), so the fleet driver
    of :class:`~repro.datacenter.simulation.DatacenterSimulation` (serial
    or in a shard worker) drives it, and so can a test stepping one
    kernel; the sharded driver holds one with no targets for the
    clock-jitter slice of a partitioned schedule. Drivers call
    :meth:`advance` once per tick-planning decision and treat
    :meth:`next_barrier` as a coalescing horizon.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        rng: Optional[DeterministicRNG] = None,
        *,
        kernels: Sequence[object],
        engines: Sequence[object] = (),
        racks: Sequence[object] = (),
        kernel_labels: Optional[Sequence[int]] = None,
        rack_labels: Optional[Sequence[int]] = None,
        populations: Sequence[object] = (),
    ):
        if not kernels:
            # a target-less injector (the sharded driver's jitter slice)
            # must still refuse events it has nothing to apply to
            for event in schedule.events:
                if event.kind in _HOST_SCOPED_KINDS or (
                    event.kind is FaultKind.BREAKER_TRIP and not racks
                ):
                    raise SimulationError(
                        f"fault injector has no target for the"
                        f" {event.kind.value} event at t={event.at}"
                    )
        self.schedule = schedule
        self.rng = rng or DeterministicRNG(schedule.seed)
        self.kernels = list(kernels)
        self.engines = list(engines)
        self.racks = list(racks)
        #: columnar tenant populations to notify when a fault reaps a
        #: task behind their back (OOM-pruned dirty mask); duck-typed on
        #: ``note_task_killed(task)``
        self.populations = list(populations)
        #: fleet-global index of each rack (trace markers report global
        #: rack identity even from a shard holding a subset of racks)
        self.rack_labels = (
            list(rack_labels)
            if rack_labels is not None
            else list(range(len(self.racks)))
        )
        if len(self.rack_labels) != len(self.racks):
            raise SimulationError("rack_labels must match racks 1:1")
        #: optional span tracer; due events become instant markers on the
        #: ``fault`` track (drivers assign this after construction)
        self.tracer = None
        #: columnar host engine (drivers assign after construction). A
        #: host-scoped fault needs the real per-object kernel — RAPL and
        #: EIO states act on read paths, crashes freeze live state, OOM
        #: picks victims from the engine's container table — so due
        #: events materialize their target before applying.
        self.host_engine = None
        #: fleet-global index of each kernel — keys every per-kernel and
        #: per-event rng derivation, so a shard injector holding a subset
        #: of the fleet consumes exactly the draws the whole-fleet serial
        #: injector would for the same targets
        self.kernel_labels = (
            list(kernel_labels)
            if kernel_labels is not None
            else list(range(len(self.kernels)))
        )
        if len(self.kernel_labels) != len(self.kernels):
            raise SimulationError("kernel_labels must match kernels 1:1")
        self.stats = FaultStats()
        self.jitter = JitterModel(self.rng, self.stats)
        self._cursor = 0
        #: server index -> absolute restart time
        self._crashed: Dict[int, float] = {}
        #: rack index -> absolute reclose time
        self._forced_breakers: Dict[int, float] = {}
        for label, kernel in zip(self.kernel_labels, self.kernels):
            if getattr(kernel, "faults", None) is None:
                kernel.faults = KernelFaultState(
                    self.rng.fork(f"kernel-{label}"), stats=self.stats
                )

    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Checkpoint snapshots pickle the injector with its full replay
        # state (rng streams, schedule cursor, pending expiries, jitter
        # window) but never the tracer — it closes over a live clock and
        # is rewired by the restoring side.
        state = dict(self.__dict__)
        state["tracer"] = None
        return state

    # ------------------------------------------------------------------

    def crashed_now(self) -> frozenset:
        """Server indices currently down due to a crash fault."""
        return frozenset(self._crashed)

    def jitter_active(self, now: float) -> bool:
        """Whether a clock-jitter window is open."""
        return self.jitter.active(now)

    def jittered_time(self, when: float, interval_s: float, floor: float) -> float:
        """The recorded timestamp for a sample nominally due at ``when``.

        Delegates to the injector's :class:`JitterModel` (one draw per
        sample inside a jitter window, clamped and floored).
        """
        return self.jitter.jittered_time(when, interval_s, floor)

    # ------------------------------------------------------------------

    def advance(self, now: float) -> bool:
        """Apply every due event and expiry; True when any state changed.

        Drivers must call this once per tick-planning decision *before*
        sizing the tick, and reset their stability tracker when it
        returns True (a fault boundary invalidates phase stability).
        """
        changed = False
        tracer = self.tracer
        trace_on = tracer is not None and tracer.enabled
        for index, t in [
            (i, t) for i, t in self._crashed.items() if t <= now + _EPS
        ]:
            del self._crashed[index]
            self.kernels[index].boot_time = now  # the reboot
            self.stats.count("machine-restarts")
            if trace_on:
                tracer.instant(
                    "fault.machine-restart",
                    at=t,
                    track="fault",
                    server=self.kernel_labels[index],
                )
            changed = True
        for rack_index, t in [
            (i, t) for i, t in self._forced_breakers.items() if t <= now + _EPS
        ]:
            del self._forced_breakers[rack_index]
            breaker = self.racks[rack_index].breaker
            if breaker.tripped:
                breaker.reset()
                self.stats.count("breaker-recloses")
                if trace_on:
                    tracer.instant(
                        "fault.breaker-reclose",
                        at=t,
                        track="fault",
                        rack=self.rack_labels[rack_index],
                    )
            changed = True
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].at <= now + _EPS:
            self._apply(events[self._cursor], now)
            self._cursor += 1
            changed = True
        return changed

    def next_barrier(self, now: float) -> float:
        """The nearest future fault boundary (event start *or* window end)."""
        barrier = math.inf
        events = self.schedule.events
        if self._cursor < len(events):
            barrier = events[self._cursor].at
        for t in self._crashed.values():
            barrier = min(barrier, t)
        for t in self._forced_breakers.values():
            barrier = min(barrier, t)
        if now < self.jitter.until:
            barrier = min(barrier, self.jitter.until)
        for kernel in self.kernels:
            state = getattr(kernel, "faults", None)
            if state is not None:
                barrier = min(barrier, state.next_change(now))
        return max(barrier, now)

    # ------------------------------------------------------------------

    def _kernel_state(self, event: FaultEvent) -> KernelFaultState:
        kernel = self.kernels[event.server % len(self.kernels)]
        return kernel.faults

    def _apply(self, event: FaultEvent, now: float) -> None:
        self.stats.count(f"injected:{event.kind.value}")
        kind = event.kind
        if self.tracer is not None and self.tracer.enabled:
            self._mark(event)
        if self.host_engine is not None and kind in _HOST_SCOPED_KINDS:
            self.host_engine.ensure_hot_kernel(
                self.kernels[event.server % len(self.kernels)]
            )
        if kind in (
            FaultKind.RAPL_STUCK,
            FaultKind.RAPL_DROP,
            FaultKind.RAPL_GARBAGE,
            FaultKind.RAPL_WRAP,
        ):
            self._kernel_state(event).fault_rapl(kind, event.until)
        elif kind is FaultKind.PSEUDO_EIO:
            self._kernel_state(event).add_eio(event.path_glob, event.until)
        elif kind is FaultKind.MACHINE_CRASH:
            index = event.server % len(self.kernels)
            restart = max(event.until, now + _EPS)
            self._crashed[index] = max(self._crashed.get(index, -math.inf), restart)
        elif kind is FaultKind.OOM_KILL:
            self._apply_oom(event)
        elif kind is FaultKind.CLOCK_JITTER:
            self.jitter.arm(event)
        elif kind is FaultKind.BREAKER_TRIP:
            self._apply_breaker_trip(event, now)
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown fault kind: {kind}")

    def _mark(self, event: FaultEvent) -> None:
        """Emit one instant marker for an injected event.

        Markers land at the event's *scheduled* time with fleet-global
        target labels, so a partitioned shard injector (local indices)
        emits exactly the marker the whole-fleet serial injector would.
        """
        attrs: Dict[str, object] = {"duration_s": event.duration_s}
        if event.kind is FaultKind.BREAKER_TRIP:
            if self.racks:
                attrs["rack"] = self.rack_labels[event.server % len(self.racks)]
        elif event.kind is not FaultKind.CLOCK_JITTER:
            attrs["server"] = self.kernel_labels[event.server % len(self.kernels)]
        if event.kind is FaultKind.CLOCK_JITTER:
            attrs["magnitude"] = event.magnitude
        self.tracer.instant(
            f"fault.{event.kind.value}", at=event.at, track="fault", **attrs
        )

    def _apply_oom(self, event: FaultEvent) -> None:
        """Kill the most recently started non-init task of one container."""
        if not self.engines:
            self.stats.count("oom-noop")
            return
        engine = self.engines[event.server % len(self.engines)]
        candidates = []
        for name in sorted(engine.containers):
            container = engine.containers[name]
            victims = [t for t in container.tasks if t is not container.init_task]
            if victims:
                candidates.append((container, victims[-1]))
        if not candidates:
            self.stats.count("oom-noop")
            return
        # keyed per event on the *global* server label (not a single
        # shared stream consumed in schedule order) so a partitioned
        # shard injector picks the victim the whole-fleet one would
        label = self.kernel_labels[event.server % len(self.kernels)]
        stream = self.rng.stream(f"oom-victim@{event.at!r}#{label}")
        container, victim = stream.choice(candidates)
        container.kill_task(victim)
        for population in self.populations:
            if population.note_task_killed(victim):
                break
        self.stats.count("oom-kills")

    def _apply_breaker_trip(self, event: FaultEvent, now: float) -> None:
        if not self.racks:
            self.stats.count("breaker-trip-noop")
            return
        rack_index = event.server % len(self.racks)
        breaker = self.racks[rack_index].breaker
        if not breaker.tripped:
            breaker.force_trip(now)
            self._forced_breakers[rack_index] = max(
                self._forced_breakers.get(rack_index, -math.inf),
                max(event.until, now + _EPS),
            )
        else:
            self.stats.count("breaker-trip-noop")
