"""The fleet simulation used by the Figure 2–4 experiments.

Wires a :class:`repro.runtime.cloud.ContainerCloud` into racks with
breakers, attaches a benign tenant driver per host, and records wall-power
traces at a configurable sampling interval — the facility-side ground
truth against which the attacker's RAPL-derived view is compared.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.datacenter.fleet import BreakerSnapshot, FleetConfig, FleetSlice
from repro.datacenter.population import TenantPopulation
from repro.datacenter.tenants import DiurnalProfile
from repro.datacenter.topology import Rack, ServerPowerConfig
from repro.errors import SimulationError
from repro.obs.tracer import SpanTracer
from repro.runtime.cloud import ContainerCloud, PROVIDER_PROFILES, ProviderProfile
from repro.sim.fastforward import FastForwardEngine
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.metrics import SimMetrics, WallTimer


@dataclass
class PowerTrace:
    """A sampled power time series with averaging helpers.

    ``gaps`` records the nominal times of samples that could not be
    taken (the machine was down); a gapped trace stays usable — the
    statistics below simply describe the samples that exist.

    ``peak``/``trough``/``mean`` are maintained incrementally on
    :meth:`append` (the running sum folds left-to-right, exactly like
    ``sum()`` over the samples would), so reading them is O(1) no matter how
    long the trace has grown.

    ``downtime`` is populated only on traces produced by
    :meth:`averaged`: one fraction per emitted sample, the share of the
    window's nominal samples that were gap markers in the source trace
    (0.0 = fully observed window, approaching 1.0 = mostly down).
    """

    #: samples packed as C doubles (``array('d')``): 8 B a sample where
    #: a list of boxed floats takes about 32 B
    times: array = field(default_factory=lambda: array("d"))
    watts: array = field(default_factory=lambda: array("d"))
    gaps: List[float] = field(default_factory=list)
    downtime: List[float] = field(default_factory=list)
    _peak: float = field(default=-math.inf, init=False, repr=False)
    _trough: float = field(default=math.inf, init=False, repr=False)
    _sum: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.times = array("d", self.times)
        self.watts = array("d", self.watts)
        for w in self.watts:
            self._fold(w)

    def _fold(self, w: float) -> None:
        if w > self._peak:
            self._peak = w
        if w < self._trough:
            self._trough = w
        self._sum += w

    def append(self, t: float, w: float) -> None:
        """Record one sample (timestamps must be nondecreasing)."""
        if self.times and t < self.times[-1]:
            raise SimulationError(f"trace timestamps must not decrease: {t}")
        self.times.append(t)
        self.watts.append(w)
        self._fold(w)

    def note_gap(self, t: float) -> None:
        """Record that the sample nominally due at ``t`` was missed."""
        self.gaps.append(t)

    def __len__(self) -> int:
        return len(self.times)

    def _require_samples(self, what: str) -> None:
        if not self.watts:
            raise SimulationError(
                f"cannot compute {what} of an empty power trace"
                f" ({len(self.gaps)} gap(s) recorded)"
            )

    @property
    def peak(self) -> float:
        """Maximum sampled power (O(1), maintained on append)."""
        self._require_samples("peak")
        return self._peak

    @property
    def trough(self) -> float:
        """Minimum sampled power (O(1), maintained on append)."""
        self._require_samples("trough")
        return self._trough

    @property
    def mean(self) -> float:
        """Mean sampled power (O(1), maintained on append)."""
        self._require_samples("mean")
        return self._sum / len(self.watts)

    @property
    def swing_fraction(self) -> float:
        """(peak − trough)/trough — Figure 2 reports 34.72%."""
        self._require_samples("swing fraction")
        trough = self.trough
        if trough == 0:
            raise SimulationError(
                "swing fraction undefined: trace trough is 0 W"
                " (every sampled server was dark)"
            )
        return (self.peak - trough) / trough

    def averaged(self, window_s: float) -> "PowerTrace":
        """Resample by averaging fixed windows (Figure 2's 30 s view).

        Single pass with a running per-window sum. Windows are anchored at
        ``times[0]``; every emitted sample sits at its own window's start
        regardless of how many empty windows the samples skipped (the old
        implementation only re-anchored the bucket index when the bucket
        was non-empty), and each wholly-empty window in the interior is
        recorded as a gap marker rather than silently dropped.

        Source gap markers (samples that were *due* but missed because
        the machine was down) are folded into the window they fall in as
        fractional ``downtime`` — a window with 27 samples and 3 gaps
        averages the 27 and reports 0.1 downtime, instead of the gaps
        silently vanishing into a slightly-smaller divisor. Windows past
        the last sample that hold only gap markers become gap markers on
        the output.
        """
        if window_s <= 0:
            raise SimulationError(f"window must be positive: {window_s}")
        out = PowerTrace()
        if not self.times:
            return out
        start = self.times[0]
        # bucket the source's gap markers by window index up front;
        # markers before the first sample's window (gi < 0) have no
        # window to belong to and keep their old interpretation: dropped
        gap_counts: Dict[int, int] = {}
        for g in self.gaps:
            gi = int((g - start) // window_s)
            if gi >= 0:
                gap_counts[gi] = gap_counts.get(gi, 0) + 1

        def emit(index: int, total: float, n: int) -> None:
            missed = gap_counts.pop(index, 0)
            out.append(start + index * window_s, total / n)
            out.downtime.append(missed / (missed + n))

        bucket_index = 0
        bucket_sum = 0.0
        bucket_n = 0
        for t, w in zip(self.times, self.watts):
            index = int((t - start) // window_s)
            if index != bucket_index:
                # the first sample lands in window 0, so the open bucket
                # is never empty when a later sample moves past it
                emit(bucket_index, bucket_sum, bucket_n)
                for skipped in range(bucket_index + 1, index):
                    gap_counts.pop(skipped, None)
                    out.note_gap(start + skipped * window_s)
                bucket_index = index
                bucket_sum = 0.0
                bucket_n = 0
            bucket_sum += w
            bucket_n += 1
        emit(bucket_index, bucket_sum, bucket_n)
        # trailing windows that saw only missed samples
        for gi in sorted(gap_counts):
            if gi > bucket_index:
                out.note_gap(start + gi * window_s)
        return out

    def window(self, t0: float, t1: float) -> "PowerTrace":
        """The sub-trace with t0 <= t < t1 (gap markers carried along)."""
        out = PowerTrace()
        for t, w in zip(self.times, self.watts):
            if t0 <= t < t1:
                out.append(t, w)
        out.gaps = [t for t in self.gaps if t0 <= t < t1]
        return out


class DatacenterSimulation:
    """A cloud fleet + racks + breakers + benign tenants + tracing."""

    def __init__(
        self,
        profile: Optional[ProviderProfile] = None,
        servers: int = 8,
        rack_size: int = 8,
        breaker_rated_watts: float = 1300.0,
        seed: int = 0,
        tenant_profile: Optional[DiurnalProfile] = None,
        power_config: Optional[ServerPowerConfig] = None,
        sample_interval_s: float = 1.0,
        tenants_per_host: int = 1,
        population: str = "columnar",
        hosts: str = "objects",
    ):
        if sample_interval_s <= 0:
            raise SimulationError(
                f"sample interval must be positive: {sample_interval_s}"
            )
        self.config = FleetConfig(
            profile=profile or PROVIDER_PROFILES["CC1"],
            seed=seed,
            start_time=0.0,
            servers=servers,
            rack_size=rack_size,
            breaker_rated_watts=breaker_rated_watts,
            tenant_profile=tenant_profile,
            tenants_per_host=tenants_per_host,
            population=population,
            hosts=hosts,
            power_config=power_config or ServerPowerConfig(),
        )
        self.profile = self.config.profile
        self.cloud = ContainerCloud(
            self.profile, seed=seed, servers=servers,
            start_time=self.config.start_time,
        )
        self.sample_interval_s = sample_interval_s

        #: rack-sharded parallel engine (created by ``run(parallel=N)``);
        #: assigned before anything reads ``self.now``
        self._parallel = None

        #: the per-host half of the loop, over every host of the cloud;
        #: the attributes below are its objects, kept as plain handles
        self.fleet = FleetSlice(
            self.config, self.cloud.clock, self.cloud.rng, hosts=self.cloud.hosts
        )
        self.racks: List[Rack] = self.fleet.racks
        #: columnar mode: the whole demand plane as numpy columns, with
        #: ``tenants`` as per-object views; ``None`` with object drivers
        self.population: Optional[TenantPopulation] = self.fleet.population
        self.tenants = self.fleet.tenants
        #: columnar host engine (``hosts="columnar"``), ``None`` in the
        #: per-object reference mode. See docs/hostengine.md.
        self.host_engine = self.fleet.host_engine

        self.aggregate_trace = PowerTrace()
        self.server_traces: Dict[int, PowerTrace] = {
            i: PowerTrace() for i in range(servers)
        }
        #: samples land at ``_sample_origin + k * sample_interval_s`` —
        #: computed from an integer counter so timestamps sit on exact
        #: interval multiples regardless of the tick size ``dt``
        self._sample_origin = self.now
        self._sample_count = 0

        #: tick-coalescing fast-forward (engaged by ``run(coalesce=True)``)
        self.fastforward = FastForwardEngine()
        self.metrics: SimMetrics = self.fastforward.metrics
        if self.host_engine is not None:
            self.host_engine.use_registry(self.metrics.registry)
        #: extra event-horizon callables ``now -> absolute next event time``
        #: (attack strategies register theirs here)
        self.horizon_sources: List[Callable[[float], float]] = []

        #: deterministic fault replay (``None`` = perfect substrate)
        self.fault_injector: Optional[FaultInjector] = None

        #: opt-in span tracer (``None`` until :meth:`enable_tracing`)
        self.tracer: Optional[SpanTracer] = None

        #: opt-in live operations plane (``None`` until :meth:`enable_ops`)
        self._ops = None

        #: opt-in checkpoint/supervision config (:meth:`enable_resilience`)
        self.resilience = None
        #: strategy-registered state providers folded into each manifest
        #: (key -> zero-arg callable); once any are present, checkpoints
        #: fire only at :meth:`checkpoint_safepoint` calls
        self.checkpoint_extras: Dict[str, Callable[[], object]] = {}
        #: manifest extras from a resumed run, for strategies to restore
        self.restored_extras: Dict[str, object] = {}
        #: replay cursor (resume): caller windows at or before
        #: ``_replay_until`` were already executed by the checkpointed run
        self._replay_until: Optional[float] = None
        self._replay_cursor: Optional[float] = None

        self._start_time = self.cloud.clock.now

    def install_faults(
        self, schedule: FaultSchedule, seed: Optional[int] = None
    ) -> FaultInjector:
        """Attach a seeded fault injector to the fleet.

        ``seed`` defaults to the schedule's own seed. From the next
        :meth:`run` on, due faults apply before each tick is planned,
        fault boundaries are coalescing barriers, crashed servers go dark
        with per-server trace gaps, and sensor faults act on every read
        path of the affected hosts. See ``docs/faults.md``.
        """
        if self.fault_injector is not None:
            raise SimulationError("fault injector already installed")
        if self._parallel is not None:
            raise SimulationError(
                "install faults before the first parallel run: shard"
                " workers partition the schedule at startup"
            )
        injector = self.fleet.install_faults(
            schedule, schedule.seed if seed is None else seed
        )
        injector.tracer = self.tracer
        self.fault_injector = injector
        return injector

    def enable_tracing(
        self, capacity: int = 65536, spill_dir: Optional[str] = None
    ) -> SpanTracer:
        """Attach an opt-in span tracer recording a clock-aligned timeline.

        Must be called before the first parallel run: shard workers build
        their own ring buffers at startup and flush them to the driver at
        every barrier. Spans land on the ``driver`` track, fault events
        as instants on ``fault``; the parallel engine adds ``barrier``
        and per-shard tracks. Idempotent — repeated calls return the
        existing tracer. With ``spill_dir`` set, events evicted past ring
        capacity rotate into JSONL segments there (every process spills
        to the same directory) and :meth:`SpanTracer.timeline` stitches
        them back, instead of dropping the oldest. See
        ``docs/observability.md`` and ``docs/ops.md``.
        """
        if self._parallel is not None:
            raise SimulationError(
                "enable tracing before the first parallel run: shard"
                " workers install their tracers at startup"
            )
        if self.tracer is None:
            self.tracer = SpanTracer(
                now_fn=lambda: self.now, track="driver", capacity=capacity
            )
            if self.fault_injector is not None:
                self.fault_injector.tracer = self.tracer
        if spill_dir is not None:
            self.tracer.enable_spill(spill_dir)
        return self.tracer

    def enable_ops(
        self,
        directory: str,
        every_sim_s: Optional[float] = 60.0,
        every_wall_s: Optional[float] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
    ):
        """Attach the live operations plane (see ``docs/ops.md``).

        Streams full registry snapshots into ``<directory>/metrics.jsonl``
        at the given cadence (resume-idempotent: reopening an existing
        stream continues after its last record), and with ``port`` set
        serves ``/metrics``, ``/status`` and ``/healthz`` from a daemon
        thread (``port=0`` picks a free one). The hot-loop cost when ops
        is never enabled is one ``is not None`` check per tick.
        """
        from repro.obs.ops import OpsPlane

        if self._ops is not None:
            raise SimulationError("ops plane already enabled")
        self._ops = OpsPlane(
            directory,
            self.metrics.registry,
            self.ops_status,
            every_sim_s=every_sim_s,
            every_wall_s=every_wall_s,
            port=port,
            host=host,
        )
        return self._ops

    @property
    def ops(self):
        """The live operations plane, or ``None`` (read-only handle)."""
        return self._ops

    def ops_status(self) -> Dict[str, object]:
        """Campaign progress for the ops ``/status`` endpoint.

        Reads only driver-local state (plain attributes under the GIL) —
        never posts control frames — so it is safe to call from the
        server thread mid-run without perturbing the barrier protocol.
        """
        m = self.metrics
        status: Dict[str, object] = {
            "now": self.now,
            "start_time": self._start_time,
            "virtual_seconds": m.virtual_seconds,
            "ticks": m.ticks,
            "tick_reduction": m.tick_reduction,
            "samples": m.samples,
            "wall_seconds": m.wall_seconds,
            "mode": "parallel" if self._parallel is not None else "serial",
            "replaying": self.replaying,
        }
        if self.tracer is not None:
            status["trace"] = {"driver": self.tracer.health()}
        he = self.host_engine
        if he is not None:
            lat = he._h_materialize
            status["columnar"] = {
                "cold": he.cold_count(),
                "barriers": len(he._bar_t0),
                "op_log_bytes": he.op_log_bytes(),
                "materializations": he.materializations,
                "sweeps": he._c_sweeps.value,
                "materialize_s": {
                    "count": lat.count,
                    "p50": lat.quantile(0.5),
                    "max": lat.max if lat.count else 0.0,
                },
            }
        engine = self._parallel
        if engine is not None:
            ipc = engine.ipc
            status["parallel"] = {
                "workers": ipc.workers,
                "barrier_wait_s": {
                    str(shard): wait
                    for shard, wait in sorted(ipc.barrier_wait_s.items())
                },
                "barrier_wait_skew": ipc.barrier_wait_skew,
                "barrier_frame_wait_s": {
                    "p50": ipc.frame_wait_quantile(0.5),
                    "p90": ipc.frame_wait_quantile(0.9),
                    "p99": ipc.frame_wait_quantile(0.99),
                },
                "restarts": list(engine.restart_log),
                "max_restarts": engine.max_restarts,
                "checkpoint_seq": engine.checkpoint_seq,
            }
        return status

    def trace_health(self) -> Dict[str, dict]:
        """Per-process tracer drop/spill accounting, synced to metrics.

        In parallel mode this posts one ``state`` barrier to collect the
        worker counters — call it at export/close time, not from the
        ops server thread (which must stay read-only).
        """
        if self.tracer is None:
            return {}
        from repro.obs.ops import sync_trace_counters

        health = {self.tracer.track: self.tracer.health()}
        if self._parallel is not None:
            health.update(self._parallel.trace_health())
        sync_trace_counters(self.metrics.registry, health)
        return health

    def enable_resilience(
        self,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: float = 300.0,
        barrier_timeout_s: float = 600.0,
        max_restarts: int = 2,
    ):
        """Turn on the self-healing machinery for the parallel engine.

        Must be called before the first parallel run (the engine reads
        the config at startup). With ``checkpoint_dir`` set, every shard
        serializes its recoverable state into versioned snapshots every
        ``checkpoint_every`` sim-seconds and the driver writes a matching
        manifest; ``run(resume=True)`` restarts from the latest one.
        A worker that dies or misses the ``barrier_timeout_s`` reply
        deadline is killed and respawned from the latest snapshot (up to
        ``max_restarts`` times per shard; 0 aborts the run instead) and
        replayed forward bit-identically. See ``docs/resilience.md``.
        """
        from repro.sim.resilience import ResilienceConfig

        if self._parallel is not None:
            raise SimulationError(
                "enable resilience before the first parallel run: the"
                " engine wires its supervisor and checkpoint clock at"
                " startup"
            )
        self.resilience = ResilienceConfig(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            barrier_timeout_s=barrier_timeout_s,
            max_restarts=max_restarts,
        )
        return self.resilience

    @property
    def replaying(self) -> bool:
        """True while a resumed run is still skipping pre-checkpoint windows."""
        return self._replay_until is not None

    def checkpoint_safepoint(self) -> None:
        """Offer a checkpoint at a strategy-loop safepoint.

        Strategies that register :attr:`checkpoint_extras` call this at
        the top of each campaign iteration — the only instants where
        their driver-side state is reconstructable — and the engine
        snapshots there if a ``checkpoint_every`` boundary has passed.
        No-op while serial, while resilience is off, or while a resumed
        run is still replaying toward the checkpoint time.
        """
        if self._parallel is not None and self._replay_until is None:
            self._parallel.checkpoint_if_due()

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time.

        In parallel mode the driver-side clock is authoritative (the
        local host kernels stay frozen at the fork point — all fleet
        state lives in the shard workers).
        """
        if self._parallel is not None:
            return self._parallel.clock.now
        return self.cloud.clock.now

    def _host_watts(self) -> List[float]:
        """Wall watts per server, in global order."""
        if self._parallel is not None:
            return self._parallel.server_watts()
        return self.fleet.host_watts().tolist()

    def server_wall_watts(self, index: int) -> float:
        """Ground-truth wall power of one server."""
        return self._host_watts()[index]

    def aggregate_wall_watts(self) -> float:
        """Ground-truth wall power of the whole fleet."""
        return sum(self._host_watts())

    def set_sample_interval(self, interval_s: float) -> None:
        """Change the sampling cadence, re-anchored at the current time.

        The next sample lands ``interval_s`` seconds from now; subsequent
        samples stay on exact multiples of the new interval from here.
        """
        if interval_s <= 0:
            raise SimulationError(f"sample interval must be positive: {interval_s}")
        self.sample_interval_s = interval_s
        self._sample_origin = self.now
        self._sample_count = 1

    @property
    def next_sample_time(self) -> float:
        """Absolute virtual time of the next scheduled trace sample."""
        return self._sample_origin + self._sample_count * self.sample_interval_s

    def run(
        self,
        seconds: float,
        dt: float = 1.0,
        on_tick: Optional[Callable[["DatacenterSimulation"], None]] = None,
        coalesce: bool = False,
        parallel: int = 0,
        resume: bool = False,
        control_plane: str = "shm",
    ) -> None:
        """Advance the fleet, tenants, breakers, and traces.

        A tripped rack breaker has consequences: its servers go dark —
        they stop executing (no kernel ticks) and draw no wall power —
        which is exactly the outage the power attack aims to cause
        ("forced shutdowns for servers on the same rack", Section II-C).

        With ``coalesce=True``, phase-stable stretches (no tenant
        decision, no phase boundary, no pending sample, every breaker
        below its knee) are advanced in one large tick — see
        :mod:`repro.sim.fastforward` for the safety invariants.
        ``on_tick`` then fires once per executed tick, not per base dt.

        With a fault injector installed (:meth:`install_faults`), due
        fault events apply before each tick is planned, fault boundaries
        bound coalesced steps (they are barrier events), and crashed
        servers go dark until their scheduled reboot.

        With ``parallel=N`` the fleet executes rack-sharded across ``N``
        spawn worker processes, lock-stepped at the same barriers and
        bit-identical to the serial path on equal seeds — see
        :mod:`repro.sim.parallel`. The first parallel run must start
        from a fresh simulation; once parallel, later runs inherit the
        parallel engine (callers like attack strategies just call
        ``run()`` and stay on the worker-held fleet).

        With ``resume=True`` on the *first* parallel run (requires
        :meth:`enable_resilience` with a ``checkpoint_dir``), the engine
        restores the fleet from the latest on-disk checkpoint instead of
        building fresh, and subsequent ``run`` calls replay through the
        already-covered caller windows as no-ops until virtual time
        passes the checkpoint — so campaign code reissues the exact same
        call sequence and the completed trace is bit-identical to an
        uninterrupted run. See ``docs/resilience.md``.

        ``control_plane`` is kept only for the benchmark harness, which
        passes ``"shm"``, the one accepted value; any other raises. The
        shard pipes are the one IPC channel: every barrier frame rides
        them, and the replies carry the sampled rows and instance reads
        (``docs/parallel.md``).
        """
        if seconds <= 0:
            raise SimulationError(f"run needs positive duration: {seconds}")
        if control_plane != "shm":
            raise SimulationError(
                f"unknown control plane {control_plane!r}: \"shm\" is the"
                " only accepted value"
            )
        if parallel or self._parallel is not None:
            if on_tick is not None:
                raise SimulationError(
                    "on_tick callbacks cannot observe worker-held state;"
                    " the parallel driver does not support them"
                )
            if self._parallel is None:
                from repro.sim.parallel import ParallelFleetEngine

                if resume:
                    cfg = self.resilience
                    if cfg is None or cfg.checkpoint_dir is None:
                        raise SimulationError(
                            "resume requires enable_resilience() with a"
                            " checkpoint_dir to restore from"
                        )
                    self._parallel = ParallelFleetEngine(
                        self,
                        workers=parallel,
                        resume_dir=cfg.checkpoint_dir,
                    )
                    self._replay_until = self._parallel.clock.now
                    self._replay_cursor = self._start_time
                else:
                    self._parallel = ParallelFleetEngine(self, workers=parallel)
            elif resume:
                raise SimulationError(
                    "resume must be requested on the first parallel run;"
                    " the engine is already live"
                )
            if self._replay_until is not None:
                covered = self._replay_cursor
                if covered + seconds <= self._replay_until + 1e-9:
                    # window fully executed before the checkpoint: no-op
                    self._replay_cursor = covered + seconds
                    if self._replay_cursor >= self._replay_until - 1e-9:
                        self._replay_until = None
                        self._replay_cursor = None
                    return
                # window straddles the checkpoint: run only the tail,
                # reporting the caller's full window in the trace span
                # and skipping the run-start barrier the golden run
                # never had mid-window
                remainder = covered + seconds - self._replay_until
                self._replay_until = None
                self._replay_cursor = None
                self._parallel.run(
                    remainder,
                    dt=dt,
                    coalesce=coalesce,
                    span_t0=covered,
                    span_seconds=seconds,
                    skip_begin=True,
                )
                return
            self._parallel.run(seconds, dt=dt, coalesce=coalesce)
            return
        if resume:
            raise SimulationError(
                "resume requires a parallel run (pass parallel=N)"
            )
        if self.resilience is not None and self.resilience.checkpoint_dir:
            raise SimulationError(
                "checkpointing requires the parallel engine; serial runs"
                " do not snapshot"
            )
        engine = self.fastforward
        fleet = self.fleet
        clock = self.cloud.clock
        tracer = self.tracer
        ops = self._ops
        trace_on = tracer is not None and tracer.enabled
        if trace_on:
            run_t0, run_w0 = self.now, perf_counter()
        with WallTimer(self.metrics):
            if fleet.advance_faults():
                engine.stability.reset()
            self._catch_up_samples()
            remaining = seconds
            while remaining > 1e-9:
                now = clock.now
                if trace_on:
                    tick_w0 = perf_counter()
                dark = fleet.dark()
                step = min(dt, remaining)
                plan = fleet.plan(now, step, dark, coalesce)
                if plan is not None:
                    demands, horizon = plan
                    # breaker safety only matters once the fingerprint
                    # is stable, so the knee check runs only then
                    stable = engine.stability.observe(
                        (demands, frozenset(dark))
                    ) and fleet.breakers_safe()
                    horizon = min(horizon, self.next_sample_time)
                    for source in self.horizon_sources:
                        horizon = min(horizon, source(now))
                    step = engine.plan_step(
                        now=now,
                        remaining=remaining,
                        base_dt=dt,
                        horizon=horizon,
                        stable=stable,
                    )
                if fleet.commit(step, dark):
                    engine.stability.reset()
                self._catch_up_samples()
                self.metrics.record_tick(step, dt)
                if ops is not None:
                    ops.on_tick(clock.now)
                if on_tick is not None:
                    on_tick(self)
                if trace_on:
                    tracer.add_span(
                        "fleet.tick",
                        now,
                        clock.now,
                        perf_counter() - tick_w0,
                        step=step,
                    )
                remaining -= step
        if trace_on:
            tracer.add_span(
                "fleet.run",
                run_t0,
                self.now,
                perf_counter() - run_w0,
                seconds=seconds,
                dt=dt,
                coalesce=coalesce,
            )

    def _catch_up_samples(self) -> None:
        """Record one fleet row per sample due at or before the current time."""
        stamps = self._stamps_due(self.now, self._trace_floor(), self.fault_injector)
        if stamps:
            row = self.fleet.row()
            for when in stamps:
                self._record_row(when, row)

    def _stamps_due(self, now: float, floor: float, injector) -> list:
        """Recorded timestamps of every sample due at or before ``now``.

        Sample times are anchored on exact interval multiples (not on the
        possibly-overshot ``now``), so a ``dt`` that does not divide the
        interval still yields the nominal cadence, the t=0 baseline is
        recorded, and gaps (e.g. the clock advanced outside ``run``) are
        caught up rather than silently shifting the grid. Clock jitter
        from ``injector`` displaces the *recorded* stamp only, clamped to
        ``floor`` (the previous stamp). Advances the sample counters: the
        caller records one row per stamp — the serial loop from the
        fleet, the sharded driver from the shards' reply rows.
        """
        stamps = []
        while self.next_sample_time <= now + 1e-9:
            when = self.next_sample_time
            if injector is not None:
                when = injector.jittered_time(
                    when, self.sample_interval_s, floor=floor
                )
            stamps.append(when)
            floor = when
            self._sample_count += 1
            self.metrics.samples += 1
        return stamps

    def _trace_floor(self) -> float:
        """The last recorded sample time (the jitter floor), or 0.0."""
        times = self.aggregate_trace.times
        return times[-1] if times else 0.0

    def _record_row(self, when: float, row) -> None:
        """Fold one per-host watts row into the traces at ``when``.

        ``None`` marks a crashed machine: a hole in its trace, not a
        zero. The aggregate sums the row left to right in global host
        order — float addition order is part of the bit-identity
        contract between the serial and the sharded drivers.
        """
        total = 0.0
        traces = self.server_traces
        for i, watts in enumerate(row):
            if watts is None:
                traces[i].note_gap(when)
                continue
            traces[i].append(when, watts)
            total += watts
        self.aggregate_trace.append(when, total)

    # ------------------------------------------------------------------
    # parallel-aware instance plumbing (attack strategies go through
    # these so the same code drives the serial and the sharded fleet)

    def exec_in_instance(self, instance, name: str, workload_factory, *args) -> None:
        """Start a workload inside an instance's container.

        Serial: executes immediately. Parallel: the op is queued to the
        owning shard and applied at that shard's next barrier *before*
        any tick executes — the same ordering as the serial
        call-then-``run()`` sequence. ``workload_factory`` must be
        picklable (a module-level callable); the workload object itself
        is built inside the worker.
        """
        if self._parallel is not None:
            self._parallel.queue_exec(
                instance.instance_id, name, workload_factory, args
            )
        else:
            instance.container.exec(name, workload=workload_factory(*args))

    def reap_instance(self, instance) -> None:
        """Reap an instance's finished tasks (parallel-aware)."""
        if self._parallel is not None:
            self._parallel.queue_reap(instance.instance_id)
        else:
            instance.container.reap_finished()

    def tenant_bill(self, tenant: str) -> float:
        """Utilization-based bill for a tenant (parallel-aware).

        The parallel branch replays the exact float arithmetic of
        :meth:`repro.runtime.cloud.ContainerCloud.bill` over worker-held
        cpuacct meters, in the same instance order, so bills are
        bit-identical across drivers.
        """
        if self._parallel is None:
            return self.cloud.bill(tenant)
        meters = self._parallel.billing_meters()
        cpu_hours = sum(
            (meters[i.instance_id][0] - meters[i.instance_id][1]) / 1e9 / 3600.0
            for i in self.cloud.instances_of(tenant)
        )
        return cpu_hours * self.profile.price_per_cpu_hour

    def instances_cpu_seconds(self, instances) -> float:
        """Summed billed CPU seconds over ``instances`` (parallel-aware)."""
        if self._parallel is None:
            return sum(i.billed_cpu_seconds for i in instances)
        meters = self._parallel.billing_meters()
        return sum(
            (meters[i.instance_id][0] - meters[i.instance_id][1]) / 1e9
            for i in instances
        )

    # ------------------------------------------------------------------

    def _breaker_states(self) -> List[BreakerSnapshot]:
        """Every rack breaker's state, in rack order."""
        if self._parallel is not None:
            return self._parallel.breaker_states()
        return self.fleet.breaker_states()

    def any_breaker_tripped(self) -> bool:
        """Whether any rack breaker has opened."""
        return any(b.tripped for b in self._breaker_states())

    def fault_report(self) -> Dict[str, int]:
        """Injected-fault and degradation counters (empty without faults)."""
        if self.fault_injector is None:
            return {}
        if self._parallel is not None:
            report = self._parallel.fault_stats()
        else:
            report = self.fault_injector.stats.as_dict()
        report["trace-gap-samples"] = sum(
            len(trace.gaps) for trace in self.server_traces.values()
        )
        return report

    def trip_log(self) -> List[str]:
        """Human-readable breaker events."""
        return [
            f"{b.name} tripped at t={b.tripped_at:.0f}s"
            for b in self._breaker_states()
            if b.tripped
        ]

    def close(self) -> None:
        """Shut down the ops plane, spill segments, and parallel workers.

        The ops stream gets a final record at the current sim time and
        the pull server (if any) stops; driver-side ring accounting is
        mirrored into the registry so the last snapshot carries it.
        """
        if self.tracer is not None:
            from repro.obs.ops import sync_trace_counters

            sync_trace_counters(
                self.metrics.registry, {self.tracer.track: self.tracer.health()}
            )
        if self._ops is not None:
            self._ops.close(self.now)
            self._ops.shutdown()
        if self.tracer is not None:
            self.tracer.close_spill()
        if self._parallel is not None:
            self._parallel.close()
