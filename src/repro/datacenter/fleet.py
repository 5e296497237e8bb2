"""The per-host half of the fleet loop, shared by both drivers.

A :class:`FleetSlice` owns a run of consecutive racks of one fleet — all
of them for the serial :class:`~repro.datacenter.simulation.
DatacenterSimulation`, one shard's for a :mod:`repro.sim.parallel`
worker — together with those hosts' breakers, per-tick host-watts
vector, benign tenants (columnar :class:`TenantPopulation` or
per-object drivers), columnar host engine and fault injector. One loop
iteration is::

    dark = fleet.dark()
    plan = fleet.plan(now, hint, dark, coalesce)   # tenants step here
    ...                                            # driver sizes the tick
    changed = fleet.commit(step, dark)             # tick, breakers, faults

Both drivers run exactly this code, so the tick order, the coalescing
fingerprint and the slice horizon are one decision, not two copies that
must agree. Every index a slice reports is fleet-global (its *labels*);
RNG forks are keyed on global indices too, so a slice over hosts
``(2, 3)`` evolves bit-identically to hosts 2 and 3 of the whole fleet.

A steady tick recomputes nothing whose inputs did not change. The
slice keeps the per-host watts vector (keyed on the host engine's
``wall_gen``, or on the clock for object hosts), the rack totals folded
from it (kept with that vector and the crash set) and the dark set
(dropped by a breaker trip in the feed and by any fault-state change).
:func:`feed_breakers` calls :meth:`CircuitBreaker.observe` only where it
can change something: a rack over its rating, or with a warm thermal
element; on a cool rack under its rating ``observe`` is an exact no-op
(the proof is in its docstring). Snapshots drop every memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datacenter.breaker import CircuitBreaker
from repro.datacenter.population import TenantPopulation, container_name_for
from repro.datacenter.tenants import DiurnalProfile, DiurnalTenantDriver
from repro.datacenter.topology import Rack, ServerPowerConfig, wall_power_watts
from repro.errors import SimulationError
from repro.runtime import cloud as cloud_mod
from repro.runtime.cloud import ProviderProfile
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.rng import DeterministicRNG

#: a rack whose load exceeds this fraction of its breaker rating is near
#: the trip knee, and coalescing keeps it at base ``dt``
BREAKER_KNEE_RATIO = 0.98


@dataclass(frozen=True)
class FleetConfig:
    """Everything that decides how a fleet is built (and so its traces).

    Field names follow the ``DatacenterSimulation`` constructor. Two
    fleets built from equal configs evolve bit-identically, which is why
    a checkpoint manifest pins the whole config and resume compares it.
    """

    profile: ProviderProfile
    seed: int
    start_time: float
    servers: int
    rack_size: int
    breaker_rated_watts: float
    tenant_profile: Optional[DiurnalProfile]
    tenants_per_host: int
    #: "columnar" (TenantPopulation arrays) or "objects" (per-object drivers)
    population: str
    #: "columnar" (vectorized cold-host ticks) or "objects" (per-kernel)
    hosts: str
    power_config: ServerPowerConfig

    def __post_init__(self) -> None:
        if self.servers < 1 or self.rack_size < 1:
            raise SimulationError("need at least one server and rack slot")
        if self.tenants_per_host < 1:
            raise SimulationError(
                f"tenants_per_host must be >= 1: {self.tenants_per_host}"
            )
        if self.population not in ("columnar", "objects"):
            raise SimulationError(
                "population must be 'columnar' or 'objects':"
                f" {self.population!r}"
            )
        if self.hosts not in ("columnar", "objects"):
            raise SimulationError(
                f"hosts must be 'columnar' or 'objects': {self.hosts!r}"
            )
        if self.hosts == "columnar" and self.population != "columnar":
            raise SimulationError(
                "hosts='columnar' requires the columnar population: the"
                " cold-host deferral couples to its demand columns"
            )

    @property
    def rack_count(self) -> int:
        return -(-self.servers // self.rack_size)

    def rack_hosts(self, rack: int) -> range:
        """Global indices of the servers on rack ``rack``."""
        start = rack * self.rack_size
        return range(start, min(start + self.rack_size, self.servers))

    def differences(self, other: "FleetConfig") -> List[str]:
        """Names of the fields whose values differ from ``other``'s."""
        return [
            f.name
            for f in fields(self)
            if getattr(self, f.name) != getattr(other, f.name)
        ]


@dataclass(frozen=True)
class BreakerSnapshot:
    """One rack breaker's state, under its fleet-global rack index."""

    rack_index: int
    name: str
    tripped: bool
    tripped_at: float
    trip_count: int


class FleetSlice:
    """The hosts of some consecutive racks and everything they own.

    ``hosts`` are prebuilt cloud hosts for the slice's servers (the
    serial fleet passes its cloud's); ``None`` builds them through
    :func:`repro.runtime.cloud.build_cloud_host` against ``clock``.
    ``racks`` are the global rack indices held (default: all).
    """

    def __init__(
        self,
        config: FleetConfig,
        clock,
        rng: DeterministicRNG,
        hosts: Optional[Sequence[object]] = None,
        racks: Optional[Sequence[int]] = None,
    ):
        self.config = config
        self.clock = clock
        self.rack_indices: Tuple[int, ...] = tuple(
            range(config.rack_count) if racks is None else racks
        )
        members = [tuple(config.rack_hosts(r)) for r in self.rack_indices]
        #: fleet-global index of each host, in slice order
        self.labels: Tuple[int, ...] = tuple(g for m in members for g in m)
        if hosts is None:
            hosts = [
                cloud_mod.build_cloud_host(config.profile, clock, rng, g)
                for g in self.labels
            ]
        if len(hosts) != len(self.labels):
            raise SimulationError("hosts must match the slice's servers 1:1")
        self.hosts = list(hosts)
        self.kernels = [h.kernel for h in self.hosts]
        engines = [h.engine for h in self.hosts]
        self._local_index = {g: l for l, g in enumerate(self.labels)}
        #: the serial fleet's labels are its positions: skip translation
        self._identity = self.labels == tuple(range(len(self.labels)))
        self._rack_members = members

        #: each host's cell in the (racks x rack_size) matrix the rack
        #: totals fold over; a short rack's spare cells stay 0.0
        self._rack_cells = np.array(
            [r * config.rack_size + j for r, m in enumerate(members)
             for j in range(len(m))],
            dtype=np.int64,
        )
        # memos (dropped from snapshots, rebuilt on first use): the
        # per-host wall watts and their key, the rack totals folded from
        # them, and the dark labels with the crashed positions
        self._watts: Optional[np.ndarray] = None
        self._watts_key = None
        self._totals: Optional[tuple] = None
        self._dark: Optional[frozenset] = None
        self._crash: Optional[frozenset] = None
        self.racks: List[Rack] = [
            Rack(
                name=f"rack-{r}",
                kernels=[self.kernels[self._local_index[g]] for g in m],
                breaker=CircuitBreaker(
                    name=f"breaker-{r}",
                    rated_watts=config.breaker_rated_watts * len(m)
                    / config.rack_size,
                ),
                power_config=config.power_config,
            )
            for r, m in zip(self.rack_indices, members)
        ]
        self._breakers = [rack.breaker for rack in self.racks]

        # Tenant RNG forks are keyed by the *global* tenant id, so the
        # draws are the same whichever slice holds the host.
        k = config.tenants_per_host
        self.population: Optional[TenantPopulation] = None
        if config.population == "columnar":
            self.population = TenantPopulation.for_hosts(
                rng,
                self.kernels,
                engines,
                host_labels=self.labels,
                tenants_per_host=k,
                profile=config.tenant_profile,
            )
            #: per-object views for probing (bit-identical to drivers)
            self.tenants = self.population.views()
        else:
            self.tenants = [
                DiurnalTenantDriver(
                    kernel=host.kernel,
                    rng=rng.fork(f"tenant-{g * k + j}"),
                    profile=config.tenant_profile,
                    engine=host.engine,
                    container_name=container_name_for(j, k),
                )
                for g, host in zip(self.labels, self.hosts)
                for j in range(k)
            ]

        #: deterministic fault replay (``None`` = perfect substrate)
        self.injector: Optional[FaultInjector] = None

        #: columnar host engine: cold hosts tick as numpy column sweeps
        #: and materialize to full kernels lazily. It is indexed by slice
        #: position; everything the slice reports stays fleet-global.
        self.host_engine = None
        if config.hosts == "columnar":
            from repro.kernel.columnar import ColumnarHostEngine

            self.host_engine = ColumnarHostEngine(
                self.kernels,
                engines,
                clock,
                power_config=config.power_config,
                population=self.population,
            )
            for local, engine in enumerate(engines):
                engine.host_engine = self.host_engine
                engine.host_index = local
            self.host_engine.adopt_all()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in ("_watts", "_watts_key", "_totals", "_dark", "_crash"):
            state[name] = None
        return state

    def install_faults(self, schedule: FaultSchedule, seed: int) -> FaultInjector:
        """Attach a fault injector seeded with ``seed`` to these hosts."""
        injector = FaultInjector(
            schedule,
            DeterministicRNG(seed),
            kernels=self.kernels,
            engines=[h.engine for h in self.hosts],
            racks=self.racks,
            kernel_labels=self.labels,
            rack_labels=self.rack_indices,
            populations=() if self.population is None else (self.population,),
        )
        injector.host_engine = self.host_engine
        self.injector = injector
        return injector

    def local(self, label: int) -> int:
        """Slice position of global host ``label``."""
        return self._local_index[label]

    # -- state queries --------------------------------------------------

    def dark(self) -> frozenset:
        """Global indices of hosts without power (tripped or crashed).

        Kept until a breaker trips or recloses or a crash starts or
        ends: the breaker feed in :meth:`commit` and the fault injector
        (through :meth:`advance_faults`) are the only writers of breaker
        and crash state, and each drops the memo. A newly installed
        injector holds no crash.
        """
        if self._dark is None:
            crashed = (
                self.injector.crashed_now()
                if self.injector is not None
                else frozenset()
            )
            dark = {self.labels[local] for local in crashed}
            for members, rack in zip(self._rack_members, self.racks):
                if rack.breaker.tripped:
                    dark.update(members)
            self._dark, self._crash = frozenset(dark), crashed
        return self._dark

    def host_watts(self) -> np.ndarray:
        """Per-host wall watts in slice order (crashed hosts included).

        Built once per change and shared by every wall-power read — the
        breaker feed, the knee guard, the trace row, the simulation's
        ``server_wall_watts`` and a shard's ``watts`` reply: cold hosts
        read the host engine's wall column, hot hosts compute
        :func:`wall_power_watts` from their kernel. On object hosts
        wall power changes only when a host ticks, and every tick
        advances the clock, so the clock reading keys the vector. A
        columnar fleet keys it on the engine's ``wall_gen``, which
        bumps at every engine write that can move a wall; a hot kernel
        can also tick outside the engine (``CloudEnvironment.tick``),
        always after a clock advance, so while any host is hot the clock
        reading joins the key. Read-only.
        """
        he = self.host_engine
        if he is None:
            key = self.clock.now
        else:
            key = (he.wall_gen, self.clock.now if he.hot_hosts() else None)
        if self._watts_key != key:
            power = self.config.power_config
            kernels = self.kernels
            if he is None:
                watts = np.array(
                    [wall_power_watts(k, power) for k in kernels], dtype=np.float64
                )
            else:
                watts = he.walls()
                for i in he.hot_hosts():
                    watts[i] = wall_power_watts(kernels[i], power)
            self._watts, self._watts_key = watts, key
        return self._watts

    def rack_watts(self, crashed=frozenset()) -> List[float]:
        """Each rack's wall power: ``Rack.wall_power`` over the watts row.

        ``crashed`` holds slice positions drawing no power. The fold runs
        column by column over the (racks x rack_size) matrix, from int
        0 like ``sum()``; crashed hosts and a short rack's spare cells
        add 0.0, which leaves these non-negative totals unchanged. The
        totals are kept with the watts vector and the crash set they
        were folded from. Read-only.
        """
        watts = self.host_watts()
        memo = self._totals
        if memo is not None and memo[0] is watts and memo[1] == crashed:
            return memo[2]
        folded = watts
        if crashed:
            folded = watts.copy()
            folded[list(crashed)] = 0.0
        cells = np.zeros(len(self.racks) * self.config.rack_size, dtype=np.float64)
        cells[self._rack_cells] = folded
        cells = cells.reshape(len(self.racks), self.config.rack_size)
        totals = 0 + cells[:, 0]
        for j in range(1, self.config.rack_size):
            totals = totals + cells[:, j]
        totals = totals.tolist()
        self._totals = (watts, frozenset(crashed), totals)
        return totals

    def breaker_states(self) -> List[BreakerSnapshot]:
        """Each rack breaker's state, in rack order."""
        return [
            BreakerSnapshot(
                rack_index=r,
                name=rack.breaker.name,
                tripped=rack.breaker.tripped,
                tripped_at=rack.breaker.tripped_at,
                trip_count=rack.breaker.trip_count,
            )
            for r, rack in zip(self.rack_indices, self.racks)
        ]

    def _crashed(self) -> frozenset:
        """Slice positions of crashed servers (kept with :meth:`dark`)."""
        self.dark()
        return self._crash

    def breakers_safe(self) -> bool:
        """Whether every rack is far enough from its breaker's trip knee.

        Above the knee the thermal trip integral is live and trip timing
        must be resolved at base-``dt`` resolution; at or below it a
        phase-stable (constant-power) window cannot trip, so skipping is
        legal. Tripped racks are dark and cannot get darker.
        """
        for rack, watts in zip(self.racks, self.rack_watts(self._crashed())):
            if rack.breaker.tripped:
                continue
            if watts / rack.breaker.rated_watts > BREAKER_KNEE_RATIO:
                return False
        return True

    def row(self) -> list:
        """Per-host wall watts in slice order: ``None`` crashed, 0.0 dark."""
        row = self.host_watts().tolist()
        local = self._local_index
        for g in self.dark():
            row[local[g]] = 0.0
        for i in self._crashed():
            row[i] = None
        return row

    # -- the loop body --------------------------------------------------

    def advance_faults(self) -> bool:
        """Apply due fault events now; True when any state changed."""
        changed = self.injector is not None and self.injector.advance(self.clock.now)
        if changed:
            self._dark = None
        return changed

    def plan(
        self, now: float, hint: float, dark: set, coalesce: bool = True
    ) -> Optional[Tuple[tuple, float]]:
        """Step the tenants; with ``coalesce``, ``(fingerprints, horizon)``.

        The fingerprints are per-host demand folds in slice order (0.0
        on dark hosts): the kernel's own, plus the population's
        aggregate demand column in columnar mode, with cold hosts
        answering from the host engine's fingerprint column. Both move
        on exactly the same spawn/kill/exec events. The horizon is the
        nearest slice event a coalesced tick must not step across:
        tenant decisions, hot-host phase boundaries, fault boundaries.
        """
        pop = self.population
        labels = self.labels
        k = self.config.tenants_per_host
        if pop is not None:
            pop.step(now, hint, dark_hosts=dark)
        else:
            for t, tenant in enumerate(self.tenants):
                if labels[t // k] not in dark:
                    tenant.step(now, hint)
        if not coalesce:
            return None
        he = self.host_engine
        kernels = self.kernels
        if he is None:
            fp = np.zeros(len(kernels), dtype=np.float64)
            hot = range(len(kernels))
        else:
            fp = he.fingerprints()
            hot = he.hot_hosts()
        for i in hot:
            fp[i] = kernels[i].demand_fingerprint()
        if pop is not None:
            fp = fp + pop._host_demand
        local = self._local_index
        for g in dark:
            fp[local[g]] = 0.0
        demands = tuple(fp.tolist())
        horizon = math.inf
        if pop is not None:
            horizon = pop.next_event_time(now, dark)
        else:
            for t, tenant in enumerate(self.tenants):
                if labels[t // k] not in dark:
                    horizon = min(horizon, tenant.next_event_time(now))
        # cold hosts hold only single-phase unbounded workloads (the
        # eligibility contract), so their phase horizon is +inf
        for i in hot:
            if labels[i] not in dark:
                horizon = min(horizon, now + kernels[i].next_phase_boundary_s())
        if self.injector is not None:
            horizon = min(horizon, self.injector.next_barrier(now))
        return demands, horizon

    def commit(self, step: float, dark) -> bool:
        """Advance, tick the lit hosts, feed the breakers, apply faults.

        Returns True when a fault changed state at the new instant. The
        breakers are fed the kept rack totals through
        :func:`feed_breakers`, which calls ``observe`` only on a rack
        over its rating or with a warm thermal element: on a cool rack
        under its rating, ``observe`` leaves a tripped breaker as it is
        and cools a closed one from 0.0 to ``max(0.0, -cooling) == 0.0``
        with ``cooling >= 0``, an exact no-op. A trip drops the
        :meth:`dark` memo.
        """
        clock = self.clock
        t0 = clock.now
        clock.advance(step)
        he = self.host_engine
        if he is not None:
            if not self._identity:
                dark = {self._local_index[g] for g in dark}
            he.tick_all(step, dark, t0)
        else:
            for g, kernel in zip(self.labels, self.kernels):
                if g not in dark:
                    kernel.tick(step)
        if feed_breakers(
            self._breakers, self.rack_watts(self._crashed()), step, clock.now
        ):
            self._dark = None
        return self.advance_faults()


def feed_breakers(
    breakers: Sequence[CircuitBreaker], loads: Sequence[float], dt: float, now: float
) -> bool:
    """Feed each breaker its rack's load over ``dt``; True if one tripped.

    A breaker is skipped only where :meth:`CircuitBreaker.observe` is an
    exact no-op: ``dt > 0``, ``0 <= load <= rated_watts`` and a zero
    thermal accumulator. There ``observe`` passes both checks; a tripped
    breaker returns unchanged, and a closed one gets ``ratio = load /
    rated <= 1`` (a correctly rounded quotient of ``load <= rated`` is at
    most 1.0; ``rated_watts > 0`` and ``instant_trip_ratio > 1`` hold
    from construction), so it neither trips instantly nor heats, and cools by
    ``(1 - ratio**2) * dt * 0.5 >= 0``: ``max(0.0, 0.0 - cooling)`` is
    ``0.0`` again. Every other rack, a non-positive ``dt`` or a negative
    load included, goes through ``observe`` in rack order, which raises
    where the per-rack loop raised.
    """
    tripped = False
    positive = dt > 0
    for breaker, watts in zip(breakers, loads):
        if (
            positive
            and 0.0 <= watts <= breaker.rated_watts
            and not breaker.thermal_accumulator
        ):
            continue
        was = breaker.state
        if breaker.observe(watts, dt, now) is not was:
            tripped = True
    return tripped
