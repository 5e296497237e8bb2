"""Columnar tenant population: the demand plane as numpy arrays.

The north star is fleets with "millions of users", but one
:class:`~repro.datacenter.tenants.DiurnalTenantDriver` per tenant caps a
shard at thousands: a million-tenant tick is a million Python method
calls before the first kernel subsystem runs.
:class:`TenantPopulation` stores the *entire* demand plane of a shard in
per-stream columns — keyed-RNG stream keys, diurnal phase constants
(``cos``/``sin`` of the per-tenant phase shift), per-day demand factors,
burst deadlines, adjustment cursors, worker counts, and the OOM-pruned
dirty mask — so one tick over 10⁵–10⁶ tenants is a handful of vector
ops, and per-object work is spent only on the (rare) tenants whose
worker set actually changes.

Bit-identity contract
---------------------
The population is not an approximation of the scalar driver; it *is* the
driver, evaluated columnwise:

* every stochastic decision is a stateless keyed draw
  (``burst@<adjust#>``, ``day-factor@<day>``, noise keyed by grid index,
  worker kinds by spawn ordinal), with scalar and vector evaluation
  guaranteed bit-identical by :mod:`repro.sim.rng`;
* adjustments anchor to the same absolute
  :class:`~repro.sim.fastforward.DecisionGrid`, and missed boundaries are
  replayed identically;
* the float expressions (raised-cosine shape via the angle-addition
  formula, noise multiplier, core cap) are written with the same
  operation order as ``DiurnalTenantDriver.target_cores``, so IEEE-754
  elementwise semantics make the results equal bit for bit;
* workers are spawned/killed in global tenant-index order, exactly the
  order a serial loop over per-object drivers uses.

``tests/datacenter/test_population.py`` pins all of this: power traces
and worker counts from a fleet of per-object drivers and from the
columnar engine are byte-identical at equal seeds, serially and under
the rack-sharded parallel engine.

OOM pruning
-----------
Fault-injected OOM kills reap tenant workers behind the population's
back. The fault injector reports each victim through
:meth:`TenantPopulation.note_task_killed`; the population marks only
that tenant dirty and re-scans just the dirty rows at their next
adjustment — the scalar driver's "filter the whole worker list every
adjustment" at columnar scale would be O(fleet) per boundary.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.kernel.process import Task
from repro.obs.registry import MetricRegistry
from repro.runtime.workload import idle
from repro.sim.fastforward import DecisionGrid
from repro.sim.rng import (
    DeterministicRNG,
    keyed_gauss,
    keyed_gauss_array,
    keyed_u01,
    keyed_u01_array,
    keyed_u01_at,
    keyed_uniform,
    keyed_uniform_array,
    stream_key,
)

from repro.datacenter.tenants import (
    CORE_CAP_FRACTION,
    SECONDS_PER_DAY,
    DiurnalProfile,
    _batch_workload,
    _web_workload,
)


#: the only phase of each constant workload a cold row spawns (the idle
#: one is a container's init task); cold rows read nothing else of them
_WEB_PHASE = _web_workload().phases[0]
_BATCH_PHASE = _batch_workload().phases[0]
_INIT_PHASE = idle().phases[0]
#: a new cold worker's phase by kind index: 0 web, 1 batch
_WORKER_PHASES = (_WEB_PHASE, _BATCH_PHASE)


#: the share of web workers among a row's spawns
_WEB_SHARE = 0.6

#: ``min(next_k)`` of a population with no rows: never due
_NEVER = np.iinfo(np.int64).max


def _draws_web(kind_key: int, seq: int) -> bool:
    """A row's ``seq``-th worker kind: a keyed draw, 60% web, else batch."""
    return keyed_u01(kind_key, seq) < _WEB_SHARE


def container_name_for(tenant_ordinal: int, tenants_per_host: int) -> str:
    """Container naming shared by both tenant engines.

    One tenant per host keeps the historical ``benign-tenant`` name;
    multiplexed tenants get a per-host ordinal suffix (container names
    must be unique within an engine).
    """
    if tenants_per_host == 1:
        return "benign-tenant"
    return f"benign-tenant-{tenant_ordinal}"


class TenantView:
    """Read-mostly per-object window onto one tenant's columns.

    Exposes the :class:`~repro.datacenter.tenants.DiurnalTenantDriver`
    query surface (``worker_count``, ``target_cores``,
    ``next_event_time``, ``burst_until``) backed by the population
    arrays. ``target_cores`` evaluates the same keyed draws the vector
    path uses, so probing a view never perturbs the population.
    """

    __slots__ = ("_pop", "_slot")

    def __init__(self, pop: "TenantPopulation", slot: int):
        self._pop = pop
        self._slot = slot

    @property
    def tenant_id(self) -> int:
        return int(self._pop.tenant_ids[self._slot])

    @property
    def worker_count(self) -> int:
        return int(self._pop.workers[self._slot])

    @property
    def burst_until(self) -> float:
        return float(self._pop.burst_until[self._slot])

    def target_cores(self, now: float) -> float:
        """The demand target at ``now`` (bit-equal to the vector path)."""
        pop, s = self._pop, self._slot
        p = pop.profile
        day = int(now // SECONDS_PER_DAY)
        lo, hi = p.day_factor_range
        factor = keyed_uniform(int(pop._day_keys[s]), day, lo, hi)
        hour = (now % SECONDS_PER_DAY) / 3600.0
        angle = 2 * math.pi * (hour - p.peak_hour) / 24.0
        shape = 0.5 * (
            1.0
            + (
                math.cos(angle) * float(pop._cos_phase[s])
                - math.sin(angle) * float(pop._sin_phase[s])
            )
        )
        target = p.base_cores + p.peak_cores * shape * factor
        if now < pop.burst_until[s]:
            target += p.burst_cores
        noise = keyed_gauss(int(pop._noise_keys[s]), pop.grid.index_at(now), p.noise)
        target *= max(0.0, 1.0 + noise)
        return min(target, float(pop._core_cap[s]))

    def next_event_time(self, now: float) -> float:
        """Strictly-future next decision time for this tenant."""
        pop, s = self._pop, self._slot
        pending = int(pop.next_k[s])
        return pop.grid.next_boundary(now, pending if pending >= 0 else None)


class TenantPopulation:
    """All tenants of one shard (or one serial fleet) as columns.

    Build with :meth:`for_hosts`. Tenants are laid out host-major: host
    slot ``h`` owns rows ``[h*K, (h+1)*K)`` where ``K`` is
    ``tenants_per_host``; the global tenant id of row ``s`` is
    ``host_label*K + (s % K)``, and its RNG tree is
    ``root.fork(f"tenant-{id}")`` — the same derivation the per-object
    construction uses, so a shard holding hosts ``[32, 40)`` draws
    exactly what the whole-fleet serial population draws for those rows.

    A host entry of ``None`` makes its tenants *demand-only*: worker
    counts are tracked virtually with nothing materialized (pure array
    math end to end), which is what the throughput benches and the
    burst-statistics tests run on.
    """

    def __init__(
        self,
        *,
        profile: Optional[DiurnalProfile] = None,
        adjust_interval_s: float = 60.0,
        registry: Optional[MetricRegistry] = None,
    ):
        if adjust_interval_s <= 0:
            raise SimulationError(
                f"adjust interval must be positive: {adjust_interval_s}"
            )
        self.profile = profile or DiurnalProfile()
        self.adjust_interval_s = adjust_interval_s
        self.grid = DecisionGrid(adjust_interval_s)
        self.registry = registry if registry is not None else MetricRegistry()
        r = self.registry
        self._g_tenants = r.gauge("population.tenants", "tenant rows in the columns")
        self._c_steps = r.counter("population.steps", "population step() calls")
        self._c_ticks = r.counter(
            "population.tenant_ticks", "tenant-ticks evaluated (tenants x steps)"
        )
        self._c_adjust = r.counter(
            "population.adjustments", "tenant adjustment boundaries processed"
        )
        self._c_bursts = r.counter("population.bursts_started", "bursts started")
        self._c_spawns = r.counter("population.spawns", "benign workers spawned")
        self._c_kills = r.counter("population.kills", "benign workers scaled down")
        self._c_pruned = r.counter(
            "population.oom_pruned", "dead workers dropped via the dirty mask"
        )
        self.n = 0
        self.k_per_host = 1
        self._materialized = False
        self._kernels: List[object] = []
        self._engines: List[object] = []
        self._host_labels: List[int] = []
        self._label_to_host: Dict[int, int] = {}
        self._containers: List[object] = []
        self._tasks: List[List[Task]] = []
        #: id(task) -> (row, demand at spawn); the OOM seam keys on this
        self._task_info: Dict[int, Tuple[int, float]] = {}
        self._dirty_any = False
        self._day_cache: Optional[int] = None
        #: ``min(next_k)``, the earliest grid index a row is due at
        #: (``None`` when stale); rebuilt on first use after a due-row step
        self._due_k: Optional[int] = None
        #: columnar host engine (``repro.kernel.columnar``); when bound,
        #: rows on cold hosts reconcile column-to-column — spawns/kills
        #: become deferred ops and the host's aggregate-demand column
        #: moves without touching any per-host Python dict
        self.host_engine = None

    # ------------------------------------------------------------------
    # checkpoint snapshots

    # ``_task_info`` is keyed on ``id(task)``, which does not survive a
    # pickle round trip: snapshots encode it positionally against the
    # ``_tasks`` rows (every live task is in both structures — kills pop
    # the pair together and prunes only drop already-popped tasks) and
    # restore rebuilds the id-keyed dict from the unpickled task objects.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_due_k"] = None  # a memo, rebuilt on first use
        state["_task_info"] = [
            [self._task_info.get(id(task), (0, None))[1] for task in row]
            for row in self._tasks
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        encoded = state.pop("_task_info")
        self.__dict__.update(state)
        self._task_info = {}
        for s, (row, demands) in enumerate(zip(self._tasks, encoded)):
            for task, demand in zip(row, demands):
                if demand is not None:
                    self._task_info[id(task)] = (s, demand)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def for_hosts(
        cls,
        root_rng: DeterministicRNG,
        kernels: Sequence[object],
        engines: Sequence[object] = (),
        *,
        host_labels: Optional[Sequence[int]] = None,
        tenants_per_host: int = 1,
        profile: Optional[DiurnalProfile] = None,
        adjust_interval_s: float = 60.0,
        core_cap: Optional[float] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> "TenantPopulation":
        """Build the columns for ``len(kernels) * tenants_per_host`` rows."""
        if tenants_per_host < 1:
            raise SimulationError(
                f"tenants_per_host must be >= 1: {tenants_per_host}"
            )
        pop = cls(
            profile=profile, adjust_interval_s=adjust_interval_s, registry=registry
        )
        hosts = len(kernels)
        pop._kernels = list(kernels)
        pop._engines = list(engines) if engines else [None] * hosts
        if len(pop._engines) != hosts:
            raise SimulationError("engines must match kernels 1:1")
        pop._host_labels = (
            list(host_labels) if host_labels is not None else list(range(hosts))
        )
        if len(pop._host_labels) != hosts:
            raise SimulationError("host_labels must match kernels 1:1")
        pop._label_to_host = {label: h for h, label in enumerate(pop._host_labels)}
        k = tenants_per_host
        n = hosts * k
        pop.n = n
        pop.k_per_host = k
        pop._materialized = any(kern is not None for kern in pop._kernels)
        pop._g_tenants.value = n

        pop.tenant_ids = np.empty(n, dtype=np.int64)
        pop._burst_keys = np.empty(n, dtype=np.uint64)
        pop._day_keys = np.empty(n, dtype=np.uint64)
        pop._noise_keys = np.empty(n, dtype=np.uint64)
        pop._kind_keys = np.empty(n, dtype=np.uint64)
        pop._cos_phase = np.empty(n, dtype=np.float64)
        pop._sin_phase = np.empty(n, dtype=np.float64)
        pop._core_cap = np.empty(n, dtype=np.float64)
        pop.burst_until = np.full(n, -1.0, dtype=np.float64)
        pop.next_k = np.full(n, -1, dtype=np.int64)
        pop.workers = np.zeros(n, dtype=np.int64)
        pop._spawn_seq = np.zeros(n, dtype=np.int64)
        pop._dirty = np.zeros(n, dtype=bool)
        pop._day_factor = np.ones(n, dtype=np.float64)
        pop._host_demand = np.zeros(hosts, dtype=np.float64)
        pop._containers = [None] * n
        pop._tasks = [[] for _ in range(n)]

        for h, (label, kernel) in enumerate(zip(pop._host_labels, pop._kernels)):
            if kernel is None:
                cap = math.inf if core_cap is None else core_cap
            else:
                cap = kernel.config.total_cores * CORE_CAP_FRACTION
            for j in range(k):
                s = h * k + j
                tenant_id = label * k + j
                seed = root_rng.fork(f"tenant-{tenant_id}").seed
                pop.tenant_ids[s] = tenant_id
                pop._burst_keys[s] = stream_key(seed, "burst")
                pop._day_keys[s] = stream_key(seed, "day-factor")
                pop._noise_keys[s] = stream_key(seed, "demand-noise")
                pop._kind_keys[s] = stream_key(seed, "worker-kind")
                pop._core_cap[s] = cap
                # scalar math.cos/math.sin here on purpose: the scalar
                # driver precomputes its phase constants the same way, and
                # build-time is the one place a libm difference could
                # still sneak into the bit-identity contract
                phase = keyed_uniform(stream_key(seed, "phase"), 0, -1.5, 1.5)
                angle = 2 * math.pi * phase / 24.0
                pop._cos_phase[s] = math.cos(angle)
                pop._sin_phase[s] = math.sin(angle)
        return pop

    @classmethod
    def demand_only(
        cls,
        root_rng: DeterministicRNG,
        tenants: int,
        *,
        profile: Optional[DiurnalProfile] = None,
        adjust_interval_s: float = 60.0,
        core_cap: Optional[float] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> "TenantPopulation":
        """A population with no kernels: one virtual tenant per "host"."""
        return cls.for_hosts(
            root_rng,
            [None] * tenants,
            profile=profile,
            adjust_interval_s=adjust_interval_s,
            core_cap=core_cap,
            registry=registry,
        )

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return self.n

    def view(self, slot: int) -> TenantView:
        return TenantView(self, slot)

    def views(self) -> List[TenantView]:
        return [TenantView(self, s) for s in range(self.n)]

    def host_demand(self, host_label: int) -> float:
        """Aggregate spawned-worker CPU demand on one host (by label).

        Maintained incrementally on every spawn/kill/OOM so the plan
        fingerprint is O(1) per host per tick. Moves exactly when the
        kernel's own demand fingerprint moves.
        """
        return float(self._host_demand[self._label_to_host[host_label]])

    def worker_counts(self) -> "np.ndarray":
        """Current per-tenant worker counts (copy)."""
        return self.workers.copy()

    def _active_rows(self, dark_hosts) -> Optional["np.ndarray"]:
        """Bool mask of rows not on a dark host (None = all active)."""
        if not dark_hosts:
            return None
        mask = np.ones(self.n, dtype=bool)
        k = self.k_per_host
        for label in dark_hosts:
            h = self._label_to_host.get(label)
            if h is not None:
                mask[h * k : (h + 1) * k] = False
        return mask

    def next_event_time(self, now: float, dark_hosts=frozenset()) -> float:
        """Next adjustment boundary over the non-dark rows (strictly > now).

        Every row's next decision is on the shared grid at or before
        ``index_at(now) + 1``, so the fold over any non-empty active set
        collapses to the next grid boundary — O(1) regardless of N.
        """
        if self.n == 0:
            return math.inf
        if dark_hosts:
            active = self._active_rows(dark_hosts)
            if active is not None and not active.any():
                return math.inf
        return self.grid.time_of(self.grid.index_at(now) + 1)

    # ------------------------------------------------------------------
    # stepping

    def step(self, now: float, dt: float, dark_hosts=frozenset()) -> None:
        """Advance every non-dark tenant to ``now``; call once per tick.

        Columnar mirror of ``DiurnalTenantDriver.step``: adopt fresh
        rows onto the grid, replay missed boundaries for lagging rows
        (scalar loop — only dark-recovery and clock gaps land here), run
        one vector burst lottery for the current boundary, evaluate all
        targets in array math, then touch per-object state only for rows
        whose worker set changes.

        With no dark host and every row on the grid, nothing is due
        before ``min(next_k)``: until then a step only counts itself.
        """
        if dt <= 0:
            raise SimulationError(f"tenant step needs positive dt: {dt}")
        self._c_steps.value += 1
        active = self._active_rows(dark_hosts)
        self._c_ticks.value += self.n if active is None else int(active.sum())
        k_now = self.grid.index_at(now)
        if active is None:
            due = self._due_k
            if due is None:
                due = self._due_k = int(self.next_k.min(initial=_NEVER))
            # a negative entry is a row not yet on the grid
            if 0 <= due and k_now < due:
                return
        self._step_due(now, k_now, active)

    def _step_due(self, now: float, k_now: int, active) -> None:
        """The due-row half of :meth:`step`: adopt, replay, draw, reconcile."""
        self._due_k = None
        nk = self.next_k
        fresh = nk < 0
        if active is not None:
            fresh &= active
        if fresh.any():
            nk[fresh] = k_now
        due = nk <= k_now
        if active is not None:
            due &= active
        rows = np.nonzero(due)[0]
        if rows.size == 0:
            return
        self._c_adjust.value += int(rows.size)
        p = self.profile
        p_burst = p.bursts_per_day * self.adjust_interval_s / SECONDS_PER_DAY
        lagging = rows[nk[rows] < k_now]
        for s in lagging:
            key = int(self._burst_keys[s])
            until = float(self.burst_until[s])
            for k in range(int(nk[s]), k_now):
                boundary = self.grid.time_of(k)
                if boundary >= until and keyed_u01(key, k) < p_burst:
                    until = boundary + p.burst_duration_s
                    self._c_bursts.value += 1
            self.burst_until[s] = until
        boundary_now = self.grid.time_of(k_now)
        draws = keyed_u01_array(self._burst_keys[rows], k_now)
        hit = (boundary_now >= self.burst_until[rows]) & (draws < p_burst)
        if hit.any():
            self.burst_until[rows[hit]] = boundary_now + p.burst_duration_s
            self._c_bursts.value += int(hit.sum())
        nk[rows] = k_now + 1

        want = np.rint(self._targets(now, k_now, rows)).astype(np.int64)
        self._reconcile(rows, want)

    def _targets(self, now: float, k_now: int, rows: "np.ndarray") -> "np.ndarray":
        """Vector ``DiurnalTenantDriver.target_cores`` over ``rows``.

        Same expression shapes, same operation order; the only per-call
        trig is on the *scalar* time-dependent angle (the per-tenant
        phase is folded in via precomputed cos/sin columns).
        """
        p = self.profile
        day = int(now // SECONDS_PER_DAY)
        if self._day_cache != day:
            lo, hi = p.day_factor_range
            self._day_factor = keyed_uniform_array(self._day_keys, day, lo, hi)
            self._day_cache = day
        hour = (now % SECONDS_PER_DAY) / 3600.0
        angle = 2 * math.pi * (hour - p.peak_hour) / 24.0
        cos_a = math.cos(angle)
        sin_a = math.sin(angle)
        shape = 0.5 * (
            1.0 + (cos_a * self._cos_phase[rows] - sin_a * self._sin_phase[rows])
        )
        target = p.base_cores + p.peak_cores * shape * self._day_factor[rows]
        target = np.where(now < self.burst_until[rows], target + p.burst_cores, target)
        noise = keyed_gauss_array(self._noise_keys[rows], k_now, p.noise)
        target = target * np.maximum(0.0, 1.0 + noise)
        return np.minimum(target, self._core_cap[rows])

    # ------------------------------------------------------------------
    # worker reconciliation (the per-object tail)

    def _reconcile(self, rows: "np.ndarray", want: "np.ndarray") -> None:
        if not self._materialized:
            current = self.workers[rows]
            want = np.maximum(want, 0)
            spawned = np.maximum(want - current, 0)
            self._spawn_seq[rows] += spawned  # keep kind ordinals aligned
            self._c_spawns.value += int(spawned.sum())
            self._c_kills.value += int(np.maximum(current - want, 0).sum())
            self.workers[rows] = want
            return
        if self._dirty_any:
            for s in rows[self._dirty[rows]]:
                self._prune(int(s))
            self._dirty_any = bool(self._dirty.any())
        changed = np.nonzero(want != self.workers[rows])[0]
        rows, want = rows[changed], want[changed]
        he = self.host_engine
        if he is not None:
            cold = he.cold[rows // self.k_per_host]
            if cold.any():
                self._cold_churn(he, rows[cold], np.maximum(want[cold], 0))
                rows, want = rows[~cold], want[~cold]
        # ascending row order == global tenant-id order: the same spawn /
        # container-creation order a serial per-object loop produces
        for s, goal in zip(rows.tolist(), want.tolist()):
            tasks = self._tasks[s]
            while len(tasks) < goal:
                self._spawn_worker(s)
            while len(tasks) > goal and tasks:
                self._kill_worker(s)
            self.workers[s] = len(tasks)

    def _cold_churn(self, he, rows: "np.ndarray", goal: "np.ndarray") -> None:
        """Reconcile the rows on cold hosts without touching their kernels.

        The draws, spawn ordinals, demand bookkeeping and metric counters
        move exactly as in ``_spawn_worker`` / ``_kill_worker``; the
        kernel-facing half is one host-engine batch of deferred churn,
        which the engine replays through the real container/exec/kill
        path if a host ever materializes. No ``Workload`` is built here:
        the engine mirrors only a worker's phase, one shared object per
        kind.
        """
        delta = goal - self.workers[rows]
        moved = delta != 0
        rows, delta = rows[moved], delta[moved]
        grow = delta > 0
        spawning, new = rows[grow], delta[grow]
        first = self._spawn_seq[spawning]
        total = int(new.sum())
        # each new worker's ordinal: its row's first plus its rank there
        rank = np.arange(total) - np.repeat(np.cumsum(new) - new, new)
        batch = keyed_u01_at(
            np.repeat(self._kind_keys[spawning], new), np.repeat(first, new) + rank
        ) >= _WEB_SHARE
        he.cold_churn(
            rows, delta, batch.astype(np.intp), _WORKER_PHASES, _INIT_PHASE,
            self._host_demand,
        )
        self._spawn_seq[spawning] = first + new
        self.workers[rows] += delta
        self._c_spawns.value += total
        self._c_kills.value -= int(delta[~grow].sum())

    # ------------------------------------------------------------------
    # deferred-op replay (called by the host engine during ensure_hot,
    # with the clock rewound to the op's original barrier)

    def replay_container(self, s: int) -> None:
        """Replay a deferred container creation (init task and all)."""
        self._container_for(s)

    def replay_spawn(self, s: int, seq: int) -> None:
        """Replay one deferred worker spawn.

        The kind draw is keyed on the spawn ordinal, so recomputing it
        here yields the workload the scalar path would have picked; the
        ``_spawn_seq`` / ``_host_demand`` columns were already advanced
        virtually by ``_cold_churn`` and must not move again.
        """
        self._exec_worker(s, self._workload_for(s, seq))

    def replay_kill(self, s: int) -> None:
        """Replay one deferred worker kill (LIFO, like ``_kill_worker``)."""
        task = self._tasks[s].pop()
        self._task_info.pop(id(task), None)
        self._kill_task(s, task)

    def _container_for(self, s: int):
        engine = self._engines[s // self.k_per_host]
        if engine is None:
            return None
        container = self._containers[s]
        if container is None:
            name = container_name_for(s % self.k_per_host, self.k_per_host)
            container = engine.create(name=name)
            self._containers[s] = container
        return container

    def _workload_for(self, s: int, seq: int):
        """Row ``s``'s ``seq``-th worker (kind drawn by ``_draws_web``)."""
        if _draws_web(int(self._kind_keys[s]), seq):
            return _web_workload()
        return _batch_workload()

    def _exec_worker(self, s: int, workload) -> float:
        """Start ``workload`` in row ``s``'s container (bare on its kernel
        while the row has none), track the task, and return its demand."""
        container = self._containers[s]
        if container is not None:
            task = container.exec(workload.name, workload=workload)
        else:
            task = self._kernels[s // self.k_per_host].spawn(
                workload.name, workload=workload
            )
        demand = workload.demand()
        self._tasks[s].append(task)
        self._task_info[id(task)] = (s, demand)
        return demand

    def _kill_task(self, s: int, task: Task) -> bool:
        """Kill a worker of row ``s``; False if it was already reaped
        (e.g. OOM-killed by a fault injector)."""
        if not task.alive:
            return False
        container = self._containers[s]
        if container is not None and task in container.tasks:
            container.kill_task(task)
        else:
            self._kernels[s // self.k_per_host].kill(task)
        return True

    def _spawn_worker(self, s: int) -> None:
        seq = int(self._spawn_seq[s])
        self._spawn_seq[s] = seq + 1
        self._container_for(s)
        demand = self._exec_worker(s, self._workload_for(s, seq))
        self._host_demand[s // self.k_per_host] += demand
        self._c_spawns.value += 1

    def _kill_worker(self, s: int) -> None:
        task = self._tasks[s].pop()
        info = self._task_info.pop(id(task), None)
        if info is not None:
            self._host_demand[s // self.k_per_host] -= info[1]
        if self._kill_task(s, task):
            self._c_kills.value += 1

    def _prune(self, s: int) -> None:
        alive = [t for t in self._tasks[s] if t.alive]
        dropped = len(self._tasks[s]) - len(alive)
        self._tasks[s] = alive
        self.workers[s] = len(alive)
        self._dirty[s] = False
        self._c_pruned.value += dropped

    # ------------------------------------------------------------------
    # fault-injection seam

    def note_task_killed(self, task: Task) -> bool:
        """Record an externally killed worker (the OOM-kill seam).

        Marks only the owning row dirty so the next adjustment re-scans
        that row's task list instead of the whole fleet. Returns True
        when the task belonged to this population.
        """
        info = self._task_info.pop(id(task), None)
        if info is None:
            return False
        s, demand = info
        self._dirty[s] = True
        self._dirty_any = True
        self._host_demand[s // self.k_per_host] -= demand
        return True

    # ------------------------------------------------------------------
    # instrumentation

    @property
    def steps(self) -> int:
        return self._c_steps.value

    @property
    def tenant_ticks(self) -> int:
        return self._c_ticks.value

    @property
    def adjustments(self) -> int:
        return self._c_adjust.value

    @property
    def bursts_started(self) -> int:
        return self._c_bursts.value

    @property
    def spawns(self) -> int:
        return self._c_spawns.value

    @property
    def kills(self) -> int:
        return self._c_kills.value

    @property
    def oom_pruned(self) -> int:
        return self._c_pruned.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantPopulation(n={self.n}, hosts={len(self._kernels)}, "
            f"k={self.k_per_host}, materialized={self._materialized})"
        )
