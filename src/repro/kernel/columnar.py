"""Columnar host engine: cold hosts tick as numpy column sweeps.

PR 6 vectorized the *tenant* plane; this module vectorizes the *host*
plane. Every rack used to tick per-object Python :class:`Kernel`\\ s, so
rack counts capped at tens. The :class:`ColumnarHostEngine` splits a
fleet into **hot** hosts (full per-object fidelity, ticked exactly as
before) and **cold** hosts, whose per-tick outputs that are read
without materializing — scheduler demand folds, the demand fingerprint,
and the wall watts that ``power.tick_energy`` implies — are computed as
vectorized column sweeps keyed by host index. Temperatures and RAPL
energy counters exist only on hot kernels: replay rebuilds them.

Bit-identity contract
---------------------
The engine is not an approximation of ``Kernel.tick``; it is the same
arithmetic, evaluated columnwise, plus **deferred replay** for the state
it does not mirror:

* A cold host *keeps* its fully booted :class:`Kernel` object; the
  engine merely defers its ticks, logging ``(t0, dt)`` barriers and the
  tenant-population churn that would have applied to it: fleet-wide
  op-log columns hold one record per (host, barrier with churn), the
  signed worker delta of each of the host's ``k`` tenant rows. Replay
  re-derives the rest: spawn ordinals (the population's ``_spawn_seq``
  less the logged spawns), kills as LIFO pops, and the container
  creation before a row's first spawn.
* What is read *while the host is cold* — wall watts (breakers,
  traces), fingerprints (plans) and demand folds (placement) — is
  mirrored in columns with the exact IEEE-754 operation order of the
  scalar reference (the stage order of :meth:`Kernel.tick`):
  sequential per-CPU demand folds in task order, the same ``int()``
  truncations of the workload consume path and the same per-package
  energy fold order. Every reader of a temperature or an energy counter
  first materializes the host.
* When something needs per-object fidelity — a procfs read (an attack
  monitor's included), a scheduled fault targeting the host, attack
  exec/placement — :meth:`ensure_hot` **materializes** the host
  by replaying the logged barriers through the real ``Kernel.tick`` with
  the clock rewound (:meth:`VirtualClock.replay_window`). Nothing
  consumed the kernel's stateful RNG streams while it was cold, so the
  replay consumes exactly the draws the never-deferred run would have:
  the interior state (loadavg, schedstat, temperatures, RAPL counters,
  memory/filesystem/random subsystems, cpuacct, perf rates) comes out
  bit-identical *by construction*, and the column/scalar handoff is
  bitwise round-trippable in both directions.
* When the last per-object reason leaves and the host is eligible
  again, :meth:`maybe_demote` re-adopts the live kernel state into the
  columns.

The task mirror is flat slot columns. A host's tasks get ascending
slot ids in task order (compaction keeps it), so every ordered float
fold is one ``np.add.at`` over the live slots in id order: ``ufunc.at``
is unbuffered and accumulates repeated indices in element order, so
each per-(host, CPU) fold runs in task order like the scalar loop.
Per-row slot stacks give each kill its row's newest worker. One step's
cold churn is one :meth:`cold_churn` batch of vector rounds over all
touched hosts. A kill marks its host dirty; a dirty host refolds before
its next placement, and every other one in one vector pass before
anything reads the folds (:meth:`tick_all`, the plan fingerprint,
:meth:`ensure_hot`, a checkpoint pickle).

:meth:`tick_all` remembers its sweep: the slot table gathered in
live-slot order (CPU target, granted share ``d * scale`` and the three
activity rates) and the wall vector last computed from it, keyed by
``dt``. Between churn batches nothing the sweep reads changes, so an
equal-``dt`` tick reuses the wall vector and a new ``dt`` redoes only
the per-slot arithmetic and the folds. The memo has three invalidation
points, the only writers of what the sweep reads: :meth:`_append_slots`
and :meth:`_kill_slots` (the slot columns and their order) and
:meth:`_rescale` (the grant scale). Adoption, :meth:`ensure_hot`,
:meth:`cold_churn`, dirty refolds and compaction all go through them.
A checkpoint pickle drops it.

It also keeps the lit set: the hot host list, the participation mask
of one dark set and its count. Only :meth:`_adopt` and
:meth:`ensure_hot` write the cold mask, and both drop it
(:meth:`_recolor`). With both memos hits, a tick logs its barrier, adds
the count and bumps the tick mirror; it writes ``_wall`` only for a new
sweep or a new lit set, and each such write bumps ``wall_gen``, which
keys the fleet's watts vector. Pickles drop these memos too.
``tests/datacenter/test_hostengine.py`` pins all of this bit for bit.

Eligibility
-----------
A host can go cold only when nothing about it needs the scalar path:
every task runs a single-phase unbounded constant workload with no
affinity/cpuset restriction, no cpu-quota cgroup is populated, no perf
cgroup is monitored, and the kernel has no tick listeners or RAPL read
hook. Heterogeneous hosts (config differing from
the fleet reference) simply stay hot forever — correct, just slower.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import TaskState
from repro.obs.registry import MetricRegistry
from repro.sim.clock import VirtualClock


#: range of one row's worker delta in an op record (``int8``)
MIN_ROW_DELTA, MAX_ROW_DELTA = -128, 127

#: ``columnar.materialize_s`` bucket bounds (wall seconds)
MATERIALIZE_BOUNDS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)


#: the per-slot task-mirror columns
_SLOT_COLUMNS = (
    "_s_demand", "_s_ipc", "_s_cmr", "_s_bmr", "_s_host", "_s_cpu", "_s_prev", "_s_alive",
)

#: the op-log columns
_OP_COLUMNS = ("_op_host", "_op_bar", "_op_delta")


def _reserve(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr``, or a zero-padded copy with room for ``size`` rows
    (capacity doubles)."""
    cap = len(arr)
    if size <= cap:
        return arr
    cap = max(cap, 64)
    while cap < size:
        cap *= 2
    grown = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
    grown[: len(arr)] = arr
    return grown


def _phase_columns(phases: Sequence[object]) -> np.ndarray:
    """Demand, IPC, cache- and branch-miss rates of each phase: a
    ``(4, len(phases))`` table in slot-column order."""
    return np.array(
        [(p.cpu_demand, p.ipc, p.cache_miss_per_kinst, p.branch_miss_per_kinst)
         for p in phases],
        dtype=np.float64,
    ).reshape(-1, 4).T


def _config_signature(kernel: Kernel) -> tuple:
    """The config fields the column math depends on."""
    c = kernel.config
    return (
        c.total_cores,
        c.packages,
        c.cpu.cores,
        c.cpu.frequency_hz,
        c.has_rapl,
        c.has_coretemp,
        c.power,
    )


def _task_cold_eligible(kernel: Kernel, task) -> bool:
    """One task's veto on going cold (must be a constant, unrestricted load)."""
    workload = task.workload
    if workload is None or workload.finished:
        return False
    if task.state is not TaskState.RUNNING:
        return False
    if task.affinity is not None:
        return False
    if len(workload.phases) != 1 or workload.phases[0].duration is not None:
        return False
    cpuset = kernel.cgroups.hierarchy("cpuset").cgroup_of(task).state
    if cpuset.cpus is not None:
        return False
    return True


class ColumnarHostEngine:
    """Vectorized cold-host ticking with lazy hot-host materialization."""

    def __init__(
        self,
        kernels: Sequence[Kernel],
        engines: Sequence[object],
        clock: VirtualClock,
        power_config=None,
        population=None,
    ):
        from repro.datacenter.topology import ServerPowerConfig

        self.kernels: List[Kernel] = list(kernels)
        self.engines: List[object] = list(engines)
        if len(self.engines) != len(self.kernels):
            raise SimulationError("engines must match kernels 1:1")
        self.clock = clock
        self.power_config = power_config or ServerPowerConfig()
        self.population = None

        n = len(self.kernels)
        self.n = n
        ref = self.kernels[0]
        self._ref_sig = _config_signature(ref)
        self._C = ref.config.total_cores
        self._P = ref.config.packages
        self._cores_per_pkg = ref.config.cpu.cores
        self._freq = ref.config.cpu.frequency_hz
        self._params = ref.config.power
        self._has_rapl = ref.config.has_rapl
        self._has_coretemp = ref.config.has_coretemp
        C = self._C

        self.cold = np.zeros(n, dtype=bool)
        #: per-host mirror of ``kernel.ticks_taken`` while cold
        self._ticks = np.zeros(n, dtype=np.int64)
        self._fp = np.zeros(n, dtype=np.float64)
        self._wall = np.zeros(n, dtype=np.float64)
        self._cpu_demand = np.zeros((n, C), dtype=np.float64)
        self._scale = np.ones((n, C), dtype=np.float64)
        #: the thermal and RAPL noise cursors less ``ticks_taken`` at
        #: adoption (both advance once per kernel tick)
        self._therm_base = np.zeros(n, dtype=np.int64)
        self._rapl_base = np.zeros(n, dtype=np.int64)
        self._adopt_t = np.zeros(n, dtype=np.float64)

        # task-mirror slots, flat and append-only (dead slots are
        # compacted out of the columns when they dominate)
        cap = 64
        self._s_demand = np.zeros(cap, dtype=np.float64)
        self._s_ipc = np.zeros(cap, dtype=np.float64)
        self._s_cmr = np.zeros(cap, dtype=np.float64)
        self._s_bmr = np.zeros(cap, dtype=np.float64)
        self._s_host = np.zeros(cap, dtype=np.int64)
        self._s_cpu = np.zeros(cap, dtype=np.int64)
        #: per-row LIFO stacks of live worker slots: a worker slot's next
        #: older worker in its row (-1: none); ``_row_top`` is each
        #: row's newest
        self._s_prev = np.zeros(cap, dtype=np.int64)
        self._s_alive = np.zeros(cap, dtype=bool)
        self._s_len = 0
        self._dead_slots = 0
        #: live slot ids, ascending (``None`` when stale) — the fold
        #: order of every order-sensitive float accumulation
        self._order: Optional[np.ndarray] = None
        #: cold hosts whose ``_fp``/``_cpu_demand``/``_scale`` are stale
        self._dirty = np.zeros(n, dtype=bool)
        #: the tick sweep's memo, ``(table, dt, wall)`` (``None`` when
        #: stale): the slot table gathered in live-slot order and the wall
        #: vector it gave at ``dt``
        self._sweep: Optional[tuple] = None
        #: the hot host indices, ascending (``None`` when stale)
        self._hot: Optional[List[int]] = None
        #: the lit-set memo, ``(dark, hot, any_cold, part, count)`` for
        #: one dark set (``None`` when stale): the lit hot hosts, whether
        #: any host is cold, the cold hosts that tick and their count
        self._lit: Optional[tuple] = None
        #: the generation of :meth:`walls` and :meth:`hot_hosts`: bumps
        #: when a sweep or a new lit set writes ``_wall`` and when the
        #: cold mask changes (adoption, materialization)
        self.wall_gen = 0

        # deferred-replay log: each barrier's (t0, dt), unboxed
        self._bar_t0 = array("d")
        self._bar_dt = array("d")
        #: per-host closed participation ranges [start_seq, end_seq)
        self._ranges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._run_start = np.full(n, -1, dtype=np.int64)
        #: op records in barrier order: the host, the barrier seq, and
        #: the signed worker delta of each of the host's tenant rows
        self._op_host = np.zeros(0, dtype=np.int32)
        self._op_bar = np.zeros(0, dtype=np.int32)
        self._op_delta = np.zeros((0, 1), dtype=np.int8)
        self._op_len = 0
        self._row_top = np.zeros(0, dtype=np.int64)
        #: tenant rows whose next cold spawn first creates the container
        self._row_init = np.zeros(0, dtype=bool)

        self._kernel_index: Dict[int, int] = {
            id(k): i for i, k in enumerate(self.kernels)
        }

        # instrumentation
        self.materializations = 0
        self.demotions = 0
        self.cold_host_ticks = 0
        self.hot_host_ticks = 0
        self.use_registry(MetricRegistry())

        if population is not None:
            self.bind_population(population)

    # ------------------------------------------------------------------
    # checkpoint plumbing

    def __getstate__(self) -> dict:
        self._refold_dirty()
        state = dict(self.__dict__)
        state["_kernel_index"] = None  # id()-keyed; rebuilt on restore
        # memos, rebuilt on first use
        state["_sweep"] = state["_hot"] = state["_lit"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel_index = {id(k): i for i, k in enumerate(self.kernels)}

    # ------------------------------------------------------------------
    # wiring

    def use_registry(self, registry: MetricRegistry) -> None:
        """Publish the replay-debt gauges and the materialization-latency
        histogram into ``registry``."""
        self._g_barriers = registry.gauge(
            "columnar.deferred_barriers", "barriers logged for deferred replay"
        )
        self._g_op_bytes = registry.gauge(
            "columnar.op_log_bytes", "bytes of packed deferred-op records"
        )
        self._h_materialize = registry.histogram(
            "columnar.materialize_s",
            "wall seconds per host materialization (deferred replay)",
            bounds=MATERIALIZE_BOUNDS,
        )
        self._c_sweeps = registry.counter(
            "columnar.sweeps", "tick sweeps run (ticks that missed the memo)"
        )

    def bind_population(self, population) -> None:
        """Attach the tenant population (column-to-column coupling).

        The population's host ordering must be the engine's: row
        ``h*k + j`` lives on ``self.kernels[h]``.
        """
        for h, kernel in enumerate(population._kernels):
            if kernel is not self.kernels[h]:
                raise SimulationError(
                    "population host order does not match the host engine"
                )
        self.population = population
        population.host_engine = self
        self._op_delta = np.zeros((0, population.k_per_host), dtype=np.int8)
        self._row_top = np.full(population.n, -1, dtype=np.int64)
        self._row_init = np.zeros(population.n, dtype=bool)

    def adopt_all(self) -> int:
        """Adopt every currently eligible host; returns the cold count."""
        count = 0
        for i in range(self.n):
            if not self.cold[i] and self._eligible(i):
                self._adopt(i)
            if self.cold[i]:
                count += 1
        return count

    # ------------------------------------------------------------------
    # queries

    def is_cold(self, i: int) -> bool:
        return bool(self.cold[i])

    def hot_hosts(self) -> List[int]:
        """Indices of the hot hosts, ascending (cached with the cold
        mask; read-only)."""
        if self._hot is None:
            self._hot = np.flatnonzero(~self.cold).tolist()
        return self._hot

    def cold_count(self) -> int:
        return int(self.cold.sum())

    def fingerprints(self) -> np.ndarray:
        """Cold-host mirror of ``kernel.demand_fingerprint()``, per host
        (a copy; entries of hot hosts are stale)."""
        self._refold_dirty()
        return self._fp.copy()

    def wall_watts(self, i: int) -> float:
        """Cold-host mirror of ``topology.wall_power_watts(kernel)``."""
        return float(self._wall[i])

    def walls(self) -> np.ndarray:
        """:meth:`wall_watts` per host (a copy; entries of hot hosts are
        stale)."""
        return self._wall.copy()

    def ticks_taken(self, i: int) -> int:
        return int(self._ticks[i])

    def op_log_bytes(self) -> int:
        """Bytes the packed op records take (growth slack excluded): an
        int32 host, an int32 barrier and one int8 delta per row each."""
        return self._op_len * (4 + 4 + self._op_delta.shape[1])

    def op_records(self, i: int) -> Tuple[List[int], List[List[int]]]:
        """Host ``i``'s op records in barrier order: their barrier seqs
        and, per record, the worker delta of each of the host's rows."""
        mine = np.flatnonzero(self._op_host[: self._op_len] == i)
        return self._op_bar[mine].tolist(), self._op_delta[mine].tolist()

    # ------------------------------------------------------------------
    # eligibility / adoption

    def _eligible(self, i: int) -> bool:
        kernel = self.kernels[i]
        if _config_signature(kernel) != self._ref_sig:
            return False
        if kernel.tick_listeners:
            return False
        if kernel.rapl_read_hook is not None:
            return False
        if kernel.perf._monitored:
            return False
        from repro.kernel.cgroups import CpuQuotaState

        for cgroup in kernel.cgroups.hierarchy("cpu").root.walk():
            state = cgroup.state
            if isinstance(state, CpuQuotaState):
                if state.quota_cores is not None and cgroup.tasks:
                    return False
        for task in kernel.scheduler.iter_tasks():
            if not _task_cold_eligible(kernel, task):
                return False
        if self.population is not None:
            k = self.population.k_per_host
            dirty = self.population._dirty
            if dirty[i * k : (i + 1) * k].any():
                return False
        return True

    def _append_slots(self, hosts, cols: np.ndarray, cpus=0, alive=False) -> int:
        """Append slots for ``cols`` (a :func:`_phase_columns` table, one
        column per slot); returns the first new slot id."""
        first = self._s_len
        end = first + cols.shape[1]
        for name in _SLOT_COLUMNS:
            setattr(self, name, _reserve(getattr(self, name), end))
        new = slice(first, end)
        self._s_host[new] = hosts
        self._s_demand[new], self._s_ipc[new], self._s_cmr[new], self._s_bmr[new] = cols
        self._s_cpu[new] = cpus
        self._s_alive[new] = alive
        self._s_len = end
        self._order = None
        self._sweep = None
        return first

    def _live(self) -> np.ndarray:
        """The live slot ids, ascending; first drops the dead slots from
        the columns (keeping slot order) if they dominate."""
        if self._order is None:
            alive = np.flatnonzero(self._s_alive[: self._s_len])
            if self._dead_slots > 64 and self._dead_slots * 2 > self._s_len:
                # the stacks name live slots only (the stale tops of hot
                # hosts' rows, and -1, read the trailing -1)
                remap = np.full(self._s_len + 1, -1, dtype=np.int64)
                remap[alive] = np.arange(len(alive))
                for name in _SLOT_COLUMNS:
                    arr = getattr(self, name)
                    packed = np.zeros(max(64, len(alive) * 2), dtype=arr.dtype)
                    packed[: len(alive)] = arr[alive]
                    setattr(self, name, packed)
                self._s_len = len(alive)
                self._s_prev[: self._s_len] = remap[self._s_prev[: self._s_len]]
                self._row_top = remap[self._row_top]
                self._dead_slots = 0
                alive = np.arange(self._s_len)
            self._order = alive
        return self._order

    def _kill_slots(self, slots: np.ndarray) -> None:
        self._s_alive[slots] = False
        self._dead_slots += len(slots)
        self._order = None
        self._sweep = None

    def _adopt(self, i: int) -> None:
        """Snapshot one eligible (hot, so slot-less) host's live state
        into the columns."""
        from repro.datacenter.topology import wall_power_watts

        kernel = self.kernels[i]
        placement = kernel.scheduler._placement
        tasks = list(kernel.scheduler.iter_tasks())
        cols = _phase_columns([t.workload.phases[0] for t in tasks])
        first = self._append_slots(i, cols, [placement[t] for t in tasks], alive=True)
        pop = self.population
        if pop is not None:
            # stack each row's workers in the row's order, so later cold
            # kills pop the same LIFO order the scalar path would
            slot_of = {id(t): first + n for n, t in enumerate(tasks)}
            k = pop.k_per_host
            for row in range(i * k, (i + 1) * k):
                top = -1
                for task in pop._tasks[row]:
                    self._s_prev[slot_of[id(task)]] = top
                    top = slot_of[id(task)]
                self._row_top[row] = top
                self._row_init[row] = (
                    pop._containers[row] is None and pop._engines[i] is not None
                )
        self._dirty[i] = True

        self._ticks[i] = kernel.ticks_taken
        self._wall[i] = wall_power_watts(kernel, self.power_config)
        self._therm_base[i] = kernel.thermal._noise_calls - kernel.ticks_taken
        self._rapl_base[i] = kernel.rapl._noise_calls - kernel.ticks_taken

        self._adopt_t[i] = self.clock.now
        self._ranges[i] = []
        self._run_start[i] = -1
        self.cold[i] = True
        self._recolor()

    def _recolor(self) -> None:
        """The cold mask changed: drop the memos it keys."""
        self._hot = None
        self._lit = None
        self.wall_gen += 1

    def _rescale(self, hosts: np.ndarray) -> None:
        """The scheduler's per-CPU grant scale from the demand folds."""
        totals = self._cpu_demand[hosts]
        self._scale[hosts] = np.divide(
            1.0, totals, out=np.ones_like(totals), where=totals > 1.0
        )
        self._sweep = None

    def _refold(self, hosts: np.ndarray, slots: np.ndarray, loads_only=False) -> None:
        """Refold ``hosts`` (distinct) from ``slots``: live slots in
        ascending id order, a superset of theirs. ``loads_only`` redoes
        just the per-CPU fold and leaves the hosts dirty.

        ``np.add.at`` is unbuffered, so each target accumulates term by
        term in task order, from zero: exactly the 0.0-seeded
        ``kernel_demand_fingerprint`` fold and the scheduler's
        int-0-seeded per-CPU fold, which ``Scheduler.add_task`` places by.
        """
        mask = np.zeros(self.n, dtype=bool)
        mask[hosts] = True
        sel = slots[mask[self._s_host[slots]]]
        on = self._s_host[sel]
        demand = self._s_demand[sel]
        self._cpu_demand[hosts] = 0.0
        np.add.at(self._cpu_demand.reshape(-1), on * self._C + self._s_cpu[sel], demand)
        if loads_only:
            return
        self._fp[hosts] = 0.0
        np.add.at(self._fp, on, demand)
        self._rescale(hosts)
        self._dirty[hosts] = False

    def _refold_dirty(self) -> None:
        """Refold every dirty host in one vector pass."""
        if self._dirty.any():
            self._refold(np.flatnonzero(self._dirty), self._live())

    # ------------------------------------------------------------------
    # cold tenant churn (the population's cold branch, once per step)

    def cold_churn(
        self,
        rows: np.ndarray,
        deltas: np.ndarray,
        kinds: np.ndarray,
        phases: Sequence[object],
        init_phase,
        host_demand: np.ndarray,
    ) -> None:
        """Apply one step's worker churn on cold hosts, deferring it.

        ``rows`` are tenant rows on cold hosts in ascending order, each
        with a non-zero signed worker delta; ``kinds`` indexes
        ``phases`` for every new worker (rows in order, each row's
        workers in spawn-ordinal order). Per host the ops run as the
        per-row scalar loop runs them: kills pop the row's newest
        workers, a row's first spawn places its container's init task
        first, and a spawn takes the first minimum of the per-CPU fold,
        refolded first after a kill. Placement runs one vector round
        per new-task rank within a host, over all touched hosts. Each
        touched host logs one op record for the barrier.
        """
        if deltas.size == 0:
            return
        if int(deltas.min()) < MIN_ROW_DELTA or int(deltas.max()) > MAX_ROW_DELTA:
            raise SimulationError(
                "worker delta outside an op record's range"
                f" [{MIN_ROW_DELTA}, {MAX_ROW_DELTA}]"
            )
        self._refold_dirty()
        live = self._live()  # compacts now, if at all: slot ids hold below
        k = self.population.k_per_host
        hosts = rows // k
        grow = deltas > 0

        # --- kills: pop each killing row's stack, newest first ---------
        shrink = np.flatnonzero(~grow)
        popped = [(np.zeros(0, dtype=np.int64),) * 3]
        for rank in range(max(0, -int(deltas.min()))):
            op = shrink[deltas[shrink] < -rank]
            slot = self._row_top[rows[op]]
            self._row_top[rows[op]] = self._s_prev[slot]
            popped.append((slot, op, np.full(op.size, rank)))
        killed, k_op, k_rank = (np.concatenate(c) for c in zip(*popped))

        # --- new slots in op order (so per host in task order): each
        # spawning row's init task if its container is pending, then its
        # workers, whose kinds are ``kinds`` in that order
        spawn = np.flatnonzero(grow)
        s_row = rows[spawn]
        init = self._row_init[s_row]
        self._row_init[s_row] = False
        count = deltas[spawn] + init
        start = np.cumsum(count) - count
        owner = np.repeat(np.arange(spawn.size), count)
        worker = (np.arange(owner.size) > start[owner]) | ~init[owner]
        kind = np.full(owner.size, len(phases))
        kind[worker] = kinds
        n_op = spawn[owner]
        n_host = hosts[n_op]
        table = _phase_columns(list(phases) + [init_phase])
        first = self._append_slots(n_host, table[:, kind])
        # push each row's workers on its stack, oldest first
        pushed = first + np.flatnonzero(worker)
        self._s_prev[pushed] = pushed - 1
        self._s_prev[first + start + init] = self._row_top[s_row]
        self._row_top[s_row] = first + start + count - 1

        # --- host_demand: the killed (-) and spawned (+) worker demands,
        # per host in op order
        t_op = np.concatenate((k_op, n_op[worker]))
        t_key = np.concatenate((k_rank, np.arange(pushed.size)))
        t_val = np.concatenate((-self._s_demand[killed], self._s_demand[pushed]))
        by = np.lexsort((t_key, t_op))
        np.add.at(host_demand, hosts[t_op[by]], t_val[by])

        # --- placement rounds, one per new-task rank within its host ---
        rank = np.arange(owner.size) - np.searchsorted(n_host, n_host)
        # a new task after a kill of its host (since the host's previous
        # new task) first refolds the host's loads
        kills_to = np.concatenate(([0], np.cumsum(~grow)))  # kills before op i
        since = np.where(rank > 0, np.roll(n_op, 1), np.searchsorted(hosts, n_host))
        refold = kills_to[n_op] > kills_to[since]
        # what those refolds read: the hosts' pre-batch live slots, each
        # gone from its kill's op on, and the new tasks of lower rank
        mask = np.zeros(self.n, dtype=bool)
        mask[n_host[refold]] = True
        pool = live[mask[self._s_host[live]]]
        gone_at = np.full(pool.size, rows.size)
        mine = mask[self._s_host[killed]]
        gone_at[np.searchsorted(pool, killed[mine])] = k_op[mine]
        at_op = np.zeros(self.n, dtype=np.int64)
        for r in range(int(rank.max(initial=-1)) + 1):
            idx = np.flatnonzero(rank == r)
            h = n_host[idx]
            stale = refold[idx]
            if stale.any():
                at_op[h[stale]] = n_op[idx[stale]]
                held = pool[gone_at > at_op[self._s_host[pool]]]
                placed = first + np.flatnonzero(rank < r)
                self._refold(h[stale], np.concatenate((held, placed)), loads_only=True)
            cpu = self._cpu_demand[h].argmin(axis=1)  # the first minimum
            d = self._s_demand[first + idx]
            self._cpu_demand[h, cpu] += d
            self._fp[h] += d  # a dirty host's is refolded later
            self._s_cpu[first + idx] = cpu
        self._s_alive[first : self._s_len] = True
        self._kill_slots(killed)
        self._dirty[hosts[shrink]] = True

        fresh = np.ones(hosts.size, dtype=bool)
        fresh[1:] = hosts[1:] != hosts[:-1]  # rows ascend, so hosts do
        touched = hosts[fresh]
        self._rescale(touched[~self._dirty[touched]])
        # one op record per touched host for the current barrier
        end = self._op_len + len(touched)
        for name in _OP_COLUMNS:
            setattr(self, name, _reserve(getattr(self, name), end))
        new = slice(self._op_len, end)
        self._op_host[new] = touched
        self._op_bar[new] = len(self._bar_t0)
        self._op_delta[new] = 0
        self._op_delta[self._op_len - 1 + np.cumsum(fresh), rows - hosts * k] = deltas
        self._op_len = end

    def _drop_ops(self, i: int) -> None:
        """Forget host ``i``'s op records."""
        keep = np.flatnonzero(self._op_host[: self._op_len] != i)
        for name in _OP_COLUMNS:
            arr = getattr(self, name)
            arr[: len(keep)] = arr[keep]
        self._op_len = len(keep)

    # ------------------------------------------------------------------
    # materialization / demotion

    def ensure_hot(self, i: int) -> None:
        """Materialize host ``i``: replay deferred ticks through Kernel.tick."""
        if not self.cold[i]:
            return
        began = perf_counter()
        self._refold_dirty()
        self.cold[i] = False
        if self._run_start[i] >= 0:
            self._ranges[i].append((int(self._run_start[i]), len(self._bar_t0)))
            self._run_start[i] = -1
        kernel = self.kernels[i]
        bars, deltas = self.op_records(i)
        nrec = len(bars)
        ri = 0
        pop = self.population
        cursor: List[int] = []
        if pop is not None:
            # each row's first deferred spawn ordinal: the population's
            # count less the spawns the log still holds
            k = pop.k_per_host
            logged = np.maximum(np.asarray(deltas, dtype=np.int64), 0).reshape(-1, k)
            cursor = (pop._spawn_seq[i * k : (i + 1) * k] - logged.sum(axis=0)).tolist()
        nbar = len(self._bar_t0)
        with self.clock.replay_window(float(self._adopt_t[i])):
            for a, b in self._ranges[i]:
                for seq in range(a, b):
                    t0 = self._bar_t0[seq]
                    dt = self._bar_dt[seq]
                    self.clock.sleep_until(t0)
                    while ri < nrec and bars[ri] <= seq:
                        self._replay_record(pop, i, deltas[ri], cursor)
                        ri += 1
                    self.clock.sleep_until(t0 + dt)
                    kernel.tick(dt)
        # records logged in the current (not yet ticked) iteration happen
        # at the present clock reading, after the window restores it
        while ri < nrec:
            if bars[ri] < nbar:
                raise SimulationError(
                    "deferred op record outside any participation range:"
                    f" barrier {bars[ri]}, deltas {tuple(deltas[ri])}"
                )
            self._replay_record(pop, i, deltas[ri], cursor)
            ri += 1
        if kernel.ticks_taken != int(self._ticks[i]):
            raise SimulationError(
                f"replay desync on host {i}: kernel at tick "
                f"{kernel.ticks_taken}, columns at {int(self._ticks[i])}"
            )
        ticks = int(self._ticks[i])
        if self._has_rapl and kernel.rapl._noise_calls != ticks + self._rapl_base[i]:
            raise SimulationError(f"RAPL noise cursor desync on host {i}")
        if (
            self._has_coretemp
            and kernel.thermal._noise_calls != ticks + self._therm_base[i]
        ):
            raise SimulationError(f"thermal noise cursor desync on host {i}")
        # release the host's cold bookkeeping
        live = self._live()
        self._kill_slots(live[self._s_host[live] == i])
        self._ranges[i] = []
        if nrec:
            self._drop_ops(i)
        self._recolor()
        self.materializations += 1
        self._h_materialize.observe(perf_counter() - began)

    def _replay_record(self, pop, i: int, deltas, cursor: List[int]) -> None:
        """Replay one op record of host ``i``: its rows' churn in row order.

        A positive delta first creates the row's container if it has
        none yet (the condition the cold spawn tested), then spawns at
        the row's ordinal cursor; a negative one pops the row's newest
        workers.
        """
        if pop is None:
            raise SimulationError("deferred tenant op with no population bound")
        base = i * pop.k_per_host
        for j, delta in enumerate(deltas):
            row = base + j
            if delta > 0:
                pop.replay_container(row)
                for seq in range(cursor[j], cursor[j] + delta):
                    pop.replay_spawn(row, seq)
                cursor[j] += delta
            else:
                for _ in range(-delta):
                    pop.replay_kill(row)

    def ensure_hot_kernel(self, kernel: Kernel) -> None:
        idx = self._kernel_index.get(id(kernel))
        if idx is not None:
            self.ensure_hot(idx)

    def maybe_demote(self, i: int) -> bool:
        """Re-adopt host ``i`` into the columns if it is eligible again."""
        if self.cold[i] or not self._eligible(i):
            return False
        self._adopt(i)
        self.demotions += 1
        return True

    # ------------------------------------------------------------------
    # the tick

    def tick_all(self, dt: float, dark, t0: float) -> None:
        """Advance every non-dark host by ``dt``: hot scalars, cold columns.

        ``t0`` is the clock reading *before* the driver advanced it (the
        barrier time recorded for deferred replay); ``dark`` holds host
        indices that draw no power this tick (tripped racks, crashes).

        With the lit set and the sweep both memo hits, a tick logs its
        barrier, counts its cold host-ticks and bumps ``_ticks``: the
        participation runs are already open and closed for that lit
        set, and ``_wall`` already holds the sweep's walls. The lit set
        is taken before the hot ticks: a tick listener touches only its
        own kernel, so no hot tick moves a host across the cold mask.
        """
        if self._sweep is None:
            self._refold_dirty()  # a hit has none: writers of ``_dirty`` drop it
        lit = self._lit
        fresh = lit is None or lit[0] != dark
        if fresh:
            lit = self._lit = self._light(dark)
        hot, any_cold = lit[1], lit[2]
        seq = len(self._bar_t0)
        if any_cold:
            self._bar_t0.append(t0)
            self._bar_dt.append(dt)
            self._g_barriers.value = seq + 1
            self._g_op_bytes.value = self.op_log_bytes()
        # hot hosts: the per-object reference path, exactly as before
        for i in hot:
            self.kernels[i].tick(dt)
        self.hot_host_ticks += len(hot)
        if not any_cold:
            return
        part, count = lit[3], lit[4]
        if fresh:
            # participation-run bookkeeping (vectorized; darkness is rare)
            opening = part & (self._run_start < 0)
            if opening.any():
                self._run_start[opening] = seq
            closing = self.cold & ~part & (self._run_start >= 0)
            if closing.any():
                for i in np.nonzero(closing)[0]:
                    self._ranges[i].append((int(self._run_start[i]), seq))
                    self._run_start[i] = -1
        if not count:
            return
        self.cold_host_ticks += count

        sweep = self._sweep
        if sweep is None or sweep[1] != dt:
            sweep = self._sweep = self._sweep_walls(dt, sweep)
            fresh = True
        if fresh:
            self._wall[part] = sweep[2][part]
            self.wall_gen += 1
        self._ticks += part

    def _light(self, dark) -> tuple:
        """The lit-set memo for ``dark`` under the current cold mask."""
        hot = self.hot_hosts()
        part = self.cold.copy()
        for i in dark:
            part[i] = False
        return (
            frozenset(dark),
            [i for i in hot if i not in dark],
            len(hot) < self.n,
            part,
            int(part.sum()),
        )

    def _sweep_walls(self, dt: float, memo: Optional[tuple]) -> tuple:
        """The tick sweep at ``dt``: every host's wall watts, from the
        memo's gathered slot table if it has one; returns the new memo."""
        n, C, P = self.n, self._C, self._P
        params = self._params
        self._c_sweeps.value += 1

        # --- scheduler sweep (mirrors Scheduler.tick per-CPU loop) ----
        if memo is None:
            order = self._live()
            tgt = self._s_host[order] * C + self._s_cpu[order]
            table = (
                tgt,
                self._s_demand[order] * self._scale.reshape(-1)[tgt],
                self._s_ipc[order],
                self._s_cmr[order],
                self._s_bmr[order],
            )
        else:
            table = memo[0]
        tgt, share, ipc, cmr, bmr = table
        granted = share * dt
        cycles = (granted * self._freq).astype(np.int64)
        instructions = (cycles * ipc).astype(np.int64)
        cache_misses = (instructions * cmr / 1000.0).astype(np.int64)
        branch_misses = (instructions * bmr / 1000.0).astype(np.int64)
        cyc = np.zeros(n * C, dtype=np.int64)
        cm = np.zeros(n * C, dtype=np.int64)
        bm = np.zeros(n * C, dtype=np.int64)
        np.add.at(cyc, tgt, cycles)
        np.add.at(cm, tgt, cache_misses)
        np.add.at(bm, tgt, branch_misses)

        # --- power.tick_energy (per-package sequential fold) ----------
        dyn_core = (
            params.energy_per_cycle * cyc
            + params.energy_per_cache_miss * cm
        ) + params.energy_per_branch_miss * bm
        dyn_dram = params.dram_energy_per_miss * cm
        dyn_core = dyn_core.reshape(n, C)
        dyn_dram = dyn_dram.reshape(n, C)
        core_j = np.full((n, P), params.core_idle_watts * dt, dtype=np.float64)
        dram_j = np.full((n, P), params.dram_idle_watts * dt, dtype=np.float64)
        uncore_j = params.uncore_watts * dt
        for c in range(C):
            p = c // self._cores_per_pkg
            core_j[:, p] = core_j[:, p] + dyn_core[:, c]
            dram_j[:, p] = dram_j[:, p] + dyn_dram[:, c]
        pkg_j = (core_j + dram_j) + uncore_j

        # --- wall power (topology.package_power_watts fold) -----------
        acc = 0 + pkg_j[:, 0]
        for p in range(1, P):
            acc = acc + pkg_j[:, p]
        wall = self.power_config.platform_base_watts + (
            self.power_config.package_scaling * (acc / dt)
        )
        return table, dt, wall

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "hosts": self.n,
            "cold": self.cold_count(),
            "materializations": self.materializations,
            "demotions": self.demotions,
            "cold_host_ticks": self.cold_host_ticks,
            "hot_host_ticks": self.hot_host_ticks,
            "barriers": len(self._bar_t0),
            "op_log_bytes": self.op_log_bytes(),
            "sweeps": self._c_sweeps.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarHostEngine(hosts={self.n}, cold={self.cold_count()}, "
            f"materializations={self.materializations})"
        )
