"""Columnar host engine: cold hosts tick as numpy column sweeps.

PR 6 vectorized the *tenant* plane; this module vectorizes the *host*
plane. Every rack used to tick per-object Python :class:`Kernel`\\ s, so
rack counts capped at tens. The :class:`ColumnarHostEngine` splits a
fleet into **hot** hosts (full per-object fidelity, ticked exactly as
before) and **cold** hosts, whose externally observable per-tick outputs
— scheduler demand aggregation, per-core activity, ``power.tick_energy``
breakdowns, RAPL counter accumulation (with hardware-MSR wraparound) and
thermal sensor state — are computed as vectorized column sweeps keyed by
host index.

Bit-identity contract
---------------------
The engine is not an approximation of ``Kernel.tick``; it is the same
arithmetic, evaluated columnwise, plus **deferred replay** for the state
it does not mirror:

* A cold host *keeps* its fully booted :class:`Kernel` object; the
  engine merely defers its ticks, logging ``(t0, dt)`` barriers and the
  tenant-population churn that would have applied to it. Each host's op
  log holds one record per barrier with churn: the barrier sequence
  number (an ``array('i')``) and the signed worker delta of each of the
  host's ``k`` tenant rows (``k`` entries of an ``array('b')``). Replay
  re-derives the rest: spawn ordinals from a per-row cursor, kills as
  LIFO pops, and the container creation before a row's first spawn.
* Everything the outside world can observe *while the host is cold* is
  mirrored in columns with the exact IEEE-754 operation order of the
  scalar reference (the stage order of :meth:`Kernel.tick`):
  sequential per-CPU demand folds in task order, the same ``int()``
  truncations of the workload consume path, the same per-package energy
  fold order, the same keyed RAPL/thermal noise draws by call index, and
  the same float-modulo counter wraparound.
* When something needs per-object fidelity — an attached RAPL observer
  or monitor, a procfs read, a scheduled fault targeting the host,
  attack exec/placement — :meth:`ensure_hot` **materializes** the host
  by replaying the logged barriers through the real ``Kernel.tick`` with
  the clock rewound (:meth:`VirtualClock.replay_window`). Nothing
  consumed the kernel's stateful RNG streams while it was cold, so the
  replay consumes exactly the draws the never-deferred run would have:
  the interior state (loadavg, schedstat, memory/filesystem/random
  subsystems, cpuacct, perf rates) comes out bit-identical *by
  construction*, and the column/scalar handoff is bitwise
  round-trippable in both directions.
* When the last observer releases (:meth:`observer_release`) and the
  host is eligible again, it is demoted back to columns by re-adopting
  the live kernel state.

Ordered float folds use ``np.add.at`` over a slot array sorted by
``(host, task position)``; ``ufunc.at`` is unbuffered and accumulates
repeated indices in element order, so each per-(host, CPU) fold happens
in task order exactly like the scalar loop. The golden equivalence suite
(``tests/datacenter/test_hostengine.py``) pins this bit for bit.

Each cold host's mirror holds only its live tasks: a kill removes the
slot from the host's task-ordered list and marks the host's folds
dirty. A dirty host is refolded before its next placement, and every
other dirty host in one vector pass before anything reads the folds
(:meth:`tick_all`, the plan fingerprint, :meth:`ensure_hot`, a
checkpoint pickle). The per-CPU demand column is therefore the
scheduler's placement fold whenever a spawn places on its first
minimum. The population hands over one step's churn on cold hosts as a
single :meth:`cold_churn` batch, so a spawn or kill costs O(live tasks
on the host), however many tasks the host has had.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import TaskState
from repro.kernel.thermal import ThermalSubsystem
from repro.obs.registry import MetricRegistry
from repro.sim.clock import VirtualClock
from repro.sim.rng import keyed_gauss_at, stream_key


#: range of one row's worker delta in an op record (``array('b')``)
MIN_ROW_DELTA, MAX_ROW_DELTA = -128, 127


#: the per-slot task-mirror columns
_SLOT_COLUMNS = (
    "_s_demand",
    "_s_ipc",
    "_s_cmr",
    "_s_bmr",
    "_s_host",
    "_s_cpu",
    "_s_alive",
)


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
        C, P = self._C, self._P

        self.cold = np.zeros(n, dtype=bool)
        self._observers = np.zeros(n, dtype=np.int64)
        #: per-host mirror of ``kernel.ticks_taken`` while cold
        self._ticks = np.zeros(n, dtype=np.int64)
        self._fp = np.zeros(n, dtype=np.float64)
        self._wall = np.zeros(n, dtype=np.float64)
        self._cpu_demand = np.zeros((n, C), dtype=np.float64)
        self._scale = np.ones((n, C), dtype=np.float64)
        self._temps = np.zeros((n, C), dtype=np.float64)
        self._therm_calls = np.zeros(n, dtype=np.int64)
        self._temp_keys = np.zeros((n, C), dtype=np.uint64)
        self._rapl_core_uj = np.zeros((n, P), dtype=np.float64)
        self._rapl_dram_uj = np.zeros((n, P), dtype=np.float64)
        self._rapl_pkg_uj = np.zeros((n, P), dtype=np.float64)
        self._rapl_calls = np.zeros(n, dtype=np.int64)
        self._rapl_keys = np.zeros((n, P), dtype=np.uint64)
        self._rapl_range = float(0)
        self._adopt_t = np.zeros(n, dtype=np.float64)

        # task-mirror slots, flat and append-only (dead slots leave every
        # per-host list at once and are compacted out of the arrays when
        # they dominate)
        cap = 64
        self._s_demand = np.zeros(cap, dtype=np.float64)
        self._s_ipc = np.zeros(cap, dtype=np.float64)
        self._s_cmr = np.zeros(cap, dtype=np.float64)
        self._s_bmr = np.zeros(cap, dtype=np.float64)
        self._s_host = np.zeros(cap, dtype=np.int64)
        self._s_cpu = np.zeros(cap, dtype=np.int64)
        self._s_alive = np.zeros(cap, dtype=bool)
        self._s_len = 0
        self._dead_slots = 0
        #: per-host live slot ids in task order (the scalar ``_tasks`` mirror)
        self._host_slots: List[List[int]] = [[] for _ in range(n)]
        #: per-host ``(cpu, demand)`` of those slots, as Python scalars
        self._host_tasks: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        #: alive slots of cold hosts in (host, task position) order —
        #: the fold order of every order-sensitive float accumulation
        self._order: Optional[np.ndarray] = None
        self._order_dirty = True

        # deferred-replay log
        self._bar_t0: List[float] = []
        self._bar_dt: List[float] = []
        #: per-host closed participation ranges [start_seq, end_seq)
        self._ranges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._run_start = np.full(n, -1, dtype=np.int64)
        #: per-host op records: the barrier seq of each record, and the
        #: signed worker delta of each of the host's tenant rows
        self._op_bar: List[array] = [array("i") for _ in range(n)]
        self._op_delta: List[array] = [array("b") for _ in range(n)]
        self._op_records = 0
        #: tenant rows on cold hosts: row -> mirror slot ids (LIFO)
        self._row_slots: Dict[int, List[int]] = {}
        self._row_has_container: Set[int] = set()
        #: tenant rows on cold hosts: row -> ordinal of its next replayed
        #: spawn (the population's ``_spawn_seq`` at adoption)
        self._row_cursor: Dict[int, int] = {}
        #: cold hosts whose ``_fp``/``_cpu_demand``/``_scale`` are stale
        self._dirty: Set[int] = set()

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
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel_index = {id(k): i for i, k in enumerate(self.kernels)}

    # ------------------------------------------------------------------
    # wiring

    def use_registry(self, registry: MetricRegistry) -> None:
        """Publish the replay-debt gauges into ``registry``."""
        self._g_barriers = registry.gauge(
            "columnar.deferred_barriers", "barriers logged for deferred replay"
        )
        self._g_op_bytes = registry.gauge(
            "columnar.op_log_bytes", "bytes of packed deferred-op records"
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

    def index_of(self, kernel: Kernel) -> Optional[int]:
        return self._kernel_index.get(id(kernel))

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
        """Bytes the packed op records take (growth slack excluded)."""
        k = self.population.k_per_host if self.population is not None else 0
        return self._op_records * (self._op_bar[0].itemsize + k)

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

    def _grow_slots(self, size: int) -> None:
        """Make room for ``size`` slots (capacity doubles)."""
        cap = len(self._s_demand)
        if size <= cap:
            return
        while cap < size:
            cap *= 2
        for name in _SLOT_COLUMNS:
            arr = getattr(self, name)
            grown = np.zeros(cap, dtype=arr.dtype)
            grown[: len(arr)] = arr
            setattr(self, name, grown)

    def _new_slot(self, host: int, cpu: int, phase) -> int:
        slot = self._s_len
        self._grow_slots(slot + 1)
        self._s_len = slot + 1
        self._s_demand[slot] = phase.cpu_demand
        self._s_ipc[slot] = phase.ipc
        self._s_cmr[slot] = phase.cache_miss_per_kinst
        self._s_bmr[slot] = phase.branch_miss_per_kinst
        self._s_host[slot] = host
        self._s_cpu[slot] = cpu
        self._s_alive[slot] = True
        self._host_slots[host].append(slot)
        self._host_tasks[host].append((cpu, float(phase.cpu_demand)))
        self._order_dirty = True
        return slot

    def _drop_host_slots(self, i: int) -> None:
        """Forget host ``i``'s slot mirror (the slots turn dead)."""
        slots = self._host_slots[i]
        if slots:
            self._s_alive[slots] = False
            self._dead_slots += len(slots)
        self._host_slots[i] = []
        self._host_tasks[i] = []

    def _adopt(self, i: int) -> None:
        """Snapshot one eligible host's live state into the columns."""
        from repro.datacenter.topology import wall_power_watts

        kernel = self.kernels[i]
        self._drop_host_slots(i)
        placement = kernel.scheduler._placement
        for task in kernel.scheduler.iter_tasks():
            self._new_slot(i, placement[task], task.workload.phases[0])
        self._dirty.add(i)

        self._ticks[i] = kernel.ticks_taken
        self._wall[i] = wall_power_watts(kernel, self.power_config)
        seed = kernel.rng.seed
        if self._has_coretemp:
            for c, sensor in enumerate(kernel.thermal.sensors):
                self._temps[i, c] = sensor.temp_c
                self._temp_keys[i, c] = stream_key(seed, f"temp-noise-{c}")
            self._therm_calls[i] = kernel.thermal._noise_calls
        if self._has_rapl:
            for p, pkg in enumerate(kernel.rapl.packages):
                self._rapl_core_uj[i, p] = pkg.core._energy_uj
                self._rapl_dram_uj[i, p] = pkg.dram._energy_uj
                self._rapl_pkg_uj[i, p] = pkg.package._energy_uj
                self._rapl_keys[i, p] = stream_key(seed, f"rapl-noise-{p}")
            self._rapl_calls[i] = kernel.rapl._noise_calls
            self._rapl_range = float(kernel.rapl.packages[0].package.max_energy_range_uj)

        self._adopt_t[i] = self.clock.now
        self._ranges[i] = []
        self._run_start[i] = -1
        self._drop_ops(i)

        if self.population is not None:
            pop = self.population
            k = pop.k_per_host
            # map the row's live tasks onto the freshly scanned slots so
            # later cold kills pop the same LIFO order the scalar path
            # would; slot ids follow task order, so positions line up
            slot_of = {}
            pos = 0
            tasks_in_order = list(kernel.scheduler.iter_tasks())
            for task in tasks_in_order:
                slot_of[id(task)] = self._host_slots[i][pos]
                pos += 1
            for row in range(i * k, (i + 1) * k):
                self._row_slots[row] = [
                    slot_of[id(t)] for t in pop._tasks[row]
                ]
                if pop._containers[row] is not None:
                    self._row_has_container.add(row)
                self._row_cursor[row] = int(pop._spawn_seq[row])
        self.cold[i] = True
        self._order_dirty = True

    def _drop_ops(self, i: int) -> None:
        self._op_records -= len(self._op_bar[i])
        self._op_bar[i] = array("i")
        self._op_delta[i] = array("b")

    def _refold_dirty(self) -> None:
        """Refold every dirty host in one vector pass.

        Mirrors ``kernel_demand_fingerprint`` (0.0-seeded fold in task
        order) and the scheduler's per-CPU ``sum(demands.values())``
        (int-0-seeded fold in task order) exactly: ``np.add.at`` is
        unbuffered, so over the live slots in (host, task position)
        order each target accumulates term by term in task order, from
        zero. The per-CPU fold is also what ``Scheduler.add_task``
        places by, so ``_cpu_demand`` is again the placement load.
        """
        if not self._dirty:
            return
        if self._order_dirty:
            self._rebuild_order()
        dirty = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
        self._dirty.clear()
        mask = np.zeros(self.n, dtype=bool)
        mask[dirty] = True
        order = self._order
        sel = order[mask[self._s_host[order]]]
        hosts = self._s_host[sel]
        demand = self._s_demand[sel]
        self._fp[dirty] = 0.0
        np.add.at(self._fp, hosts, demand)
        C = self._C
        self._cpu_demand[dirty] = 0.0
        np.add.at(self._cpu_demand.reshape(-1), hosts * C + self._s_cpu[sel], demand)
        totals = self._cpu_demand[dirty]
        self._scale[dirty] = np.divide(
            1.0, totals, out=np.ones_like(totals), where=totals > 1.0
        )

    # ------------------------------------------------------------------
    # cold tenant churn (the population's cold branch, once per step)

    def cold_churn(
        self,
        rows: np.ndarray,
        deltas: np.ndarray,
        phases: Sequence[object],
        init_phase,
        host_demand: np.ndarray,
    ) -> None:
        """Apply one step's worker churn on cold hosts, deferring it.

        ``rows`` are tenant rows on cold hosts in ascending order, each
        with a non-zero signed worker delta; ``phases`` holds the phase
        of every new worker, rows in order and each row's workers in
        spawn-ordinal order. Per host, the ops run in row order, each
        row's contiguous, exactly as a per-row scalar loop would:
        placement is the first minimum of the per-CPU fold (a host
        refolds first if a kill left it dirty), a row's first spawn
        creates its container (the init task joins the mirror first),
        and kills pop the row's newest worker. ``host_demand[h]`` folds
        every spawned demand (+) and killed demand (-) in that order.
        Each touched host logs one op record for the current barrier.
        """
        if deltas.size == 0:
            return
        if int(deltas.min()) < MIN_ROW_DELTA or int(deltas.max()) > MAX_ROW_DELTA:
            raise SimulationError(
                "worker delta outside an op record's range"
                f" [{MIN_ROW_DELTA}, {MAX_ROW_DELTA}]"
            )
        seq = len(self._bar_t0)
        self._refold_dirty()
        pop = self.population
        k = pop.k_per_host
        engines = pop._engines
        C = self._C
        row_slots = self._row_slots
        has_container = self._row_has_container
        dirty = self._dirty
        first = self._s_len
        new_host: List[int] = []
        new_cpu: List[int] = []
        new_phase: List[object] = []
        killed: List[int] = []
        touched: List[int] = []
        demands: List[float] = []

        def place(phase) -> int:
            """Append a task to host ``h``'s mirror on the first least
            loaded CPU, extending the placement fold; returns its slot."""
            d = float(phase.cpu_demand)
            cpu = loads.index(min(loads))
            loads[cpu] = loads[cpu] + d
            slot = first + len(new_phase)
            slots.append(slot)
            tasks.append((cpu, d))
            new_host.append(h)
            new_cpu.append(cpu)
            new_phase.append(phase)
            return slot

        phase_at = iter(phases)
        rows_l = rows.tolist()
        deltas_l = deltas.tolist()
        hd = host_demand.tolist()
        i, end = 0, len(rows_l)
        while i < end:
            h = rows_l[i] // k
            base = h * k
            record = [0] * k
            slots = self._host_slots[h]
            tasks = self._host_tasks[h]
            loads = None
            acc = hd[h]
            while i < end and rows_l[i] < base + k:
                row, delta = rows_l[i], deltas_l[i]
                i += 1
                record[row - base] = delta
                if delta < 0:
                    mine = row_slots[row]
                    for _ in range(-delta):
                        slot = mine.pop()
                        pos = slots.index(slot)
                        del slots[pos]
                        acc = acc - tasks.pop(pos)[1]
                        killed.append(slot)
                    dirty.add(h)
                    loads = None
                    continue
                if loads is None:
                    if h in dirty:
                        # a kill left the folds stale: redo the
                        # scheduler's placement fold (int-0-seeded, in
                        # task order) over the host's live tasks
                        loads = [0] * C
                        for c, d in tasks:
                            loads[c] = loads[c] + d
                    else:
                        loads = self._cpu_demand[h].tolist()
                mine = row_slots.setdefault(row, [])
                if row not in has_container and engines[h] is not None:
                    # the container's init task joins before the worker
                    has_container.add(row)
                    place(init_phase)
                for _ in range(delta):
                    phase = next(phase_at)
                    mine.append(place(phase))
                    acc = acc + phase.cpu_demand
            self._op_bar[h].append(seq)
            self._op_delta[h].extend(record)
            touched.append(h)
            demands.append(acc)
        self._op_records += len(touched)
        host_demand[touched] = demands
        # spawns extended ``loads`` only locally: refold every touched
        # host (appending a term last in task order is the same fold)
        dirty.update(touched)
        self._order_dirty = True
        if killed:
            self._s_alive[killed] = False
            self._dead_slots += len(killed)
        if new_phase:
            end = first + len(new_phase)
            self._grow_slots(end)
            self._s_len = end
            new = slice(first, end)
            self._s_host[new] = new_host
            self._s_cpu[new] = new_cpu
            self._s_demand[new] = [p.cpu_demand for p in new_phase]
            self._s_ipc[new] = [p.ipc for p in new_phase]
            self._s_cmr[new] = [p.cache_miss_per_kinst for p in new_phase]
            self._s_bmr[new] = [p.branch_miss_per_kinst for p in new_phase]
            self._s_alive[new] = True

    # ------------------------------------------------------------------
    # materialization / demotion

    def ensure_hot(self, i: int) -> None:
        """Materialize host ``i``: replay deferred ticks through Kernel.tick."""
        if not self.cold[i]:
            return
        self._refold_dirty()
        self.cold[i] = False
        self._order_dirty = True
        if self._run_start[i] >= 0:
            self._ranges[i].append((int(self._run_start[i]), len(self._bar_t0)))
            self._run_start[i] = -1
        kernel = self.kernels[i]
        bars = self._op_bar[i]
        deltas = self._op_delta[i]
        nrec = len(bars)
        ri = 0
        pop = self.population
        k = pop.k_per_host if pop is not None else 0
        nbar = len(self._bar_t0)
        with self.clock.replay_window(float(self._adopt_t[i])):
            for a, b in self._ranges[i]:
                for seq in range(a, b):
                    t0 = self._bar_t0[seq]
                    dt = self._bar_dt[seq]
                    self.clock.sleep_until(t0)
                    while ri < nrec and bars[ri] <= seq:
                        self._replay_record(pop, i, deltas[ri * k : (ri + 1) * k])
                        ri += 1
                    self.clock.sleep_until(t0 + dt)
                    kernel.tick(dt)
        # records logged in the current (not yet ticked) iteration happen
        # at the present clock reading, after the window restores it
        while ri < nrec:
            if bars[ri] < nbar:
                raise SimulationError(
                    "deferred op record outside any participation range:"
                    f" barrier {bars[ri]}, deltas"
                    f" {tuple(deltas[ri * k : (ri + 1) * k])}"
                )
            self._replay_record(pop, i, deltas[ri * k : (ri + 1) * k])
            ri += 1
        if kernel.ticks_taken != int(self._ticks[i]):
            raise SimulationError(
                f"replay desync on host {i}: kernel at tick "
                f"{kernel.ticks_taken}, columns at {int(self._ticks[i])}"
            )
        if self._has_rapl and kernel.rapl._noise_calls != int(self._rapl_calls[i]):
            raise SimulationError(f"RAPL noise cursor desync on host {i}")
        if (
            self._has_coretemp
            and kernel.thermal._noise_calls != int(self._therm_calls[i])
        ):
            raise SimulationError(f"thermal noise cursor desync on host {i}")
        # release the host's cold bookkeeping
        self._drop_host_slots(i)
        self._ranges[i] = []
        self._drop_ops(i)
        if pop is not None:
            for row in range(i * k, (i + 1) * k):
                self._row_slots.pop(row, None)
                self._row_has_container.discard(row)
                self._row_cursor.pop(row, None)
        self.materializations += 1

    def _replay_record(self, pop, i: int, deltas) -> None:
        """Replay one op record of host ``i``: its rows' churn in row order.

        A positive delta first creates the row's container if it has
        none yet (the condition the cold spawn tested), then spawns at
        the row's ordinal cursor; a negative one pops the row's newest
        workers.
        """
        if pop is None:
            raise SimulationError("deferred tenant op with no population bound")
        row = i * pop.k_per_host
        for delta in deltas:
            if delta > 0:
                pop.replay_container(row)
                first = self._row_cursor[row]
                for seq in range(first, first + delta):
                    pop.replay_spawn(row, seq)
                self._row_cursor[row] = first + delta
            else:
                for _ in range(-delta):
                    pop.replay_kill(row)
            row += 1

    def ensure_hot_kernel(self, kernel: Kernel) -> None:
        idx = self._kernel_index.get(id(kernel))
        if idx is not None:
            self.ensure_hot(idx)

    def observer_acquire(self, i: int) -> None:
        """A per-object observer (monitor, walker) now watches host ``i``."""
        self.ensure_hot(i)
        self._observers[i] += 1

    def observer_release(self, i: int) -> None:
        """Release one observer; demote back to columns on the last one."""
        if self._observers[i] <= 0:
            raise SimulationError(f"observer refcount underflow on host {i}")
        self._observers[i] -= 1
        if self._observers[i] == 0:
            self.maybe_demote(i)

    def maybe_demote(self, i: int) -> bool:
        """Re-adopt host ``i`` into the columns if it is eligible again."""
        if self.cold[i] or self._observers[i] > 0:
            return False
        if not self._eligible(i):
            return False
        self._adopt(i)
        self.demotions += 1
        return True

    # ------------------------------------------------------------------
    # the tick

    def _rebuild_order(self) -> None:
        order: List[int] = []
        for i in np.nonzero(self.cold)[0].tolist():
            order.extend(self._host_slots[i])
        self._order = np.asarray(order, dtype=np.int64)
        self._order_dirty = False
        if self._dead_slots > 64 and self._dead_slots * 2 > self._s_len:
            self._compact_slots()

    def _compact_slots(self) -> None:
        """Drop dead slots, preserving per-host task order."""
        remap = np.full(self._s_len, -1, dtype=np.int64)
        alive = np.nonzero(self._s_alive[: self._s_len])[0]
        remap[alive] = np.arange(len(alive))
        for name in _SLOT_COLUMNS:
            arr = getattr(self, name)
            packed = np.zeros(max(64, len(alive) * 2), dtype=arr.dtype)
            packed[: len(alive)] = arr[alive]
            setattr(self, name, packed)
        self._s_len = len(alive)
        self._dead_slots = 0
        # every listed slot is live, so each remaps to its packed index
        for i in range(self.n):
            self._host_slots[i] = remap[self._host_slots[i]].tolist()
        for row, slots in self._row_slots.items():
            self._row_slots[row] = remap[slots].tolist()
        if self._order is not None:
            self._order = remap[self._order]

    def tick_all(self, dt: float, dark, t0: float) -> None:
        """Advance every non-dark host by ``dt``: hot scalars, cold columns.

        ``t0`` is the clock reading *before* the driver advanced it (the
        barrier time recorded for deferred replay); ``dark`` holds host
        indices that draw no power this tick (tripped racks, crashes).
        """
        self._refold_dirty()
        cold = self.cold
        any_cold = cold.any()
        seq = len(self._bar_t0)
        if any_cold:
            self._bar_t0.append(float(t0))
            self._bar_dt.append(float(dt))
            self._g_barriers.value = seq + 1
            self._g_op_bytes.value = self.op_log_bytes()
        # hot hosts: the per-object reference path, exactly as before
        for i in np.flatnonzero(~cold).tolist():
            if i not in dark:
                self.kernels[i].tick(dt)
                self.hot_host_ticks += 1
        if not any_cold:
            return

        part = cold.copy()
        if dark:
            for i in dark:
                part[i] = False
        # participation-run bookkeeping (vectorized; darkness is rare)
        opening = part & (self._run_start < 0)
        if opening.any():
            self._run_start[opening] = seq
        closing = cold & ~part & (self._run_start >= 0)
        if closing.any():
            for i in np.nonzero(closing)[0]:
                self._ranges[i].append((int(self._run_start[i]), seq))
                self._run_start[i] = -1
        if not part.any():
            return
        self.cold_host_ticks += int(part.sum())

        if self._order_dirty:
            self._rebuild_order()
        order = self._order
        n, C, P = self.n, self._C, self._P
        params = self._params

        # --- scheduler sweep (mirrors Scheduler.tick per-CPU loop) ----
        hosts = self._s_host[order]
        cpus = self._s_cpu[order]
        tgt = hosts * C + cpus
        d = self._s_demand[order]
        scale = self._scale.reshape(-1)[tgt]
        granted = (d * scale) * dt
        busy = np.zeros(n * C, dtype=np.float64)
        # ufunc.at is unbuffered: repeated targets accumulate in element
        # order, i.e. task order — the scalar busy_seconds fold
        np.add.at(busy, tgt, granted)
        cycles = (granted * self._freq).astype(np.int64)
        instructions = (cycles * self._s_ipc[order]).astype(np.int64)
        cache_misses = (instructions * self._s_cmr[order] / 1000.0).astype(np.int64)
        branch_misses = (instructions * self._s_bmr[order] / 1000.0).astype(np.int64)
        cyc = np.zeros(n * C, dtype=np.int64)
        cm = np.zeros(n * C, dtype=np.int64)
        bm = np.zeros(n * C, dtype=np.int64)
        np.add.at(cyc, tgt, cycles)
        np.add.at(cm, tgt, cache_misses)
        np.add.at(bm, tgt, branch_misses)
        busy = busy.reshape(n, C)
        util = np.minimum(1.0, busy / dt)

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
        self._wall[part] = wall[part]
        self._ticks[part] += 1

        # --- thermal (ThermalSubsystem.tick) --------------------------
        if self._has_coretemp:
            mean = 0 + util[:, 0]
            for c in range(1, C):
                mean = mean + util[:, c]
            mean = mean / C
            alpha = min(1.0, dt / ThermalSubsystem.TAU_S)
            coupling = ThermalSubsystem.COUPLING
            effective = (1 - coupling) * util + coupling * mean[:, None]
            target = (
                ThermalSubsystem.AMBIENT_C
                + ThermalSubsystem.FULL_LOAD_DELTA_C * effective
            )
            noise = keyed_gauss_at(
                self._temp_keys,
                self._therm_calls[:, None],
                ThermalSubsystem.NOISE_SIGMA,
            )
            temps = self._temps + (
                (target - self._temps) * alpha + noise * alpha
            )
            self._temps[part] = temps[part]
            self._therm_calls[part] += 1

        # --- RAPL accumulation (with MSR wraparound) -------------------
        if self._has_rapl:
            max_range = self._rapl_range
            for p in range(P):
                gauss = keyed_gauss_at(
                    self._rapl_keys[:, p],
                    self._rapl_calls,
                    params.noise_fraction,
                )
                noisy = np.maximum(0.5, 1.0 + gauss)
                new_core = np.remainder(
                    self._rapl_core_uj[:, p] + (core_j[:, p] * noisy) * 1e6,
                    max_range,
                )
                new_dram = np.remainder(
                    self._rapl_dram_uj[:, p] + (dram_j[:, p] * noisy) * 1e6,
                    max_range,
                )
                new_pkg = np.remainder(
                    self._rapl_pkg_uj[:, p] + (pkg_j[:, p] * noisy) * 1e6,
                    max_range,
                )
                self._rapl_core_uj[part, p] = new_core[part]
                self._rapl_dram_uj[part, p] = new_dram[part]
                self._rapl_pkg_uj[part, p] = new_pkg[part]
            self._rapl_calls[part] += 1

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
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarHostEngine(hosts={self.n}, cold={self.cold_count()}, "
            f"materializations={self.materializations})"
        )
