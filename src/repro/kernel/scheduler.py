"""A CFS-flavoured scheduler over the simulated CPU topology.

Each tick the scheduler grants CPU time to runnable tasks
(proportional-fair per CPU, respecting affinity and cpuset), converts the
grants into hardware activity via each task's workload, charges cgroups and
perf counters, and accumulates the per-CPU statistics that the leakage
channels render: ``/proc/stat``, ``/proc/loadavg``, ``/proc/schedstat``,
``/proc/sched_debug``, ``/proc/uptime``'s idle field, and cpuidle times.

The perf-accounting overhead model lives here because its costs are paid in
scheduler time: counter toggles on inter-cgroup switches, event wiring on
spawn, and per-event bookkeeping — see :class:`repro.kernel.perf.PerfTuning`.

:meth:`Scheduler.tick` is one fused pass: it buckets the tasks by CPU once
(placement order), then per CPU folds every task's activity into plain
ints and one float in task order — the order ``ActivitySample.__add__``
summed them in — and builds one sample per CPU plus one host total. Each
task's perf cgroup is looked up once, and only monitored tasks pay for
the overhead model. Single-entry memos, which hold no state that grows
with virtual time, skip rebuilding what a steady load repeats: the last
sample per workload (:meth:`repro.runtime.workload.Workload.consume`),
the last tick's energy (:meth:`repro.kernel.power.PowerModel.tick_energy`)
and each CPU's last C-state increments
(:class:`repro.kernel.cpuidle.CpuIdleSubsystem`). The output is
bit-identical to the unfused per-task form; the state digest in
``tests/kernel/test_tick_pin.py`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.cgroups import (
    CgroupManager,
    CpuAcctState,
    CpuQuotaState,
    CpusetState,
    MemoryState,
)
from repro.kernel.config import HostConfig
from repro.kernel.perf import PerfSubsystem
from repro.kernel.process import Task, TaskState
from repro.kernel.activity import ActivitySample
from repro.sim.rng import DeterministicRNG, randint

#: the activity of a CPU no task ran on this tick (frozen, so shared)
_NO_ACTIVITY = ActivitySample()


@dataclass
class CpuStat:
    """Accumulated per-CPU time accounting (clock-tick style, ns here)."""

    user_ns: int = 0
    system_ns: int = 0
    idle_ns: int = 0
    iowait_ns: int = 0
    irq_ns: int = 0
    softirq_ns: int = 0
    nr_switches: int = 0
    #: schedstat: time tasks spent waiting on the runqueue
    wait_ns: int = 0
    #: schedstat: number of timeslices handed out
    timeslices: int = 0


@dataclass
class TickResult:
    """Everything one scheduler tick produced, for other subsystems."""

    dt: float
    #: per-task activity this tick
    task_samples: List[Tuple[Task, ActivitySample]] = field(default_factory=list)
    #: host-wide totals
    total: ActivitySample = field(default_factory=ActivitySample)
    #: per-CPU busy seconds this tick
    busy_seconds: Dict[int, float] = field(default_factory=dict)
    #: per-CPU utilization in [0,1]
    utilization: Dict[int, float] = field(default_factory=dict)
    #: per-CPU aggregated activity this tick
    cpu_samples: Dict[int, ActivitySample] = field(default_factory=dict)


class Scheduler:
    """Proportional-fair CPU time allocation with perf-overhead modelling."""

    def __init__(
        self,
        config: HostConfig,
        cgroups: CgroupManager,
        perf: PerfSubsystem,
        rng=None,
    ):
        self.config = config
        self.cgroups = cgroups
        self.perf = perf
        self._rng = rng or DeterministicRNG(seed=0)
        self.ncpus = config.total_cores
        self.frequency_hz = config.cpu.frequency_hz
        self.cpu_stats: Dict[int, CpuStat] = {c: CpuStat() for c in range(self.ncpus)}
        self.loadavg_1 = 0.0
        self.loadavg_5 = 0.0
        self.loadavg_15 = 0.0
        self._tasks: List[Task] = []
        self._placement: Dict[Task, int] = {}
        #: CPU-time debt (ns) charged to tasks for perf event setup at spawn
        self._spawn_debt_ns: Dict[Task, int] = {}
        self.total_forks = 0
        self.nr_switches_total = 0
        #: running sum of per-CPU idle time — kept alongside the per-CPU
        #: stats so ``Kernel.idle_seconds`` (the /proc/uptime sampling
        #: path) is O(1) instead of summing ``cpu_stats`` on every read
        self.idle_ns_total = 0
        #: /proc/sys/kernel/sched_domain/cpu#/domain0/max_newidle_lb_cost —
        #: a per-CPU cost estimate the kernel updates continuously, leaked
        #: host-globally (Table II lists it as a V=True channel)
        self.max_newidle_lb_cost: Dict[int, int] = {
            c: 12000 + 700 * c for c in range(self.ncpus)
        }

    # ------------------------------------------------------------------
    # task admission / placement

    def _allowed_cpus(self, task: Task) -> List[int]:
        allowed = set(range(self.ncpus))
        if task.affinity is not None:
            allowed &= set(task.affinity)
        cpuset = self.cgroups.hierarchy("cpuset").cgroup_of(task).state
        assert isinstance(cpuset, CpusetState)
        if cpuset.cpus is not None:
            allowed &= set(cpuset.cpus)
        if not allowed:
            raise KernelError(f"task {task.name!r} has an empty CPU mask")
        return sorted(allowed)

    def add_task(self, task: Task) -> None:
        """Admit a task: pick the least-loaded allowed CPU."""
        if task in self._placement:
            raise KernelError(f"task already scheduled: {task}")
        allowed = self._allowed_cpus(task)
        # each CPU's load is an int-0-seeded sequential sum of its tasks'
        # demands in placement order, gathered in one pass
        loads: List[float] = [0] * self.ncpus
        for t, c in self._placement.items():
            if t.workload is not None:
                loads[c] = loads[c] + t.workload.demand()
        cpu = min(allowed, key=loads.__getitem__)
        self._placement[task] = cpu
        self._tasks.append(task)
        self.total_forks += 1
        # Spawning into a monitored cgroup wires the task into the cgroup's
        # perf events; the cost is paid out of the task's first grants.
        perf_cg = self.cgroups.hierarchy("perf_event").cgroup_of(task)
        if self.perf.is_monitored(perf_cg):
            self._spawn_debt_ns[task] = self.perf.tuning.spawn_ns

    def remove_task(self, task: Task) -> None:
        """Withdraw a (dead or stopped) task from scheduling."""
        self._placement.pop(task, None)
        self._spawn_debt_ns.pop(task, None)
        try:
            self._tasks.remove(task)
        except ValueError:
            raise KernelError(f"task not scheduled: {task}")

    def placement_of(self, task: Task) -> Optional[int]:
        """The CPU a task is currently placed on."""
        return self._placement.get(task)

    def tasks_on_cpu(self, cpu: int) -> List[Task]:
        """Tasks currently placed on ``cpu`` (for sched_debug rendering)."""
        return [t for t, c in self._placement.items() if c == cpu]

    @property
    def tasks(self) -> List[Task]:
        """All tasks known to the scheduler."""
        return list(self._tasks)

    def iter_tasks(self):
        """Iterate scheduled tasks without copying (hot-path accessor)."""
        return iter(self._tasks)

    def rebalance(self) -> None:
        """Re-place every task (cheap global rebalance after churn)."""
        tasks = list(self._tasks)
        self._placement.clear()
        loads: List[float] = [0] * self.ncpus  # as in add_task, built as we go
        for task in tasks:
            cpu = min(self._allowed_cpus(task), key=loads.__getitem__)
            self._placement[task] = cpu
            if task.workload is not None:
                loads[cpu] = loads[cpu] + task.workload.demand()

    # ------------------------------------------------------------------
    # the tick

    def tick(self, dt: float) -> TickResult:
        """Advance all runnable tasks by ``dt`` seconds of virtual time."""
        if dt <= 0:
            raise KernelError(f"scheduler tick needs positive dt: {dt}")
        result = TickResult(dt=dt)
        task_samples = result.task_samples
        busy_by_cpu = result.busy_seconds
        util_by_cpu = result.utilization
        cpu_samples = result.cpu_samples
        cgroups = self.cgroups
        perf_h = cgroups.hierarchy("perf_event")
        cpuacct_h = cgroups.hierarchy("cpuacct")
        memory_h = cgroups.hierarchy("memory")
        perf_of, perf_root = perf_h._membership.get, perf_h.root
        cpuacct_of, cpuacct_root = cpuacct_h._membership.get, cpuacct_h.root
        memory_of, memory_root = memory_h._membership.get, memory_h.root
        perf = self.perf
        perf_state = perf._perf_state
        contention = perf.contention_slowdown()
        quota_of = self._quota_scales(dt).get
        freq = self.frequency_hz
        hz_ticks = int(self.config.hz * dt)
        running = TaskState.RUNNING
        # an idle CPU's idle_ns: int(max(0.0, dt - 0.0) * 1e9), dt > 0
        idle_cpu_ns = int(dt * 1e9)

        # one pass over the placements, in placement order per CPU
        buckets: List[List[Task]] = [[] for _ in range(self.ncpus)]
        for task, cpu in self._placement.items():
            buckets[cpu].append(task)

        # host-wide fold of every task's sample, in task order
        t_cpu_ns = t_cycles = t_instructions = t_cache = t_branch = 0
        t_syscalls = t_vol = t_rss = t_net = t_io = 0
        t_work = 0.0
        monitored_events = 0
        nr_running = 0.0
        for cpu, bucket in enumerate(buckets):
            on_cpu = [
                t
                for t in bucket
                if t.state is running and t.workload is not None
                and not t.workload.finished
            ]
            stat = self.cpu_stats[cpu]
            if not on_cpu:
                stat.idle_ns += idle_cpu_ns
                self.idle_ns_total += idle_cpu_ns
                busy_by_cpu[cpu] = 0.0
                util_by_cpu[cpu] = 0.0
                cpu_samples[cpu] = _NO_ACTIVITY
                continue
            demands = [t.workload.demand() * quota_of(t, 1.0) for t in on_cpu]
            perf_cgs = [perf_of(t, perf_root) for t in on_cpu]
            total_demand = sum(demands)
            nr_running += total_demand

            scale = 1.0 if total_demand <= 1.0 else 1.0 / total_demand
            idle_fraction = max(0.0, 1.0 - total_demand)
            # involuntary preemptions when the CPU is oversubscribed
            invol = hz_ticks if total_demand > 1.0 else 0
            busy_seconds = 0.0
            c_cpu_ns = c_cycles = c_instructions = c_cache = c_branch = 0
            c_syscalls = c_vol = c_rss = c_net = c_io = 0
            c_work = 0.0
            user_ns = system_ns_sum = wait_ns = timeslices = switches = 0

            for i, task in enumerate(on_cpu):
                demand = demands[i]
                granted = demand * scale * dt
                if granted <= 0:
                    continue
                perf_st = perf_state(perf_cgs[i])
                monitored = perf_st.enabled
                if monitored:
                    overhead_s = self._overhead_seconds(
                        task, i, granted, dt, demands, perf_cgs,
                        idle_fraction, contention,
                    )
                else:
                    overhead_s = 0.0
                useful = max(0.0, granted - overhead_s)
                sample = task.workload.consume(useful, dt, freq)
                # Overhead is busy (system) time even though it does no work.
                busy_ns = int(granted * 1e9)
                task.cpu_time_ns += busy_ns
                task.vruntime_ns += busy_ns
                rss = sample.rss_bytes
                task.rss_bytes = rss

                syscalls = sample.syscalls
                system_ns = min(
                    int(busy_ns * 0.8),
                    int(syscalls * 500) + int(overhead_s * 1e9),
                )
                system_ns_sum += system_ns
                user_ns += busy_ns - system_ns

                # Context switches: voluntary from the workload, plus the
                # involuntary preemptions.
                vol = sample.voluntary_switches
                task.nvcsw += vol
                task.nivcsw += invol
                switches += vol + invol

                # waiting time while oversubscribed (for schedstat)
                wait_ns += int(max(0.0, demand * dt - granted) * 1e9)
                timeslices += max(1, vol + invol)

                cpuacct = cpuacct_of(task, cpuacct_root).state
                assert isinstance(cpuacct, CpuAcctState)
                cpuacct.charge(cpu, busy_ns)
                cycles = sample.cycles
                instructions = sample.instructions
                cache = sample.cache_misses
                branch = sample.branch_misses
                if monitored:
                    perf_st.charge(cycles, instructions, cache, branch)
                    monitored_events += cache + branch
                mem_cg = memory_of(task, memory_root)
                mem_state = mem_cg.state
                assert isinstance(mem_state, MemoryState)
                mem_state.set_usage(sum([t.rss_bytes for t in mem_cg.tasks]))

                task_samples.append((task, sample))
                c_cpu_ns += sample.cpu_ns
                c_cycles += cycles
                c_instructions += instructions
                c_cache += cache
                c_branch += branch
                c_syscalls += syscalls
                c_vol += vol
                if rss > c_rss:
                    c_rss = rss
                c_net += sample.net_bytes
                c_io += sample.io_ops
                work = sample.work_units
                c_work = c_work + work
                t_work = t_work + work
                busy_seconds += granted

            stat.system_ns += system_ns_sum
            stat.user_ns += user_ns
            stat.wait_ns += wait_ns
            stat.timeslices += timeslices
            stat.nr_switches += switches
            self.nr_switches_total += switches
            idle_ns = int(max(0.0, dt - busy_seconds) * 1e9)
            stat.idle_ns += idle_ns
            self.idle_ns_total += idle_ns
            busy_by_cpu[cpu] = busy_seconds
            util_by_cpu[cpu] = min(1.0, busy_seconds / dt)
            cpu_samples[cpu] = ActivitySample(
                c_cpu_ns, c_cycles, c_instructions, c_cache, c_branch,
                c_syscalls, c_vol, c_rss, c_net, c_io, c_work,
            )
            t_cpu_ns += c_cpu_ns
            t_cycles += c_cycles
            t_instructions += c_instructions
            t_cache += c_cache
            t_branch += c_branch
            t_syscalls += c_syscalls
            t_vol += c_vol
            if c_rss > t_rss:
                t_rss = c_rss
            t_net += c_net
            t_io += c_io

        result.total = ActivitySample(
            t_cpu_ns, t_cycles, t_instructions, t_cache, t_branch,
            t_syscalls, t_vol, t_rss, t_net, t_io, t_work,
        )
        self._update_loadavg(nr_running, dt)
        self._update_sched_domain_costs(result)
        perf.finish_tick(dt, result.total, monitored_events)
        self._reap_finished()
        return result

    def _update_sched_domain_costs(self, result: TickResult) -> None:
        """Drift max_newidle_lb_cost with per-CPU load, as CFS does.

        The kernel raises the cost estimate when idle balancing finds work
        (busy neighbours) and decays it ~1%/s otherwise; individual balance
        attempts measure wildly varying durations (cache state, lock
        contention), so the estimate is a noisy host-load-correlated
        random-walk — never a constant.
        """
        getrandbits = self._rng.stream("newidle-cost").getrandbits
        dt = result.dt
        decay = 1.0 - 0.01 * dt
        util_of = result.utilization.get
        costs = self.max_newidle_lb_cost
        for cpu in range(self.ncpus):
            util = util_of(cpu, 0.0)
            cost = int(costs[cpu] * decay)
            cost += int(4000 * util * dt)
            cost += randint(getrandbits, -120, 120) + int(
                util * randint(getrandbits, 0, 600)
            )
            costs[cpu] = max(2000, min(cost, 5_000_000))

    # ------------------------------------------------------------------
    # internals

    def _quota_scales(self, dt: float) -> Dict[Task, float]:
        """CFS bandwidth control: per-task demand scale from cpu quotas.

        For each cpu cgroup with a quota, aggregate its runnable demand
        host-wide; when it exceeds the quota, every member's demand is
        scaled down proportionally and the denied time is accounted as
        throttled.
        """
        scales: Dict[Task, float] = {}
        cpu_h = self.cgroups.hierarchy("cpu")
        for cgroup in cpu_h.root.walk():
            state = cgroup.state
            assert isinstance(state, CpuQuotaState)
            if state.quota_cores is None or not cgroup.tasks:
                continue
            runnable = [
                t
                for t in cgroup.tasks
                if t.state is TaskState.RUNNING and t.workload is not None
                and not t.workload.finished
            ]
            total = sum(t.workload.demand() for t in runnable)
            if total <= state.quota_cores or total <= 0:
                continue
            scale = state.quota_cores / total
            for task in runnable:
                scales[task] = scale
            state.throttled_ns += int((total - state.quota_cores) * dt * 1e9)
        return scales

    def _overhead_seconds(
        self,
        task: Task,
        i: int,
        granted: float,
        dt: float,
        demands: List[float],
        perf_cgs: List,
        idle_fraction: float,
        contention: float,
    ) -> float:
        """Perf-accounting overhead charged against a monitored task's grant.

        ``task`` is entry ``i`` of its CPU's runnable list; ``demands``
        and ``perf_cgs`` hold every entry's demand and perf cgroup.
        """
        overhead = granted * contention

        # Pay off any perf-event spawn debt first.
        debt = self._spawn_debt_ns.pop(task, 0)
        if debt:
            overhead += debt / 1e9

        # Counter toggling on inter-cgroup switches: estimate the chance
        # that the context we switch to is outside our perf cgroup. Peers
        # in the same cgroup on this CPU absorb switches cheaply; idle
        # time and foreign tasks force a disable/enable pair.
        phase = task.workload.current_phase if task.workload else None
        if phase is not None and phase.voluntary_switches_per_sec > 0:
            perf_cg = perf_cgs[i]
            same = sum(
                d
                for j, (d, cg) in enumerate(zip(demands, perf_cgs))
                if j != i and cg is perf_cg
            )
            other = sum(
                d
                for j, (d, cg) in enumerate(zip(demands, perf_cgs))
                if j != i and cg is not perf_cg
            )
            denom = same + other + idle_fraction
            p_inter = (other + idle_fraction) / denom if denom > 0 else 1.0
            switches = phase.voluntary_switches_per_sec * dt
            overhead += switches * p_inter * self.perf.tuning.toggle_ns / 1e9
        return min(overhead, granted)

    def _update_loadavg(self, nr_running: float, dt: float) -> None:
        """Exponentially-damped load averages, as the kernel computes them."""
        import math

        for attr, period in (("loadavg_1", 60.0), ("loadavg_5", 300.0), ("loadavg_15", 900.0)):
            decay = math.exp(-dt / period)
            current = getattr(self, attr)
            setattr(self, attr, current * decay + nr_running * (1.0 - decay))

    def _reap_finished(self) -> None:
        for task in [t for t in self._tasks if t.workload is not None and t.workload.finished]:
            task.state = TaskState.SLEEPING
