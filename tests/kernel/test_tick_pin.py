"""Pin the scalar tick's complete state to one digest.

One two-package :class:`Machine` is driven through every branch of
``Scheduler.tick`` and the post-scheduler stages for 300 ticks with
``dt`` cycling through 1.0, 0.25 and 7.5 seconds, four ticks each (so a
tick both repeats its predecessor's step and changes it):

- an oversubscribed CPU (affinity-pinned tasks) beside idle CPUs;
- a cpu-quota cgroup whose members demand more than its quota;
- a perf-monitored cgroup: spawn debt, counter-toggle overhead with same-
  and foreign-cgroup peers, and event-rate contention;
- multi-phase workloads, one of which finishes mid-run and one of which
  changes phase at an unchanged grant;
- a memory cgroup whose members' RSS rises and falls (the
  ``max_usage_bytes`` high-water mark);
- spawns, a kill and a global rebalance mid-run (placement folds).

Every tick's :class:`TickResult` and the accumulated kernel state are
folded into one sha256. Any change to the tick's arithmetic, its draw
order or its accumulation order moves the digest, so an optimisation of
the tick must leave it exactly where it is.
"""

from __future__ import annotations

import hashlib

from repro.kernel.config import HostConfig
from repro.kernel.kernel import Machine
from repro.runtime.workload import Workload, WorkloadPhase, constant

#: digest of the 300-tick run below; an intended change to the tick's
#: output must update it deliberately
EXPECTED_DIGEST = "a63033b2943d997bc8776ef6fc429b5484c9b01d0469c1357310471dd11cc161"

TICKS = 300
DTS = (1.0, 0.25, 7.5)


def _dt(n):
    return DTS[(n // 4) % len(DTS)]


def _phased(name, *phases):
    return Workload([WorkloadPhase(**p) for p in phases], name=name)


def _build():
    machine = Machine(config=HostConfig(packages=2), seed=20261)
    k = machine.kernel
    cpu2 = frozenset([2])
    cpu5 = frozenset([5])

    # oversubscribed CPU 2: three pinned tasks, 1.8 cores of demand
    for i in range(3):
        k.spawn(
            f"hog{i}",
            workload=constant(
                f"hog{i}", cpu_demand=0.6, ipc=1.2 + 0.1 * i, net_kbps=900.0 * i
            ),
            affinity=cpu2,
        )

    # a cpu-quota cgroup over its quota (1.6 cores wanted, 0.7 allowed)
    quota = k.cgroups.create_group_set("docker/quota")
    quota["cpu"].state.set_quota(0.7)
    for i in range(2):
        k.spawn(
            f"q{i}",
            workload=constant(f"q{i}", cpu_demand=0.8, io_ops_per_sec=40.0),
            cgroup_set=quota,
        )

    # a perf-monitored cgroup: enabled before spawning (spawn debt), two
    # peers and a foreign task sharing CPU 5 (toggle overhead), heavy
    # misses (contention on the next tick)
    perf = k.cgroups.create_group_set("docker/perf")
    k.perf.enable(perf["perf_event"])
    for i in range(2):
        k.spawn(
            f"p{i}",
            workload=constant(
                f"p{i}",
                cpu_demand=0.45,
                cache_miss_per_kinst=30.0,
                branch_miss_per_kinst=12.0,
                voluntary_switches_per_sec=4000.0,
                syscalls_per_sec=9000.0,
            ),
            affinity=cpu5,
            cgroup_set=perf,
        )
    k.spawn(
        "foreign",
        workload=constant("foreign", cpu_demand=0.3, voluntary_switches_per_sec=300.0),
        affinity=cpu5,
    )
    k.spawn(
        "p-free",
        workload=constant("p-free", cpu_demand=0.25, voluntary_switches_per_sec=0.0),
        cgroup_set=perf,
    )

    # a memory cgroup whose members' RSS rises and falls
    mem = k.cgroups.create_group_set("docker/mem")
    k.spawn(
        "mem-a",
        workload=_phased(
            "mem-a",
            dict(duration=40.0, cpu_demand=0.3, rss_mb=50.0),
            dict(duration=60.0, cpu_demand=0.9, rss_mb=700.0, io_ops_per_sec=300.0),
            dict(duration=None, cpu_demand=0.2, rss_mb=20.0),
        ),
        cgroup_set=mem,
    )
    k.spawn(
        "mem-b",
        workload=_phased(
            "mem-b",
            dict(duration=70.0, cpu_demand=0.5, rss_mb=300.0),
            dict(duration=None, cpu_demand=0.1, rss_mb=5.0),
        ),
        cgroup_set=mem,
    )

    # a phase change that keeps the grant: only the phase tells the
    # samples apart
    k.spawn(
        "shift",
        workload=_phased(
            "shift",
            dict(duration=2.0, cpu_demand=0.6, ipc=1.0),
            dict(duration=None, cpu_demand=0.6, ipc=3.0, rss_mb=200.0),
        ),
        affinity=frozenset([7]),
    )

    # a multi-phase workload that finishes mid-run
    k.spawn(
        "batch",
        workload=_phased(
            "batch",
            dict(duration=30.0, cpu_demand=1.0, ipc=2.5, work_rate=3.0),
            dict(duration=45.0, cpu_demand=0.4, ipc=0.7, cache_miss_per_kinst=9.0),
        ),
    )
    return machine


def _state(k):
    sched = k.scheduler
    tasks = sorted(k.processes, key=lambda t: t.pid)
    rows = [
        sorted(sched.cpu_stats.items()),
        (sched.loadavg_1, sched.loadavg_5, sched.loadavg_15),
        sorted(sched.max_newidle_lb_cost.items()),
        (sched.total_forks, sched.nr_switches_total, sched.idle_ns_total),
        [
            (
                t.pid,
                t.state.name,
                sched.placement_of(t),
                t.cpu_time_ns,
                t.vruntime_ns,
                t.nvcsw,
                t.nivcsw,
                t.rss_bytes,
                None if t.workload is None else t.workload.total,
                None if t.workload is None else t.workload.finished,
            )
            for t in tasks
        ],
        k.perf.host_counters,
        k.perf.monitored_event_rate,
    ]
    for controller in ("cpuacct", "perf_event", "memory", "cpu"):
        for cg in k.cgroups.hierarchy(controller).root.walk():
            state = cg.state
            if controller == "cpuacct":
                rows.append((cg.path, state.usage_ns, sorted(state.per_cpu_ns.items())))
            elif controller == "perf_event":
                rows.append((cg.path, state.enabled, state.counters))
            elif controller == "memory":
                rows.append((cg.path, state.usage_bytes, state.max_usage_bytes))
            else:
                rows.append((cg.path, state.quota_cores, state.throttled_ns))
    rows.append([[(s.name, s.usage, s.time_us) for s in c.states] for c in k.cpuidle.cpus])
    rows.append(k.interrupts.rows())
    rows.append(sorted(k.interrupts.softirqs.items()))
    mem = k.memory
    rows.append(
        (
            sorted(mem.pcp_count.items()),
            mem.task_rss_pages,
            mem.page_cache_pages,
            [
                (
                    n.numa_hit,
                    n.numa_miss,
                    n.local_node,
                    n.other_node,
                    [z.free_pages for z in n.zones],
                )
                for n in mem.nodes
            ],
        )
    )
    rows.append([s.temp_c for s in k.thermal.sensors])
    rows.append(
        [[d._energy_uj for d in pkg.domains()] for pkg in k.rapl.packages]
    )
    return rows


def _tick_rows(result):
    return (
        result.dt,
        result.total,
        sorted(result.cpu_samples.items()),
        sorted(result.busy_seconds.items()),
        sorted(result.utilization.items()),
        [(task.pid, sample) for task, sample in result.task_samples],
    )


def _run():
    """The pinned run: yields the kernel after each tick, with the tick's result."""
    machine = _build()
    k = machine.kernel
    for n in range(TICKS):
        if n == 100:
            for i in range(2):
                k.spawn(
                    f"late{i}",
                    workload=constant(f"late{i}", cpu_demand=0.7, rss_mb=90.0),
                )
        if n == 150:
            k.scheduler.rebalance()
        if n == 200:
            victim = k.processes.find_by_name("hog1")[0]
            k.kill(victim)
        dt = _dt(n)
        machine.clock.advance(dt)
        yield k, k.tick(dt)


def run_digest() -> str:
    digest = hashlib.sha256()
    for k, result in _run():
        digest.update(repr(_tick_rows(result)).encode())
        digest.update(repr(_state(k)).encode())
    return digest.hexdigest()


def test_scalar_tick_state_is_pinned():
    assert run_digest() == EXPECTED_DIGEST


def test_pinned_run_reaches_every_branch():
    seen = dict.fromkeys(("oversubscribed", "idle cpu", "contention"), False)
    for k, result in _run():
        seen["oversubscribed"] |= k.scheduler.cpu_stats[2].wait_ns > 0
        seen["idle cpu"] |= any(u == 0.0 for u in result.utilization.values())
        seen["contention"] |= k.perf.monitored_event_rate > 0
    assert all(seen.values()), seen
    quota = k.cgroups.hierarchy("cpu").lookup("/docker/quota").state
    assert quota.throttled_ns > 0
    mem = k.cgroups.hierarchy("memory").lookup("/docker/mem").state
    assert 0 < mem.usage_bytes < mem.max_usage_bytes
    assert k.processes.find_by_name("batch")[0].workload.finished
