"""Tasks and the process table.

A :class:`Task` is the simulated ``task_struct``: it carries a *host* pid,
one pid per enclosing PID namespace (Linux gives a process one pid in every
PID namespace on its ancestry chain), a command name, namespace
associations, CPU affinity, scheduling accounting, and — when the container
runtime attaches one — a workload that generates CPU activity each tick.

Task names matter here: several leakage channels (``/proc/sched_debug``,
``/proc/timer_list``, ``/proc/locks``) expose host-global tables keyed by
task name, which is what makes signature implantation (Section III-C) work.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, TYPE_CHECKING

from repro.errors import KernelError
from repro.kernel.namespaces import Namespace, NamespaceType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.workload import Workload


class TaskState(enum.Enum):
    """Coarse task states (enough for scheduler and procfs rendering)."""

    RUNNING = "R"
    SLEEPING = "S"
    DEAD = "X"


@dataclass(eq=False)
class Task:
    """One simulated process/thread."""

    pid: int
    name: str
    namespaces: Dict[NamespaceType, Namespace]
    start_time: float
    #: pid as seen from each PID namespace on the ancestry chain
    ns_pids: Dict[Namespace, int] = field(default_factory=dict)
    state: TaskState = TaskState.RUNNING
    #: allowed CPUs; None means "all" (affinity is the `taskset` knob used
    #: by the paper's indirect-manipulation channels)
    affinity: Optional[FrozenSet[int]] = None
    workload: Optional["Workload"] = None
    #: accumulated CPU time in nanoseconds
    cpu_time_ns: int = 0
    #: voluntary / involuntary context switches
    nvcsw: int = 0
    nivcsw: int = 0
    #: scheduler vruntime proxy (for sched_debug rendering)
    vruntime_ns: int = 0
    #: resident memory footprint in bytes (driven by workload)
    rss_bytes: int = 0

    def pid_in(self, pid_ns: Namespace) -> Optional[int]:
        """The task's pid as seen from ``pid_ns``.

        Returns ``None`` when the task is not visible from that namespace
        (i.e. ``pid_ns`` is not on the task's PID-namespace ancestry chain),
        which is exactly the visibility rule a real PID namespace enforces.
        """
        return self.ns_pids.get(pid_ns)

    def visible_from(self, pid_ns: Namespace) -> bool:
        """Whether the task appears in ``pid_ns``'s process listing."""
        return pid_ns in self.ns_pids

    @property
    def alive(self) -> bool:
        """Whether the task is still in the process table."""
        return self.state is not TaskState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(pid={self.pid}, name={self.name!r}, state={self.state.value})"


class ProcessTable:
    """Host-global process table with per-PID-namespace pid allocation."""

    def __init__(self) -> None:
        self._host_pids = itertools.count(1)
        self._ns_counters: Dict[Namespace, itertools.count] = {}
        self._tasks: Dict[int, Task] = {}

    def _next_pid_in(self, pid_ns: Namespace) -> int:
        counter = self._ns_counters.get(pid_ns)
        if counter is None:
            counter = itertools.count(1)
            self._ns_counters[pid_ns] = counter
        return next(counter)

    def spawn(
        self,
        name: str,
        namespaces: Dict[NamespaceType, Namespace],
        now: float,
        affinity: Optional[FrozenSet[int]] = None,
    ) -> Task:
        """Create a task inside the given namespace set.

        The task receives a pid in its own PID namespace and every ancestor
        PID namespace up to (and including) the root, mirroring
        ``alloc_pid`` in the kernel.
        """
        if NamespaceType.PID not in namespaces:
            raise KernelError(f"task {name!r} has no PID namespace")
        pid_ns = namespaces[NamespaceType.PID]

        ns_pids: Dict[Namespace, int] = {}
        chain: List[Namespace] = []
        ns: Optional[Namespace] = pid_ns
        while ns is not None:
            chain.append(ns)
            ns = ns.parent
        # Allocate from the innermost namespace outward; the root-namespace
        # pid is the host pid.
        for level in chain:
            ns_pids[level] = self._next_pid_in(level)
        host_pid = ns_pids[chain[-1]]

        task = Task(
            pid=host_pid,
            name=name,
            namespaces=dict(namespaces),
            start_time=now,
            ns_pids=ns_pids,
            affinity=affinity,
        )
        self._tasks[host_pid] = task
        return task

    def reap(self, task: Task) -> None:
        """Remove a dead task from the table."""
        if task.pid not in self._tasks:
            raise KernelError(f"task not in table: {task}")
        task.state = TaskState.DEAD
        del self._tasks[task.pid]

    def get(self, host_pid: int) -> Task:
        """Look up a live task by host pid."""
        try:
            return self._tasks[host_pid]
        except KeyError:
            raise KernelError(f"no such pid: {host_pid}")

    def __iter__(self) -> Iterator[Task]:
        return iter(list(self._tasks.values()))

    def __len__(self) -> int:
        return len(self._tasks)

    def tasks_visible_from(self, pid_ns: Namespace) -> List[Task]:
        """All tasks visible from a PID namespace (the ``/proc`` listing)."""
        return [t for t in self._tasks.values() if t.visible_from(pid_ns)]

    def find_by_name(self, name: str) -> List[Task]:
        """All live tasks with the given command name."""
        return [t for t in self._tasks.values() if t.name == name]
