"""Interrupt and softirq accounting (``/proc/interrupts``,
``/proc/softirqs``, and ``/proc/stat``'s ``intr``/``softirq`` lines).

Interrupt counters are host-global in Linux — there is no namespace for
them — so a container watching the per-CPU deltas sees the host's timer
cadence, network traffic, and disk activity: a high-entropy co-residence
trace (Table II ranks both files with V=True, M=half).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.kernel.config import HostConfig
from repro.kernel.scheduler import TickResult

SOFTIRQ_NAMES = (
    "HI",
    "TIMER",
    "NET_TX",
    "NET_RX",
    "BLOCK",
    "IRQ_POLL",
    "TASKLET",
    "SCHED",
    "HRTIMER",
    "RCU",
)


@dataclass
class IrqLine:
    """One IRQ source with per-CPU counters."""

    irq: str
    description: str
    per_cpu: List[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.per_cpu)


class InterruptSubsystem:
    """Host-global IRQ and softirq counters."""

    def __init__(self, config: HostConfig):
        self.config = config
        ncpus = config.total_cores

        def line(irq: str, description: str) -> IrqLine:
            return IrqLine(irq=irq, description=description, per_cpu=[0] * ncpus)

        self.lines: List[IrqLine] = [line("0", "IO-APIC   2-edge      timer")]
        for i, disk in enumerate(config.disks):
            self.lines.append(line(str(16 + i), f"PCI-MSI 512000-edge      ahci[{disk}]"))
        irq_no = 24
        for iface in config.net_interfaces:
            if iface in ("lo", "docker0"):
                continue
            for queue in range(2):
                self.lines.append(
                    line(str(irq_no), f"PCI-MSI 327680-edge      {iface}-TxRx-{queue}")
                )
                irq_no += 1
        self.lines.append(line("LOC", "Local timer interrupts"))
        self.lines.append(line("RES", "Rescheduling interrupts"))
        self.lines.append(line("CAL", "Function call interrupts"))
        self.lines.append(line("TLB", "TLB shootdowns"))

        self._by_irq: Dict[str, IrqLine] = {ln.irq: ln for ln in self.lines}
        self.softirqs: Dict[str, List[int]] = {
            name: [0] * ncpus for name in SOFTIRQ_NAMES
        }
        # the lines and rows each tick touches, resolved once
        self._queues = [ln for ln in self.lines if "-TxRx-" in ln.description]
        self._disks = [ln for ln in self.lines if "ahci" in ln.description]
        self._loc = self._by_irq["LOC"].per_cpu
        self._res = self._by_irq["RES"].per_cpu
        sirq = self.softirqs
        self._timer, self._rcu = sirq["TIMER"], sirq["RCU"]
        self._sched, self._hrtimer = sirq["SCHED"], sirq["HRTIMER"]

    def irq(self, name: str) -> IrqLine:
        """Look up one IRQ line (KeyError surfaces programming errors)."""
        return self._by_irq[name]

    @property
    def total_interrupts(self) -> int:
        """Sum over all IRQ lines (the first field of /proc/stat intr)."""
        return sum(ln.total for ln in self.lines)

    @property
    def total_softirqs(self) -> int:
        return sum(sum(v) for v in self.softirqs.values())

    def tick(self, result: TickResult) -> None:
        """Advance interrupt counters from one scheduler tick."""
        dt = result.dt
        ncpus = self.config.total_cores
        hz_ticks = int(self.config.hz * dt)
        util_of = result.utilization.get

        loc, timer, rcu = self._loc, self._timer, self._rcu
        sched, hrtimer = self._sched, self._hrtimer
        hrtimer_ticks = int(hz_ticks * 0.01)
        for cpu in range(ncpus):
            # tickless idle: idle CPUs take far fewer local timer interrupts
            util = util_of(cpu, 0.0)
            timer_ticks = max(1, int(hz_ticks * (0.08 + 0.92 * util)))
            loc[cpu] += timer_ticks
            timer[cpu] += timer_ticks
            rcu[cpu] += max(1, int(hz_ticks * 0.5 * (0.1 + 0.9 * util)))
            sched[cpu] += max(0, int(hz_ticks * util * 0.6))
            hrtimer[cpu] += hrtimer_ticks

        # Network interrupts: ~1 IRQ per 16KB of traffic, spread over queues.
        net_irqs = result.total.net_bytes // 16384
        queues = self._queues
        if queues and net_irqs:
            per_queue = net_irqs // len(queues)
            for i, q in enumerate(queues):
                cpu = i % ncpus
                q.per_cpu[cpu] += per_queue
                self.softirqs["NET_RX"][cpu] += per_queue
                self.softirqs["NET_TX"][cpu] += per_queue // 2

        # Disk interrupts: one per IO completion.
        disk_lines = self._disks
        if disk_lines and result.total.io_ops:
            per_disk = result.total.io_ops // len(disk_lines)
            for i, d in enumerate(disk_lines):
                cpu = i % ncpus
                d.per_cpu[cpu] += per_disk
                self.softirqs["BLOCK"][cpu] += per_disk

        # Rescheduling IPIs follow context switches across CPUs.
        res = self._res
        switches = sum(s.voluntary_switches for _, s in result.task_samples)
        per_cpu = switches // max(1, ncpus)
        for cpu in range(ncpus):
            res[cpu] += per_cpu

    def rows(self) -> List[Tuple[str, List[int], str]]:
        """(irq, per-cpu counts, description) rows for rendering."""
        return [(ln.irq, list(ln.per_cpu), ln.description) for ln in self.lines]
