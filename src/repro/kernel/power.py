"""The host's ground-truth power behaviour.

This is the "hardware": it converts each tick's activity into joules for
the core, DRAM, and package RAPL domains using the
:class:`repro.kernel.config.PowerModelParams` of the host. The defense's
*software* model (``repro.defense.modeling``) must learn an approximation
of this mapping from perf counters — it never sees these parameters.

The linearity structure is chosen to match the paper's measurements:
energy is linear in retired instructions *within* a workload (Figure 6,
slope set by the workload's IPC and miss mix) and DRAM energy is linear in
LLC misses across workloads (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.config import HostConfig
from repro.kernel.scheduler import TickResult


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules consumed during one tick, by RAPL domain, per package."""

    core_j: float
    dram_j: float
    uncore_j: float

    @property
    def package_j(self) -> float:
        """Package = core + DRAM-controller + uncore, as RAPL sums it."""
        return self.core_j + self.dram_j + self.uncore_j


class PowerModel:
    """Activity → energy conversion for one host."""

    def __init__(self, config: HostConfig):
        self.config = config
        self.params = config.power
        self._cpu_to_package = {
            cpu: cpu // config.cpu.cores for cpu in range(config.total_cores)
        }
        #: (last TickResult, its tick_energy) — see :meth:`tick_energy`
        self._memo: Optional[Tuple[TickResult, Dict[int, EnergyBreakdown]]] = None

    def package_of(self, cpu: int) -> int:
        """Which package a CPU belongs to."""
        try:
            return self._cpu_to_package[cpu]
        except KeyError:
            raise KernelError(f"no such cpu: {cpu}")

    def tick_energy(self, result: TickResult) -> Dict[int, EnergyBreakdown]:
        """Energy per package for one tick (static + dynamic).

        Each tick's energy is asked for twice (the RAPL stage and the wall
        power read), so the last result is memoized on the identity of
        its :class:`TickResult`; callers must not mutate the returned map.
        """
        memo = self._memo
        if memo is not None and memo[0] is result:
            return memo[1]
        p = self.params
        dt = result.dt
        packages = self.config.packages
        core_j: List[float] = [p.core_idle_watts * dt] * packages
        dram_j: List[float] = [p.dram_idle_watts * dt] * packages
        uncore_j: List[float] = [p.uncore_watts * dt] * packages

        per_cycle = p.energy_per_cycle
        per_cache_miss = p.energy_per_cache_miss
        per_branch_miss = p.energy_per_branch_miss
        dram_per_miss = p.dram_energy_per_miss
        for cpu, sample in result.cpu_samples.items():
            pkg = self.package_of(cpu)
            # each CPU's dynamic energy, added to its package's static part
            cache_misses = sample.cache_misses
            core_j[pkg] += (
                per_cycle * sample.cycles
                + per_cache_miss * cache_misses
                + per_branch_miss * sample.branch_misses
            )
            dram_j[pkg] += dram_per_miss * cache_misses

        energy = {
            pkg: EnergyBreakdown(
                core_j=core_j[pkg], dram_j=dram_j[pkg], uncore_j=uncore_j[pkg]
            )
            for pkg in range(packages)
        }
        self._memo = (result, energy)
        return energy

    def idle_package_watts(self) -> float:
        """Package power of a completely idle package."""
        p = self.params
        return p.core_idle_watts + p.dram_idle_watts + p.uncore_watts
