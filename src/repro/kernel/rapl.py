"""Intel RAPL: the powercap energy counters behind
``/sys/class/powercap/intel-rapl:*/energy_uj``.

Case Study II of the paper: the RAPL driver's ``get_energy_counter`` reads
the package MSR with no notion of namespaces, so a container reads the
*host's* accumulated energy. That single counter is both the highest-value
attack channel (it reveals the host's power crests to a synergistic
attacker) and the interface the defense re-implements per container.

Counters are microjoule accumulators that wrap at
``max_energy_range_uj``, exactly like the 32-bit-scaled hardware MSR; all
consumers must handle wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import KernelError
from repro.kernel.config import HostConfig
from repro.kernel.power import EnergyBreakdown
from repro.sim.rng import DeterministicRNG

#: the value reported by real Skylake hardware
MAX_ENERGY_RANGE_UJ = 262_143_328_850


@dataclass
class RaplDomain:
    """One RAPL domain (package, core, or dram)."""

    name: str
    sysfs_name: str
    max_energy_range_uj: int = MAX_ENERGY_RANGE_UJ
    #: which physical package this domain belongs to
    package_id: int = 0
    _energy_uj: float = 0.0

    def accumulate(self, joules: float) -> None:
        """Add energy; the counter wraps like the hardware MSR."""
        if joules < 0:
            raise KernelError(f"negative energy increment: {joules}")
        self._energy_uj = (self._energy_uj + joules * 1e6) % self.max_energy_range_uj

    @property
    def energy_uj(self) -> int:
        """The integer microjoule value ``energy_uj`` reports."""
        return int(self._energy_uj)


@dataclass
class RaplPackage:
    """One package with its core and dram subdomains."""

    package_id: int
    package: RaplDomain = field(init=False)
    core: RaplDomain = field(init=False)
    dram: RaplDomain = field(init=False)

    def __post_init__(self) -> None:
        pid = self.package_id
        self.package = RaplDomain(
            name=f"package-{pid}", sysfs_name=f"intel-rapl:{pid}", package_id=pid
        )
        self.core = RaplDomain(
            name="core", sysfs_name=f"intel-rapl:{pid}:0", package_id=pid
        )
        self.dram = RaplDomain(
            name="dram", sysfs_name=f"intel-rapl:{pid}:1", package_id=pid
        )

    def domains(self) -> List[RaplDomain]:
        """All domains of this package (package first)."""
        return [self.package, self.core, self.dram]


class RaplSubsystem:
    """The host's RAPL counters (absent on pre-Sandy-Bridge / AMD hosts)."""

    def __init__(self, config: HostConfig, rng: DeterministicRNG):
        self.present = config.has_rapl
        self._noise_fraction = config.power.noise_fraction
        self._rng = rng
        #: accumulate-call cursor: draw ``n`` of ``rapl-noise-{pid}`` is
        #: the noise of call ``n``, so a replay that ticks a cold host
        #: late draws what the never-deferred run drew
        self._noise_calls = 0
        self.packages: List[RaplPackage] = (
            [RaplPackage(package_id=p) for p in range(config.packages)]
            if self.present
            else []
        )

    def package(self, package_id: int) -> RaplPackage:
        """One package's domains."""
        if not self.present:
            raise KernelError("RAPL not supported on this host")
        try:
            return self.packages[package_id]
        except IndexError:
            raise KernelError(f"no such package: {package_id}")

    def accumulate(self, per_package: Dict[int, EnergyBreakdown]) -> None:
        """Feed one tick's ground-truth energy into the counters.

        A small multiplicative measurement noise models MSR quantization
        and sensor error; the defense's calibration step has to cope with
        it, as the paper's does.
        """
        if not self.present:
            return
        index = self._noise_calls
        self._noise_calls = index + 1
        for package_id, energy in per_package.items():
            stream = self._rng.keyed(f"rapl-noise-{package_id}")
            noisy = 1.0 + stream.gauss(index, self._noise_fraction)
            noisy = max(0.5, noisy)
            pkg = self.packages[package_id]
            pkg.core.accumulate(energy.core_j * noisy)
            pkg.dram.accumulate(energy.dram_j * noisy)
            pkg.package.accumulate(energy.package_j * noisy)

    def total_package_energy_uj(self) -> int:
        """Sum of package counters (convenience for monitors).

        Note: each addend wraps independently; callers sampling deltas
        must diff successive readings per package for exactness. For the
        monitoring cadences used in the experiments, wraps are rare.
        """
        if not self.present:
            raise KernelError("RAPL not supported on this host")
        return sum(pkg.package.energy_uj for pkg in self.packages)


def unwrap_delta(later_uj: int, earlier_uj: int, max_range: int = MAX_ENERGY_RANGE_UJ) -> int:
    """Microjoules elapsed between two wrapped counter readings."""
    delta = later_uj - earlier_uj
    if delta < 0:
        delta += max_range
    return delta
