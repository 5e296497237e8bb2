"""Physical topology: server wall power, racks, and PDUs.

RAPL meters the *package* (CPU+DRAM) only; the facility breaker sees wall
power — package plus the platform floor (PSU losses, fans, disks, NICs).
:func:`wall_power_watts` converts one to the other, with the constants
tuned so an 8-server rack spans roughly the 899–1199 W band of Figure 2
under benign diurnal load. A fleet reads every host's wall power at
most once per tick, through
:meth:`repro.datacenter.fleet.FleetSlice.host_watts`, which keeps the
vector until a wall can have moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.datacenter.breaker import BreakerState, CircuitBreaker
from repro.errors import SimulationError
from repro.kernel.kernel import Kernel


@dataclass(frozen=True)
class ServerPowerConfig:
    """Package-to-wall power conversion for one server model."""

    #: platform power independent of CPU/DRAM activity (fans, PSU, disks)
    platform_base_watts: float = 95.0
    #: wall watts per package watt (PSU efficiency + VRM losses)
    package_scaling: float = 1.0

    def __post_init__(self) -> None:
        if self.platform_base_watts < 0 or self.package_scaling <= 0:
            raise SimulationError("implausible server power config")


def package_power_watts(kernel: Kernel) -> float:
    """Ground-truth package power of one host from its last tick."""
    return kernel.host_package_watts()


def wall_power_watts(
    kernel: Kernel, config: Optional[ServerPowerConfig] = None
) -> float:
    """Wall power of one server (what the branch breaker sees)."""
    cfg = config or ServerPowerConfig()
    return cfg.platform_base_watts + cfg.package_scaling * package_power_watts(kernel)


@dataclass
class Rack:
    """A rack: servers sharing one branch circuit breaker.

    :meth:`wall_power` is the scalar form of the rack total, computed
    from the rack's kernels: PDUs use it, and the tests use it as the
    oracle for the fleet's vector form on object hosts
    (:meth:`repro.datacenter.fleet.FleetSlice.rack_watts`), which folds
    every rack's total from the per-tick host-watts vector and feeds the
    breakers without calling :meth:`observe`. A columnar fleet's cold
    kernels are frozen mid-deferral, so only that vector reads them.
    """

    name: str
    kernels: List[Kernel]
    breaker: CircuitBreaker
    power_config: ServerPowerConfig = field(default_factory=ServerPowerConfig)

    def wall_power(self, exclude: frozenset = frozenset()) -> float:
        """Aggregate wall power of the rack right now.

        ``exclude`` holds ``id(kernel)`` of servers that draw no power
        despite belonging to the rack (crashed machines awaiting reboot).
        """
        return sum(
            wall_power_watts(k, self.power_config)
            for k in self.kernels
            if id(k) not in exclude
        )

    def observe(
        self, dt: float, now: float, exclude: frozenset = frozenset()
    ) -> BreakerState:
        """Feed the current load into the breaker."""
        return self.breaker.observe(self.wall_power(exclude), dt, now)

    @property
    def oversubscription_ratio(self) -> float:
        """Peak-capable load over breaker rating (>1 means oversubscribed).

        Peak per server is estimated as platform base plus every core
        running a power-virus-grade workload (~20 W/core in the default
        power model) plus loaded DRAM.
        """
        peak_per_server = [
            self.power_config.platform_base_watts
            + self.power_config.package_scaling
            * (
                k.power.idle_package_watts()
                + 20.0 * k.config.total_cores
            )
            for k in self.kernels
        ]
        return sum(peak_per_server) / self.breaker.rated_watts


@dataclass
class PDU:
    """A power distribution unit feeding several racks."""

    name: str
    racks: List[Rack]
    breaker: CircuitBreaker

    def wall_power(self) -> float:
        """Aggregate power over all racks."""
        return sum(rack.wall_power() for rack in self.racks)

    def observe(self, dt: float, now: float) -> BreakerState:
        """Feed rack breakers first, then the PDU breaker (selectivity)."""
        for rack in self.racks:
            rack.observe(dt, now)
        live = sum(
            rack.wall_power() for rack in self.racks if not rack.breaker.tripped
        )
        return self.breaker.observe(live, dt, now)
