"""Physical topology: server wall power, racks, and PDUs.

RAPL meters the *package* (CPU+DRAM) only; the facility breaker sees wall
power — package plus the platform floor (PSU losses, fans, disks, NICs).
:func:`wall_power_watts` converts one to the other, with the constants
tuned so an 8-server rack spans roughly the 899–1199 W band of Figure 2
under benign diurnal load.
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


class WallPowerCache:
    """Per-tick memo of each server's wall power.

    Wall power is a pure function of a kernel's ``last_tick``, which only
    changes when the kernel executes a tick. A fleet reads it once per
    tick per host: :meth:`repro.datacenter.fleet.FleetSlice.host_watts`
    builds one per-host vector that the breaker feed, the breaker-knee
    coalescing guard and the trace sampler share. That vector asks this
    memo for hot hosts only; cold hosts of a columnar fleet come straight
    from the host engine's wall column. Entries are keyed on
    ``kernel.ticks_taken``, so a clock advance that ticks the kernel
    invalidates its entry automatically and everything between two ticks
    is served from the memo. :meth:`watts` also routes a cold host to the
    wall column, for callers outside the fleet loop.
    """

    def __init__(self, config: Optional[ServerPowerConfig] = None):
        self.config = config or ServerPowerConfig()
        #: id(kernel) -> (ticks_taken at computation, wall watts)
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        #: columnar host engine; cold hosts answer straight from its wall
        #: column (their kernels' ``last_tick`` is frozen mid-deferral)
        self.host_engine = None
        self.cold_hits = 0

    def watts(self, kernel: Kernel) -> float:
        """Wall power of ``kernel`` now (memoized per executed tick)."""
        he = self.host_engine
        if he is not None:
            index = he.index_of(kernel)
            if index is not None and he.is_cold(index):
                self.cold_hits += 1
                return he.wall_watts(index)
        key = id(kernel)
        tick = kernel.ticks_taken
        entry = self._entries.get(key)
        if entry is not None and entry[0] == tick:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = wall_power_watts(kernel, self.config)
        self._entries[key] = (tick, value)
        return value

    def reset(self) -> None:
        """Drop all memo entries (hit/miss counters survive).

        Required after unpickling a checkpoint snapshot: entries are
        keyed on ``id(kernel)``, and the restored process assigns fresh
        ids — a recycled id could alias a stale entry onto a different
        kernel at a matching tick count.
        """
        self._entries.clear()


@dataclass
class Rack:
    """A rack: servers sharing one branch circuit breaker.

    :meth:`wall_power` is the scalar form of the rack total: PDUs use it,
    and the tests use it as the oracle for the fleet's vector form
    (:meth:`repro.datacenter.fleet.FleetSlice.rack_watts`), which folds
    every rack's total from the per-tick host-watts vector and feeds the
    breakers without calling :meth:`observe`.
    """

    name: str
    kernels: List[Kernel]
    breaker: CircuitBreaker
    power_config: ServerPowerConfig = field(default_factory=ServerPowerConfig)
    #: optional shared per-tick memo (fleet drivers install one so the
    #: breaker feed, the coalescing guard, and the sampler agree for free)
    power_cache: Optional[WallPowerCache] = None

    def wall_power(self, exclude: frozenset = frozenset()) -> float:
        """Aggregate wall power of the rack right now.

        ``exclude`` holds ``id(kernel)`` of servers that draw no power
        despite belonging to the rack (crashed machines awaiting reboot).
        """
        if self.power_cache is not None:
            return sum(
                self.power_cache.watts(k)
                for k in self.kernels
                if id(k) not in exclude
            )
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
