"""Core temperature sensors behind
``/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input``.

Per-core Digital Temperature Sensor readings follow utilization with a
first-order thermal lag. The channel is host-global: a tenant who pins a
hot loop to a core with ``taskset`` raises a temperature every co-resident
container can read — the paper's example of *indirect* manipulation
(metric M = half-filled) and a classic thermal covert channel substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import KernelError
from repro.kernel.scheduler import TickResult
from repro.sim.rng import DeterministicRNG, keyed_gauss_array


@dataclass
class CoreSensor:
    """One core's DTS reading."""

    core: int
    temp_c: float

    @property
    def millidegrees(self) -> int:
        """The integer millidegree value sysfs reports."""
        return int(self.temp_c * 1000)


class ThermalSubsystem:
    """First-order thermal model per core."""

    AMBIENT_C = 36.0
    #: °C above ambient at 100% sustained utilization
    FULL_LOAD_DELTA_C = 32.0
    #: thermal time constant (seconds)
    TAU_S = 12.0
    #: package-level coupling: neighbours heat each other
    COUPLING = 0.25

    #: sensor-noise sigma (°C per tick)
    NOISE_SIGMA = 0.3

    def __init__(self, ncpus: int, rng: DeterministicRNG, present: bool = True):
        self.present = present
        self._rng = rng
        #: tick cursor: draw ``n`` of ``temp-noise-{core}`` is the noise
        #: of tick ``n`` — index-addressed, so a replay that ticks a cold
        #: host late draws what the never-deferred run drew
        self._noise_calls = 0
        #: keys of the ``temp-noise-{core}`` streams in sensor order, built
        #: at the first tick (cold columnar hosts never tick this object)
        self._noise_keys: Optional[np.ndarray] = None
        self.sensors: List[CoreSensor] = [
            CoreSensor(core=c, temp_c=self.AMBIENT_C) for c in range(ncpus)
        ]

    def sensor(self, core: int) -> CoreSensor:
        """The DTS of one core."""
        if not self.present:
            raise KernelError("no coretemp sensors on this host")
        try:
            return self.sensors[core]
        except IndexError:
            raise KernelError(f"no such core: {core}")

    def package_temp(self) -> float:
        """The package sensor (max of cores, as coretemp reports)."""
        return max(s.temp_c for s in self.sensors)

    def tick(self, result: TickResult) -> None:
        """Relax each core toward its utilization-driven target."""
        if not self.present:
            return
        dt = result.dt
        mean_util = (
            sum(result.utilization.values()) / len(self.sensors)
            if result.utilization
            else 0.0
        )
        alpha = min(1.0, dt / self.TAU_S)
        index = self._noise_calls
        self._noise_calls = index + 1
        keys = self._noise_keys
        if keys is None:
            keys = self._noise_keys = np.array(
                [self._rng.keyed(f"temp-noise-{s.core}").key for s in self.sensors],
                dtype=np.uint64,
            )
        # one vector draw for every core: element c equals the scalar
        # keyed_gauss of stream temp-noise-{c} bit for bit
        noises = keyed_gauss_array(keys, index, self.NOISE_SIGMA).tolist()
        for sensor, noise in zip(self.sensors, noises):
            util = result.utilization.get(sensor.core, 0.0)
            effective = (1 - self.COUPLING) * util + self.COUPLING * mean_util
            target = self.AMBIENT_C + self.FULL_LOAD_DELTA_C * effective
            sensor.temp_c += (target - sensor.temp_c) * alpha + noise * alpha
