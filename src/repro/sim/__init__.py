"""Simulation core: virtual time, deterministic randomness, fast-forwarding.

Everything in the reproduction runs against a :class:`VirtualClock` — no
wall-clock time is ever consulted, so every experiment is deterministic and
can simulate a week of datacenter time in seconds.
"""

from repro.sim.clock import VirtualClock
from repro.sim.fastforward import FastForwardEngine, StabilityTracker
from repro.sim.metrics import SimMetrics
from repro.sim.rng import DeterministicRNG

__all__ = [
    "VirtualClock",
    "DeterministicRNG",
    "FastForwardEngine",
    "StabilityTracker",
    "SimMetrics",
]
