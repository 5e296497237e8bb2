"""Covert channels over leaked time-varying pseudo-files.

Table II's M=◐ cells mark channels a tenant can influence *indirectly* —
"an attacker can use taskset to bond a computing-intensive workload to a
specific core, and check the CPU utilization, power consumption, or
temperature from another container. Those entries could be exploited by
advanced attackers as covert channels to transmit signals."

This module weaponizes that observation: a :class:`CovertSender` inside
one container modulates pinned CPU load (on-off keying, one bit per
symbol period); a :class:`CovertReceiver` in a co-resident container
samples a leaked channel and demodulates by thresholding per-symbol
means. Works over any numeric leaked channel; the defaults use the
host-global load average of ``/proc/loadavg``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.errors import AttackError, ReproError
from repro.runtime.container import Container
from repro.runtime.workload import constant


def loadavg_extractor(content: str) -> float:
    """The 1-minute load average — too slow for fast symbols; use the
    running/total field instead, which reacts instantly."""
    match = re.match(r"^([\d.]+) [\d.]+ [\d.]+ (\d+)/\d+", content)
    if match is None:
        raise AttackError(f"malformed loadavg: {content!r}")
    return float(match.group(2))  # number of running tasks: host-global


@dataclass(frozen=True)
class CovertConfig:
    """Modulation parameters shared by sender and receiver."""

    #: leaked channel to carry the signal
    path: str = "/proc/loadavg"
    extractor: Callable[[str], float] = loadavg_extractor
    #: seconds per transmitted bit
    symbol_period_s: float = 4.0
    #: receiver samples per symbol
    samples_per_symbol: int = 4
    #: sender load during a '1' symbol, in cores
    carrier_cores: int = 4

    @property
    def bits_per_second(self) -> float:
        return 1.0 / self.symbol_period_s


class CovertSender:
    """Transmits bits by modulating CPU load inside one container."""

    def __init__(self, container: Container, config: CovertConfig = CovertConfig()):
        self.container = container
        self.config = config

    def transmit(self, bits: Sequence[int], run) -> None:
        """Send ``bits``; ``run(seconds)`` advances the shared simulation.

        For each '1' symbol the sender runs ``carrier_cores`` hot tasks
        for one symbol period; for '0' it idles. The receiver must be
        sampling concurrently (drive both from the same ``run``).
        """
        for bit in bits:
            if bit not in (0, 1):
                raise AttackError(f"bits must be 0/1: {bit}")
            if bit:
                for i in range(self.config.carrier_cores):
                    self.container.exec(
                        f"carrier-{i}",
                        workload=constant(
                            "carrier",
                            cpu_demand=1.0,
                            ipc=2.0,
                            duration=self.config.symbol_period_s,
                        ),
                    )
                run(self.config.symbol_period_s)
                self.container.reap_finished()
            else:
                run(self.config.symbol_period_s)


class CovertReceiver:
    """Recovers bits from a leaked channel in a co-resident container."""

    def __init__(self, container: Container, config: CovertConfig = CovertConfig()):
        self.container = container
        self.config = config
        self.samples: List[float] = []

    def sample(self) -> None:
        """Take one channel reading (call between simulation steps)."""
        try:
            content = self.container.read(self.config.path)
        except ReproError as exc:
            raise AttackError(f"covert channel unreadable: {exc}") from exc
        self.samples.append(self.config.extractor(content))

    def demodulate(self, nbits: int) -> List[int]:
        """Threshold per-symbol means into bits.

        The threshold is the midpoint of the observed range, so the
        receiver needs at least one 0 and one 1 in the frame (standard
        preamble practice; the tests transmit framed patterns).
        """
        per_symbol = self.config.samples_per_symbol
        needed = nbits * per_symbol
        if len(self.samples) < needed:
            raise AttackError(
                f"not enough samples: have {len(self.samples)}, need {needed}"
            )
        window = self.samples[-needed:]
        means = [
            sum(window[i * per_symbol : (i + 1) * per_symbol]) / per_symbol
            for i in range(nbits)
        ]
        lo, hi = min(means), max(means)
        if hi - lo < 1e-9:
            return [0] * nbits  # no modulation seen
        threshold = (lo + hi) / 2.0
        return [1 if m > threshold else 0 for m in means]


def run_transfer(
    machine_run,
    sender: CovertSender,
    receiver: CovertReceiver,
    bits: Sequence[int],
) -> List[int]:
    """Drive a full framed transfer and return the received bits.

    ``machine_run(seconds)`` advances the shared simulation; the helper
    interleaves sender symbols with receiver sampling at the configured
    rate.
    """
    config = sender.config
    sample_gap = config.symbol_period_s / config.samples_per_symbol

    def run_and_sample(seconds: float) -> None:
        remaining = seconds
        while remaining > 1e-9:
            step = min(sample_gap, remaining)
            machine_run(step)
            receiver.sample()
            remaining -= step

    sender.transmit(bits, run_and_sample)
    return receiver.demodulate(len(bits))
