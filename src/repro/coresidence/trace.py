"""Snapshot-trace correlation: co-residence from time-varying channels.

Two containers record a channel (say ``MemFree``) once per second for a
minute, starting at the same time; matching traces mean they watched the
same physical memory fluctuate (Section III-C, the V metric's use). Works
even when every static identifier is masked — the CC5 scenario — provided
some host-coupled counter remains readable.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence

from repro.analysis.traces import correlate
from repro.errors import AttackError, ReproError


def memfree_extractor(content: str) -> float:
    """Pull MemFree (kB) out of a /proc/meminfo rendering."""
    match = re.search(r"MemFree:\s+(\d+)\s*kB", content)
    if match is None:
        raise AttackError("no MemFree field in meminfo content")
    return float(match.group(1))


class TraceCorrelator:
    """Simultaneous two-instance trace sampling + correlation."""

    def __init__(
        self,
        path: str = "/proc/meminfo",
        extractor: Callable[[str], float] = memfree_extractor,
        samples: int = 60,
        interval_s: float = 1.0,
        threshold: float = 0.9,
        warmup_s: float = 5.0,
    ):
        if samples < 3:
            raise AttackError(f"need at least 3 samples: {samples}")
        self.path = path
        self.extractor = extractor
        self.samples = samples
        self.interval_s = interval_s
        self.threshold = threshold
        #: settle time before sampling: correlated launch transients
        #: (instance startup allocations) would otherwise pollute both
        #: traces with a common artifact
        self.warmup_s = warmup_s

    def collect(self, cloud, instance_a, instance_b) -> tuple:
        """Sample both instances in lockstep; returns (trace_a, trace_b).

        Sampling advances the shared cloud clock, so the two reads of each
        round really happen at the same instant — the paper's "starting
        from the same time".
        """
        if self.warmup_s > 0:
            cloud.run(self.warmup_s, dt=self.interval_s)
        trace_a: List[float] = []
        trace_b: List[float] = []
        for _ in range(self.samples):
            trace_a.append(self._sample(instance_a))
            trace_b.append(self._sample(instance_b))
            cloud.run(self.interval_s, dt=self.interval_s)
        return trace_a, trace_b

    def _sample(self, instance) -> float:
        try:
            return self.extractor(instance.read(self.path))
        except ReproError as exc:
            raise AttackError(
                f"channel {self.path} unreadable while tracing: {exc}"
            ) from exc

    def score(self, trace_a: Sequence[float], trace_b: Sequence[float]) -> float:
        """Trace-match score in [0, 1]."""
        return correlate(trace_a, trace_b)

    def verify(self, cloud, instance_a, instance_b) -> bool:
        """Full check: sample then decide against the threshold."""
        trace_a, trace_b = self.collect(cloud, instance_a, instance_b)
        return self.score(trace_a, trace_b) >= self.threshold
