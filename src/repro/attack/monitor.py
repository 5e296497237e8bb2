"""RAPL-channel power monitoring from inside a container.

The monitor reads ``energy_uj`` through the leaked sysfs interface,
differentiates successive readings into watts (handling MSR wraparound),
and feeds a crest detector. Reading a pseudo-file costs effectively no CPU
— the property that makes the synergistic attack nearly free to aim
(Section IV-B).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.errors import AttackError, ReproError
from repro.kernel.rapl import MAX_ENERGY_RANGE_UJ, unwrap_delta

#: the RAPL package-0 energy counter, as mounted in a container
DEFAULT_ENERGY_PATH = "/sys/class/powercap/intel-rapl:0/energy_uj"


class RaplPowerMonitor:
    """Watt series derived from a container-visible RAPL counter.

    The monitor survives a flaky channel instead of aborting a campaign
    (degradation contract in ``docs/faults.md``): a failed read opens a
    *gap* and backs off in virtual time (doubling up to ``max_backoff_s``)
    rather than raising; a gap longer than ``max_gap_s`` — or a reading
    whose implied power exceeds ``max_plausible_watts`` (garbage values,
    spurious wraparounds) — re-primes the differentiator and discards the
    sample. ``degradation()`` summarizes what was lost.
    """

    def __init__(
        self,
        instance,
        path: str = DEFAULT_ENERGY_PATH,
        backoff_base_s: float = 1.0,
        max_backoff_s: float = 30.0,
        max_gap_s: float = 120.0,
        max_plausible_watts: float = 50_000.0,
    ):
        self.instance = instance
        self.path = path
        self.backoff_base_s = backoff_base_s
        self.max_backoff_s = max_backoff_s
        self.max_gap_s = max_gap_s
        self.max_plausible_watts = max_plausible_watts
        self._last_uj: Optional[int] = None
        self._last_time: Optional[float] = None
        self.watts: List[float] = []
        self.times: List[float] = []
        #: closed (gap_start, gap_end) windows where no sample landed
        self.gaps: List[Tuple[float, float]] = []
        self.faulted_reads = 0
        self.discarded_samples = 0
        self._gap_start: Optional[float] = None
        self._retry_at = float("-inf")
        self._backoff_s = 0.0

    def available(self) -> bool:
        """Whether the RAPL channel is readable from this instance."""
        try:
            self.instance.read(self.path)
            return True
        except ReproError:
            return False

    def degradation(self) -> dict:
        """Summary of samples lost to channel faults."""
        open_gap = 0.0
        if self._gap_start is not None and self._last_time is not None:
            open_gap = max(0.0, self._last_time - self._gap_start)
        return {
            "faulted_reads": self.faulted_reads,
            "discarded_samples": self.discarded_samples,
            "gap_count": len(self.gaps) + (1 if self._gap_start is not None else 0),
            "gap_seconds": sum(b - a for a, b in self.gaps) + open_gap,
        }

    def _open_gap(self, now: float) -> None:
        if self._gap_start is None:
            self._gap_start = now

    def _close_gap(self, now: float) -> None:
        if self._gap_start is not None:
            self.gaps.append((self._gap_start, now))
            self._gap_start = None

    def _reprime(self, raw: int, now: float) -> None:
        self._last_uj, self._last_time = raw, now

    def sample(self, now: float) -> Optional[float]:
        """Take one reading; returns watts since the previous sample.

        The first call primes the differentiator and returns ``None``;
        so do calls that hit a faulted channel (the gap is recorded).
        Re-sampling at the monitor's last timestamp is an idempotent
        no-op returning the previous value; only time moving *backwards*
        is an error.
        """
        if self._last_time is not None and now <= self._last_time:
            if now == self._last_time:
                return self.watts[-1] if self.watts else None
            raise AttackError(
                f"monitor time went backwards: t={now} after t={self._last_time}"
            )
        if now < self._retry_at:
            return None  # backing off after a failed read
        try:
            raw = int(self.instance.read(self.path).strip())
        except ReproError:
            self.faulted_reads += 1
            self._open_gap(now)
            self._backoff_s = min(
                self.max_backoff_s, max(self.backoff_base_s, 2.0 * self._backoff_s)
            )
            self._retry_at = now + self._backoff_s
            return None
        self._backoff_s = 0.0
        self._retry_at = float("-inf")
        if self._last_uj is None or self._last_time is None:
            self._close_gap(now)
            self._reprime(raw, now)
            return None
        dt = now - self._last_time
        if self._gap_start is not None and dt > self.max_gap_s:
            # the outage outlived the differentiator's usable baseline
            self.discarded_samples += 1
            self._close_gap(now)
            self._reprime(raw, now)
            return None
        self._close_gap(now)
        delta = unwrap_delta(raw, self._last_uj, MAX_ENERGY_RANGE_UJ)
        watts = delta / 1e6 / dt
        self._reprime(raw, now)
        if watts > self.max_plausible_watts:
            # garbage value or spurious wrap: not physical power
            self.discarded_samples += 1
            return None
        self.watts.append(watts)
        self.times.append(now)
        return watts


class ShardMonitorHandle:
    """Driver-side proxy for a monitor living inside a shard worker.

    In parallel fleet mode the monitor object (e.g.
    :class:`RaplPowerMonitor`) is built *inside* the shard worker that
    owns the monitored instance's host — it reads its local kernel's
    RAPL channel directly, like Deterland-style co-located observers.
    The driver holds this handle: :meth:`sample` returns the worker-side
    reading for the current virtual instant (piggybacked on the run's
    final commit, or fetched with an explicit sample frame), and
    :meth:`degradation` pulls the worker monitor's loss summary. The
    handle quacks like the monitor it proxies, so strategies use the two
    interchangeably.
    """

    def __init__(self, engine, observer_id: str, instance_id: str):
        self.engine = engine
        self.observer_id = observer_id
        self.instance_id = instance_id

    def available(self) -> bool:
        """Handles only exist for channels that probed available."""
        return True

    def sample(self, now: float) -> Optional[float]:
        """The shard-resident monitor's reading at the current instant."""
        return self.engine.observer_sample(self.observer_id, now)

    def degradation(self) -> dict:
        """The shard-resident monitor's degradation summary."""
        return self.engine.observer_degradation(self.observer_id)

    def release(self) -> None:
        """Tear down the worker-side monitor.

        The handle is dead afterwards: the engine no longer knows its
        observer id, so sampling it raises.
        """
        self.engine.release_observer(self.observer_id)


@dataclass
class CrestDetector:
    """Online crest detection over a trailing watt window.

    A sample is a crest when it reaches the top ``threshold_fraction`` of
    the band observed over the last ``window`` samples, and the band is
    wide enough (``min_band_watts``) to be signal rather than noise.

    This sits on the attacker's hottest loop (one call per monitor sample
    for hours of virtual time), so the window is a ``deque(maxlen=...)``
    and the band comes from monotonic min/max queues — O(1) amortized per
    sample instead of the O(window) scan-and-``pop(0)`` of a plain list.
    """

    window: int = 300
    threshold_fraction: float = 0.75
    min_band_watts: float = 5.0
    _history: Deque[float] = field(default_factory=deque, repr=False)
    #: monotonic (sample_index, watts) queues: _min_q ascending watts,
    #: _max_q descending watts; the front of each is the window min/max
    _min_q: Deque[Tuple[int, float]] = field(default_factory=deque, repr=False)
    _max_q: Deque[Tuple[int, float]] = field(default_factory=deque, repr=False)
    _count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise AttackError(f"detector window must be >= 1: {self.window}")
        self._history = deque(self._history, maxlen=self.window)

    def observe(self, watts: float) -> bool:
        """Feed one sample; returns True when it qualifies as a crest."""
        self._history.append(watts)  # maxlen evicts the oldest sample
        index = self._count
        self._count += 1
        oldest = index - self.window  # indices <= oldest have aged out
        while self._min_q and self._min_q[-1][1] >= watts:
            self._min_q.pop()
        self._min_q.append((index, watts))
        if self._min_q[0][0] <= oldest:
            self._min_q.popleft()
        while self._max_q and self._max_q[-1][1] <= watts:
            self._max_q.pop()
        self._max_q.append((index, watts))
        if self._max_q[0][0] <= oldest:
            self._max_q.popleft()

        if len(self._history) < max(10, self.window // 10):
            return False  # not enough context yet
        lo = self._min_q[0][1]
        hi = self._max_q[0][1]
        if hi - lo < self.min_band_watts:
            return False
        return watts >= lo + self.threshold_fraction * (hi - lo)

    @property
    def band(self) -> tuple:
        """(low, high) of the current trailing window."""
        if not self._history:
            return (0.0, 0.0)
        return (self._min_q[0][1], self._max_q[0][1])
