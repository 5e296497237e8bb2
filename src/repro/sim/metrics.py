"""Simulation instrumentation facades over :mod:`repro.obs.registry`.

The fleet experiments advance millions of kernel ticks; knowing *where*
those ticks go (how many were coalesced away, what the parallel barriers
cost) is what turns "the simulator feels slow" into an actionable
profile.

``SimMetrics`` and ``IpcMetrics`` are thin facades over typed
:class:`~repro.obs.registry.MetricRegistry` instruments: plain attribute
APIs and ``render()`` blocks, but every number also lives in one
queryable registry (``sim.metrics.registry``) that the ``repro metrics``
CLI and exporters read uniformly. Each facade resolves its instruments
once at construction, so per-tick updates stay plain attribute
arithmetic. The per-subsystem wall profile is not kept here: the
``repro metrics`` command measures it with :mod:`cProfile` and writes it
into the same registry.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

from repro.obs.registry import MetricRegistry

#: bucket bounds for executed-tick sizes (virtual seconds)
STEP_BOUNDS = (1.0, 2.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 7200.0)

#: bucket bounds for per-frame driver barrier waits (wall seconds)
BARRIER_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)

#: retained per-tick round-trip samples for the p50 estimate (bounded
#: so week-long campaigns cannot grow driver memory; a full list is
#: decimated, so the kept samples still span the whole run)
_ROUND_TRIP_CAP = 65536


class IpcMetrics:
    """IPC accounting for one rack-sharded parallel run.

    Maintained by the parallel driver (``repro.sim.parallel``): control
    frames are the pickled command/reply tuples on the shard pipes, the
    only IPC channel, so their bytes include every sampled row and
    instance read the replies carry. ``barrier_wait_s`` is the
    driver's cumulative wall time blocked waiting for each shard's
    reply, collected in shard order, so shard 0 absorbs most of every
    barrier's compute. ``shard_busy_s`` is each worker's own wall time
    inside its dispatches — the lock-step straggler profile.
    """

    def __init__(
        self,
        control_bytes_sent: int = 0,
        control_bytes_received: int = 0,
        control_frames: int = 0,
        workers: int = 0,
        registry: Optional[MetricRegistry] = None,
    ):
        self.registry = registry if registry is not None else MetricRegistry()
        r = self.registry
        self._sent = r.counter(
            "ipc.control_bytes_sent", "pickled bytes sent to shards"
        )
        self._received = r.counter(
            "ipc.control_bytes_received", "pickled bytes received from shards"
        )
        self._frames = r.counter(
            "ipc.control_frames", "command frames sent (one per shard per barrier)"
        )
        self._workers = r.gauge("ipc.workers", "shard worker count")
        self._frame_wait = r.histogram(
            "ipc.barrier_wait_per_frame_s",
            "driver wall seconds blocked per shard reply",
            bounds=BARRIER_BOUNDS,
        )
        #: per-tick barrier round trips (epoch-amortized): every
        #: ``_round_trip_stride``-th sample, at most ``_ROUND_TRIP_CAP``
        self._round_trips: List[float] = []
        self._round_trip_stride = 1
        self._round_trip_seen = 0
        #: shard index -> per-shard cumulative-wait counter
        self._barrier: Dict[int, object] = {}
        #: shard index -> per-shard cumulative worker-busy counter
        self._busy: Dict[int, object] = {}
        self._sent.value += control_bytes_sent
        self._received.value += control_bytes_received
        self._frames.value += control_frames
        self._workers.value = workers

    # attribute facade: reads and ``+=`` hit the registry instruments

    @property
    def control_bytes_sent(self) -> int:
        return self._sent.value

    @control_bytes_sent.setter
    def control_bytes_sent(self, value: int) -> None:
        self._sent.value = value

    @property
    def control_bytes_received(self) -> int:
        return self._received.value

    @control_bytes_received.setter
    def control_bytes_received(self, value: int) -> None:
        self._received.value = value

    @property
    def control_frames(self) -> int:
        return self._frames.value

    @control_frames.setter
    def control_frames(self, value: int) -> None:
        self._frames.value = value

    @property
    def workers(self) -> int:
        return self._workers.value

    @workers.setter
    def workers(self, value: int) -> None:
        self._workers.value = value

    @property
    def barrier_wait_s(self) -> Dict[int, float]:
        """Shard index -> cumulative driver wall seconds blocked in recv."""
        return {shard: c.value for shard, c in self._barrier.items()}

    @property
    def shard_busy_s(self) -> Dict[int, float]:
        """Shard index -> cumulative worker wall seconds inside dispatch."""
        return {shard: c.value for shard, c in self._busy.items()}

    def record_busy(self, shard: int, seconds: float) -> None:
        """Charge one reply's worker-side dispatch wall time to its shard."""
        counter = self._busy.get(shard)
        if counter is None:
            counter = self._busy[shard] = self.registry.counter(
                "ipc.shard_busy_s",
                "cumulative worker wall seconds inside dispatch",
                shard=shard,
            )
        counter.value += seconds

    def record_frame(self, sent: int, received: int) -> None:
        """Account one control round trip's pickled byte counts."""
        self._frames.value += 1
        self._sent.value += sent
        self._received.value += received

    def record_barrier_wait(
        self, shard: int, seconds: float, ticks: int = 1
    ) -> None:
        """Charge driver wall time spent blocked on one shard's reply.

        ``ticks > 1`` marks a batched epoch reply: the round trip is
        amortized over its ticks in the p50 sample so the latency
        profile stays comparable across epoch sizes.
        """
        counter = self._barrier.get(shard)
        if counter is None:
            counter = self._barrier[shard] = self.registry.counter(
                "ipc.barrier_wait_s",
                "cumulative driver wall seconds blocked in recv",
                shard=shard,
            )
        counter.value += seconds
        self._frame_wait.observe(seconds)
        # keep exactly the samples whose index is a multiple of the
        # stride; a full list drops every other one and doubles it
        seen = self._round_trip_seen
        self._round_trip_seen = seen + 1
        if seen % self._round_trip_stride:
            return
        if len(self._round_trips) >= _ROUND_TRIP_CAP:
            del self._round_trips[1::2]
            self._round_trip_stride *= 2
            if seen % self._round_trip_stride:
                return
        self._round_trips.append(seconds / max(1, ticks))

    @property
    def pipe_control_frames(self) -> int:
        """Control round trips with the shards: every one is a pickled
        pipe frame. ``benchmarks/bench_parallel.py`` bounds it at a
        quarter of one frame per shard per tick (epoch batching).
        """
        return self._frames.value

    # The three shared-memory figures below read zero: the pipes are the
    # only IPC channel. perfbench (``perfbench/workloads.py``) still reads
    # them, so they stay until its next change.

    @property
    def shm_control_frames(self) -> int:
        """Always 0 (no frame rides shared memory)."""
        return 0

    @property
    def shm_control_bytes(self) -> int:
        """Always 0 (no frame rides shared memory)."""
        return 0

    @property
    def shm_bytes(self) -> int:
        """Always 0 (no telemetry rides shared memory)."""
        return 0

    @property
    def round_trip_p50(self) -> float:
        """Median per-tick barrier round trip, epoch-amortized (wall s)."""
        if not self._round_trips:
            return 0.0
        ordered = sorted(self._round_trips)
        return ordered[len(ordered) // 2]

    def frame_wait_quantile(self, q: float) -> float:
        """Quantile of driver wall seconds blocked per shard reply.

        Backed by the ``ipc.barrier_wait_per_frame_s`` histogram, so it
        covers every frame since startup (no reservoir cap) and is what
        ``render`` and the ops ``/status`` endpoint report.
        """
        return self._frame_wait.quantile(q)

    @property
    def barrier_wait_skew(self) -> float:
        """Max/median of the per-shard busy seconds (``shard_busy_s``).

        The lock-step straggler factor: 1.0 means perfectly balanced
        shards; large values quantify the work-stealing opportunity the
        ROADMAP names (one slow shard stalls every barrier). The median
        of an even shard count is the mean of the two middle values.
        """
        busy = self.shard_busy_s.values()
        if not busy:
            return 0.0
        middle = statistics.median(busy)
        return max(busy) / middle if middle > 0 else 0.0

    @property
    def control_bytes(self) -> int:
        """Total pickled bytes over the pipes, both directions."""
        return self.control_bytes_sent + self.control_bytes_received

    def bytes_per_tick(self, ticks: int) -> float:
        """Mean pickled pipe bytes, both directions, per executed tick.

        ``ticks <= 0`` (a run that never executed — e.g. metrics queried
        before the first barrier) reports 0.0 rather than dividing.
        """
        if ticks <= 0:
            return 0.0
        return self.control_bytes / ticks

    @property
    def barrier_wait_total_s(self) -> float:
        """Driver wall seconds blocked at barriers, summed over shards."""
        return sum(c.value for c in self._barrier.values())

    def render(self) -> str:
        """A human-readable IPC summary block."""
        lines = [
            f"control frames      {self.control_frames}"
            f" ({self.control_bytes_sent} B out,"
            f" {self.control_bytes_received} B in)",
            f"barrier wait        {self.barrier_wait_total_s:.3f}s over"
            f" {self.workers} shard(s)",
            f"barrier p50/tick    {self.round_trip_p50 * 1e6:.0f}us"
            f" (frame p50/p90/p99"
            f" {self.frame_wait_quantile(0.5) * 1e6:.0f}/"
            f"{self.frame_wait_quantile(0.9) * 1e6:.0f}/"
            f"{self.frame_wait_quantile(0.99) * 1e6:.0f}us)",
        ]
        return "\n".join(lines)


class SimMetrics:
    """Counters describing one driver's tick economy.

    ``reference_ticks`` is how many ticks a per-``dt`` (non-coalescing)
    driver would have executed for the same virtual time; comparing it to
    ``ticks`` gives the coalescing win. The facade keeps the historical
    plain-attribute API; the backing instruments (``sim.*``) live in
    ``self.registry`` alongside whatever the parallel driver and the
    ``repro metrics`` profile register there.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.registry = registry if registry is not None else MetricRegistry()
        r = self.registry
        self._ticks = r.counter("sim.ticks", "ticks actually executed")
        self._base_ticks = r.counter(
            "sim.base_ticks", "ticks taken at the base dt"
        )
        self._coalesced_ticks = r.counter(
            "sim.coalesced_ticks", "ticks that covered more than one base dt"
        )
        self._virtual_seconds = r.counter(
            "sim.virtual_seconds", "virtual seconds advanced in total"
        )
        self._coalesced_seconds = r.counter(
            "sim.coalesced_seconds", "virtual seconds covered by coalesced ticks"
        )
        self._reference_ticks = r.counter(
            "sim.reference_ticks", "ticks a per-dt reference driver would run"
        )
        self._samples = r.counter("sim.samples", "power-trace samples recorded")
        self._wall_seconds = r.counter(
            "sim.wall_seconds", "wall-clock seconds spent inside run()"
        )
        self._step_hist = r.histogram(
            "sim.step_s", "executed tick sizes (virtual s)", bounds=STEP_BOUNDS
        )
        # float totals start at 0.0 so facade reads keep their old types
        self._virtual_seconds.value = 0.0
        self._coalesced_seconds.value = 0.0
        self._reference_ticks.value = 0.0
        self._wall_seconds.value = 0.0
        #: IPC accounting, populated by the rack-sharded parallel driver
        self.ipc: Optional[IpcMetrics] = None

    @property
    def ticks(self) -> int:
        return self._ticks.value

    @ticks.setter
    def ticks(self, value: int) -> None:
        self._ticks.value = value

    @property
    def base_ticks(self) -> int:
        return self._base_ticks.value

    @base_ticks.setter
    def base_ticks(self, value: int) -> None:
        self._base_ticks.value = value

    @property
    def coalesced_ticks(self) -> int:
        return self._coalesced_ticks.value

    @coalesced_ticks.setter
    def coalesced_ticks(self, value: int) -> None:
        self._coalesced_ticks.value = value

    @property
    def virtual_seconds(self) -> float:
        return self._virtual_seconds.value

    @virtual_seconds.setter
    def virtual_seconds(self, value: float) -> None:
        self._virtual_seconds.value = value

    @property
    def coalesced_seconds(self) -> float:
        return self._coalesced_seconds.value

    @coalesced_seconds.setter
    def coalesced_seconds(self, value: float) -> None:
        self._coalesced_seconds.value = value

    @property
    def reference_ticks(self) -> float:
        return self._reference_ticks.value

    @reference_ticks.setter
    def reference_ticks(self, value: float) -> None:
        self._reference_ticks.value = value

    @property
    def samples(self) -> int:
        return self._samples.value

    @samples.setter
    def samples(self, value: int) -> None:
        self._samples.value = value

    @property
    def wall_seconds(self) -> float:
        return self._wall_seconds.value

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self._wall_seconds.value = value

    def record_tick(self, step: float, base_dt: float) -> None:
        """Account one executed tick of ``step`` virtual seconds."""
        self._ticks.value += 1
        self._virtual_seconds.value += step
        self._reference_ticks.value += step / base_dt
        self._step_hist.observe(step)
        if step > base_dt * 1.000001:
            self._coalesced_ticks.value += 1
            self._coalesced_seconds.value += step
        else:
            self._base_ticks.value += 1

    @property
    def tick_reduction(self) -> float:
        """How many reference ticks each executed tick replaced (>= 1)."""
        if self.ticks == 0:
            return 1.0
        return self.reference_ticks / self.ticks

    @property
    def coalescing_fraction(self) -> float:
        """Fraction of virtual time advanced by coalesced ticks."""
        if self.virtual_seconds <= 0:
            return 0.0
        return self.coalesced_seconds / self.virtual_seconds

    def render(self) -> str:
        """A human-readable summary block."""
        lines = [
            f"ticks executed      {self.ticks}"
            f" (base {self.base_ticks}, coalesced {self.coalesced_ticks})",
            f"virtual seconds     {self.virtual_seconds:.0f}"
            f" ({self.coalescing_fraction * 100:.1f}% coalesced)",
            f"reference ticks     {self.reference_ticks:.0f}",
            f"tick reduction      {self.tick_reduction:.1f}x",
            f"samples recorded    {self.samples}",
        ]
        if self.ipc is not None:
            lines.append("parallel IPC profile:")
            lines.append(self.ipc.render())
        return "\n".join(lines)


class WallTimer:
    """Context manager adding elapsed wall time to ``metrics.wall_seconds``."""

    def __init__(self, metrics: SimMetrics):
        self.metrics = metrics
        self._t0 = 0.0

    def __enter__(self) -> "WallTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.metrics.wall_seconds += time.perf_counter() - self._t0
