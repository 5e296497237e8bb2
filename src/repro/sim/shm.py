"""The parallel fleet's one shared-memory segment: the telemetry banks.

The rack-sharded driver (:mod:`repro.sim.parallel`) lock-steps its
workers at coalescing/fault barriers. Its control frames are small
pickled tuples on each shard's ``Pipe``; the bulk telemetry — every
per-sample trace row and every attack observer's reading — would not
be, so it rides one fixed-layout segment of float64 slots instead.

Every shard worker writes its hosts' wall-power values (and its attack
observers' RAPL readings) directly into global-index slots of a bank,
and the driver folds the row out of the bank in global host order. The
driver stamps each row-carrying frame with a bank index; banks rotate,
and there are ``EPOCH_TICKS + 1`` of them, so every row-carrying tick of
an epoch lands in its own bank and none is rewritten before the driver
folds them all after the single reply. A wall slot holds the sampled
watts (``0.0`` for a dark, breaker-tripped server) or **NaN** for a
crashed machine — a trace *gap*, exactly like the serial sampler. An
observer slot holds the monitor's reading or NaN when the monitor
returned ``None``. Values round-trip bit-exactly (raw float64 slots),
which keeps the sharded traces bit-identical to serial.

Segment layout, for ``S`` servers and ``C`` observer slots::

    EPOCH_TICKS + 1 banks, stride S + C:
        [ wall[0] ... wall[S-1] | obs[0] ... obs[C-1] ]

Bank slots need no sequence counter of their own: the pipe reply that
follows a worker's writes is the fence.

Lifecycle: the driver :meth:`creates <ShmPlane.create>` the segment and
is the only party that ever unlinks it (in a ``finally`` during engine
shutdown); workers :meth:`attach <ShmPlane.attach>` by name and merely
close their mapping on exit. Segment names are ``clkt-<pid>-<hex>``, so
:func:`sweep_stale_segments` reclaims the segment of a crashed driver.
"""

from __future__ import annotations

import math
import os
import secrets
from multiprocessing import shared_memory
from typing import List, Optional

from repro.errors import SimulationError

#: ticks batched per epoch frame; the segment carries one bank more
EPOCH_TICKS = 8
_BANKS = EPOCH_TICKS + 1

#: segment names are ``clkt-<driver pid>-<random hex>`` — the embedded
#: pid lets a later run prove the owner is gone before sweeping a
#: leftover segment (a SIGKILLed driver never reaches its unlink)
SEGMENT_PREFIX = "clkt"

_SHM_DIR = "/dev/shm"

_SLOT_BYTES = 8


def _segment_owner_pid(name: str) -> Optional[int]:
    """Parse the creator pid out of a segment name (None: not ours)."""
    parts = name.split("-")
    if len(parts) != 3 or parts[0] != SEGMENT_PREFIX:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another uid
        return True
    return True


def sweep_stale_segments() -> List[str]:
    """Unlink segments whose creating driver is dead.

    An abnormally killed driver (SIGKILL, OOM) never reaches the
    ``finally``-unlink in ``ParallelFleetEngine.close``, leaking its
    segment in ``/dev/shm`` until reboot. Each engine start sweeps the
    name-prefixed leftovers of *dead* pids; segments whose embedded pid
    is still alive belong to a concurrent run and are never touched.
    Returns the names removed (for tests and logging).
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    removed: List[str] = []
    for name in os.listdir(_SHM_DIR):
        pid = _segment_owner_pid(name)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:  # pragma: no cover - lost the race
            continue
        removed.append(name)
    return removed


class ShmPlane:
    """``EPOCH_TICKS + 1`` telemetry banks in one shared segment."""

    #: telemetry banks: one per tick of an epoch, plus one
    banks = _BANKS

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        servers: int,
        observer_capacity: int,
        owner: bool,
    ):
        self._shm = shm
        self.total_servers = servers
        self.observer_capacity = observer_capacity
        self._owner = owner
        self._released = False
        self._f = memoryview(shm.buf).cast("d")
        self._stride = servers + observer_capacity
        self._slots = _BANKS * self._stride

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, servers: int, observer_capacity: int) -> "ShmPlane":
        """Driver side: allocate the segment, every slot NaN-filled."""
        if servers < 1:
            raise SimulationError(
                f"the segment needs at least one server slot: {servers!r}"
            )
        if observer_capacity < 0:
            raise SimulationError(
                f"observer capacity must be >= 0: {observer_capacity}"
            )
        sweep_stale_segments()
        size = _BANKS * (servers + observer_capacity) * _SLOT_BYTES
        while True:
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
                continue
            break
        plane = cls(shm, servers, observer_capacity, owner=True)
        nan = math.nan
        for slot in range(plane._slots):
            plane._f[slot] = nan
        return plane

    @classmethod
    def attach(cls, name: str, servers: int, observer_capacity: int) -> "ShmPlane":
        """Worker side: attach to the driver's segment by name.

        Spawned shard workers share the driver's ``resource_tracker``
        process, so the attach-side registration CPython performs is a
        set-level duplicate of the driver's create-side one: the single
        unregister issued by the driver's :meth:`unlink` clears it, a
        worker exit triggers no teardown, and a driver that dies without
        cleanup still gets the segment reaped by the tracker at exit.
        Nothing to compensate for here — workers must NOT unregister,
        or they would strip the driver's registration from the shared
        tracker.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, servers, observer_capacity, owner=False)

    # -- geometry -------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    @property
    def segment_bytes(self) -> int:
        """Allocated size of the shared segment."""
        return self._slots * _SLOT_BYTES

    @property
    def row_bytes(self) -> int:
        """Payload bytes of one full wall-power row."""
        return self.total_servers * _SLOT_BYTES

    def _wall_slot(self, bank: int, index: int) -> int:
        if not 0 <= bank < self.banks:
            raise SimulationError(f"bank out of range: {bank}")
        if not 0 <= index < self.total_servers:
            raise SimulationError(f"server index out of range: {index}")
        return bank * self._stride + index

    def _observer_slot(self, bank: int, slot: int) -> int:
        if not 0 <= bank < self.banks:
            raise SimulationError(f"bank out of range: {bank}")
        if not 0 <= slot < self.observer_capacity:
            raise SimulationError(f"observer slot out of range: {slot}")
        return bank * self._stride + self.total_servers + slot

    # -- telemetry banks ------------------------------------------------

    def write_wall(self, bank: int, index: int, watts: Optional[float]) -> None:
        """Write one server's sampled watts (``None`` = crashed, gap)."""
        self._f[self._wall_slot(bank, index)] = (
            math.nan if watts is None else watts
        )

    def read_wall(self, bank: int, index: int) -> Optional[float]:
        """Read one server's sampled watts (``None`` = crashed, gap)."""
        value = self._f[self._wall_slot(bank, index)]
        return None if math.isnan(value) else value

    def write_observer(self, bank: int, slot: int, watts: Optional[float]) -> None:
        """Write one attack observer's reading (``None`` = no sample)."""
        self._f[self._observer_slot(bank, slot)] = (
            math.nan if watts is None else watts
        )

    def read_observer(self, bank: int, slot: int) -> Optional[float]:
        """Read one attack observer's reading (``None`` = no sample)."""
        value = self._f[self._observer_slot(bank, slot)]
        return None if math.isnan(value) else value

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping (does not destroy the segment)."""
        if self._released:
            return
        self._released = True
        self._f.release()
        self._shm.close()

    def unlink(self) -> None:
        """Driver side: destroy the segment (idempotent, swallows races).

        Owner-gated: worker mappings — including those of supervisor-
        respawned workers, which re-attach to the *live* segment by name
        — can never unlink it, and the driver's own double call is a
        no-op past the first.
        """
        self.close()
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
