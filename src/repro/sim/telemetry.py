"""Zero-copy shared-memory telemetry plane for the parallel fleet engine.

The rack-sharded driver (:mod:`repro.sim.parallel`) originally shipped
every per-step trace row as pickled ``(index, watts)`` tuples over the
shard pipes — at fleet scale that pickling dominates the per-tick IPC
cost. This module replaces the row payload with a **double-buffered
shared-memory plane of float64 slots**: every shard worker writes its
hosts' wall-power values (and its attack observers' RAPL readings)
directly into preallocated global-index slots, and the driver folds the
row out of the buffer in global host order, so the pipe protocol shrinks
to small control frames.

Frame layout (all slots are native-endian float64)::

    bank 0: [ wall[0] ... wall[S-1] | obs[0] ... obs[C-1] ]
    bank 1: [ wall[0] ... wall[S-1] | obs[0] ... obs[C-1] ]

with ``S = total_servers`` and ``C = observer_capacity``. The banks
rotate per row-carrying barrier: the driver stamps each control frame
with the bank index, so a worker never overwrites a row the driver has
not consumed yet, even across coalesced steps. Two banks (a classic
double buffer) would suffice for one barrier per tick; the shared-memory
control plane (:mod:`repro.sim.controlplane`) batches up to
``epoch_ticks`` row-carrying ticks into one barrier, so the engine
sizes the plane with ``epoch_ticks + 1`` banks — every tick of an
epoch lands in its own bank and the driver folds them all after the
single reply.

Encoding: a wall slot holds the sampled watts (``0.0`` for a dark,
breaker-tripped server) or **NaN** for a crashed machine — the driver
turns NaN back into a trace *gap*, exactly like the serial sampler. An
observer slot holds the monitor's watt reading or NaN when the monitor
returned ``None`` (priming, fault backoff, implausible-sample discard).
Values round-trip bit-exactly (they are raw float64 slots), which is what
keeps the parallel traces bit-identical to serial.

Lifecycle: the driver :meth:`creates <TelemetryPlane.create>` the
segment and is the only party that ever unlinks it (in a ``finally``
during engine shutdown); workers :meth:`attach <TelemetryPlane.attach>`
by name and merely close their mapping on exit — see :meth:`attach` for
why the shared ``resource_tracker`` makes that sufficient.
"""

from __future__ import annotations

import math
import os
import secrets
from multiprocessing import shared_memory
from typing import List, Optional

from repro.errors import SimulationError

#: default bank count — a double buffer: one bank may be written while
#: the other is read (the engine raises this for batched plan epochs)
BANKS = 2

#: segment names are ``clkt-<driver pid>-<random hex>`` — the embedded
#: pid lets a later run prove the owner is gone before sweeping a
#: leftover segment (a SIGKILLed driver never reaches its unlink)
SEGMENT_PREFIX = "clkt"

_FLOAT_BYTES = 8

_SHM_DIR = "/dev/shm"


def _segment_owner_pid(name: str) -> Optional[int]:
    """Parse the creator pid out of a plane segment name (None: not ours)."""
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
    """Unlink plane segments whose creating driver is dead.

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


class TelemetryPlane:
    """A double-buffered shared-memory plane of float64 telemetry slots."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        total_servers: int,
        observer_capacity: int,
        owner: bool,
        banks: int = BANKS,
    ):
        self._shm = shm
        self.total_servers = total_servers
        self.observer_capacity = observer_capacity
        self.banks = banks
        self._owner = owner
        self._stride = total_servers + observer_capacity
        self._view = memoryview(shm.buf).cast("d")
        self._released = False

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, total_servers: int, observer_capacity: int, banks: int = BANKS
    ) -> "TelemetryPlane":
        """Driver side: allocate the segment (``banks`` banks, NaN-filled)."""
        if total_servers < 1:
            raise SimulationError(
                f"telemetry plane needs at least one server slot: {total_servers}"
            )
        if observer_capacity < 0:
            raise SimulationError(
                f"observer capacity must be >= 0: {observer_capacity}"
            )
        if banks < BANKS:
            raise SimulationError(f"telemetry plane needs >= {BANKS} banks: {banks}")
        sweep_stale_segments()
        size = banks * (total_servers + observer_capacity) * _FLOAT_BYTES
        while True:
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
                continue
            break
        plane = cls(shm, total_servers, observer_capacity, owner=True, banks=banks)
        nan = math.nan
        for slot in range(banks * plane._stride):
            plane._view[slot] = nan
        return plane

    @classmethod
    def attach(
        cls, name: str, total_servers: int, observer_capacity: int,
        banks: int = BANKS,
    ) -> "TelemetryPlane":
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
        return cls(shm, total_servers, observer_capacity, owner=False, banks=banks)

    # -- geometry -------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    @property
    def segment_bytes(self) -> int:
        """Allocated size of the shared segment."""
        return self.banks * self._stride * _FLOAT_BYTES

    @property
    def row_bytes(self) -> int:
        """Payload bytes of one full wall-power row."""
        return self.total_servers * _FLOAT_BYTES

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

    # -- slot access ----------------------------------------------------

    def write_wall(self, bank: int, index: int, watts: Optional[float]) -> None:
        """Write one server's sampled watts (``None`` = crashed, gap)."""
        self._view[self._wall_slot(bank, index)] = (
            math.nan if watts is None else watts
        )

    def read_wall(self, bank: int, index: int) -> Optional[float]:
        """Read one server's sampled watts (``None`` = crashed, gap)."""
        value = self._view[self._wall_slot(bank, index)]
        return None if math.isnan(value) else value

    def write_observer(self, bank: int, slot: int, watts: Optional[float]) -> None:
        """Write one attack observer's reading (``None`` = no sample)."""
        self._view[self._observer_slot(bank, slot)] = (
            math.nan if watts is None else watts
        )

    def read_observer(self, bank: int, slot: int) -> Optional[float]:
        """Read one attack observer's reading (``None`` = no sample)."""
        value = self._view[self._observer_slot(bank, slot)]
        return None if math.isnan(value) else value

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping (does not destroy the segment)."""
        if self._released:
            return
        self._released = True
        self._view.release()
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
