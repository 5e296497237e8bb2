"""The parallel fleet's one shared-memory segment: control slots and telemetry.

The rack-sharded driver (:mod:`repro.sim.parallel`) lock-steps its
workers at coalescing/fault barriers. Pickling one tuple per shard per
barrier over a ``Pipe`` — plus a kernel wakeup in each direction, plus
every per-sample trace row as pickled ``(index, watts)`` tuples — made
fine-grained campaigns (1 s power sampling, fault-dense chaos schedules,
attack bursts) *barrier-bound*. This module moves the steady-state
barrier path and all bulk telemetry onto one fixed-layout segment of
8-byte slots (``f`` = float64, ``i`` = int64).

**Control.** The driver writes a request frame into its shard's request
block and rings a **doorbell** (bumps a sequence slot; workers busy-poll
with a spin-then-sleep backoff); the worker writes its reply into the
shard's reply block and bumps its own generation counter, which doubles
as the supervisor's heartbeat. No pickling, no syscalls at steady state.
Only three request shapes are slot-encodable — and they are the entire
steady state:

- ``("plan", hint)`` — one float.
- ``("epoch", ticks, ())`` — up to :data:`EPOCH_TICKS` batched ticks,
  each ``(hint_or_None, step, bank, want_row)``, sampling no observers.
  An epoch that samples armed attack monitors (non-empty observer ids)
  ends an armed run once and rides the pipe.
- ``("begin", bank, want_row, ops)`` — with an empty op queue.

Everything else — attacker ops, monitor construction, checkpoint and
replay frames, meters, inspection, shutdown — is rare and variable-size
and stays on the pipe, which also carries worker errors (full pickled
traceback) and tracer drains (``PAYLOAD_PIPE`` status: the reply rides
the pipe while the request still used the slots).

**Telemetry.** Every shard worker writes its hosts' wall-power values
(and its attack observers' RAPL readings) directly into global-index
slots of a bank, and the driver folds the row out of the bank in global
host order. The driver stamps each row-carrying frame with a bank
index; banks rotate, and there are ``EPOCH_TICKS + 1`` of them, so every
row-carrying tick of an epoch lands in its own bank and none is
rewritten before the driver folds them all after the single reply. A
wall slot holds the sampled watts (``0.0`` for a dark, breaker-tripped
server) or **NaN** for a crashed machine — a trace *gap*, exactly like
the serial sampler. An observer slot holds the monitor's reading or NaN
when the monitor returned ``None``. Values round-trip bit-exactly (raw
float64 slots), which keeps the sharded traces bit-identical to serial.

Segment layout, for shards ``s`` with ``H_s`` hosts (``S = sum H_s``
servers) and ``C`` observer slots, in this order::

    request blocks (driver writes, worker reads), stride 4 + 4*EPOCH_TICKS:
        [0] i  REQ_SEQ     doorbell: driver's frame counter
        [1] i  REQ_OP      1 = plan, 2 = epoch, 3 = begin
        [2] f/i REQ_A      plan: hint | epoch: tick count | begin: bank
        [3] i  REQ_B       begin: want_row
        [4 + 4*k ..]       epoch tick k: hint (f, NaN = commit-only),
                           step (f), bank (i), want_row (i)

    reply blocks (worker writes, driver reads), stride 8 + 3*H_s:
        [0] i  RSP_SEQ     generation counter == served REQ_SEQ
                           (the supervisor's heartbeat)
        [1] i  RSP_STATUS  0 = OK (slots), 1 = PAYLOAD_PIPE, 2 = ERROR
        [2] f  RSP_WAIT    worker's doorbell-wait seconds
        [3] i  RSP_CHANGED begin/epoch reply
        [4] i  RSP_SAFE    plan reply: breaker-knee guard
        [5] f  RSP_HORIZON plan reply: shard event horizon
        [6] i  RSP_NADD    plan reply: dark-set additions count
        [7] i  RSP_NREM    plan reply: dark-set removals count
        [8 ..]             added (i) x H_s | removed (i) x H_s |
                           demands (f) x H_s

    EPOCH_TICKS + 1 banks (f), stride S + C:
        [ wall[0] ... wall[S-1] | obs[0] ... obs[C-1] ]

Write ordering is payload-then-sequence on both sides: the doorbell /
generation slot is bumped only after the frame body is complete, so a
poller that observes the new sequence value observes a complete frame
(CPython's GIL orders the stores within the writer; x86-TSO and the
release/acquire behavior of aligned 8-byte slots keep the reader
consistent). Bank slots need no sequence of their own: the reply that
follows them is the fence.

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
from typing import List, Optional, Sequence, Tuple

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

_OP_PLAN = 1
_OP_EPOCH = 2
_OP_BEGIN = 3

_REQ_SEQ = 0
_REQ_OP = 1
_REQ_A = 2
_REQ_B = 3
_REQ_TICKS = 4
_TICK_SLOTS = 4
_REQ_STRIDE = _REQ_TICKS + _TICK_SLOTS * EPOCH_TICKS

_RSP_SEQ = 0
_RSP_STATUS = 1
_RSP_WAIT = 2
_RSP_CHANGED = 3
_RSP_SAFE = 4
_RSP_HORIZON = 5
_RSP_NADD = 6
_RSP_NREM = 7
_RSP_ARRAYS = 8


def _layout(host_counts: Sequence[int], observer_capacity: int) -> Tuple[int, int]:
    """Slot counts of the control region and of the whole segment."""
    control = len(host_counts) * _REQ_STRIDE + sum(
        _RSP_ARRAYS + 3 * h for h in host_counts
    )
    return control, control + _BANKS * (sum(host_counts) + observer_capacity)


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
    """Per-shard request/reply blocks plus telemetry banks, one segment."""

    #: reply statuses
    OK = 0
    #: the request was served but the reply is a full pickled frame on
    #: the pipe (tracer drain attached)
    PAYLOAD_PIPE = 1
    #: the dispatch raised; the pickled ``("error", traceback)`` frame
    #: is on the pipe
    ERROR = 2

    #: telemetry banks: one per tick of an epoch, plus one
    banks = _BANKS

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        host_counts: Sequence[int],
        observer_capacity: int,
        owner: bool,
    ):
        self._shm = shm
        self.host_counts = tuple(host_counts)
        self.total_servers = sum(self.host_counts)
        self.observer_capacity = observer_capacity
        self._owner = owner
        self._released = False
        self._f = memoryview(shm.buf).cast("d")
        self._i = memoryview(shm.buf).cast("q")
        self._req_base = [s * _REQ_STRIDE for s in range(len(self.host_counts))]
        self._rsp_base = []
        offset = _REQ_STRIDE * len(self.host_counts)
        for hosts in self.host_counts:
            self._rsp_base.append(offset)
            offset += _RSP_ARRAYS + 3 * hosts
        #: the first bank slot (everything before it is control) and
        #: the segment's slot count
        self._bank_base, self._slots = _layout(self.host_counts, observer_capacity)
        self._stride = self.total_servers + observer_capacity

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, host_counts: Sequence[int], observer_capacity: int
    ) -> "ShmPlane":
        """Driver side: allocate the segment (control zeroed: seq 0 =
        idle; banks NaN-filled)."""
        if not host_counts or any(h < 1 for h in host_counts):
            raise SimulationError(
                "the segment needs at least one host server slot per"
                f" shard: {host_counts!r}"
            )
        if observer_capacity < 0:
            raise SimulationError(
                f"observer capacity must be >= 0: {observer_capacity}"
            )
        sweep_stale_segments()
        control, slots = _layout(host_counts, observer_capacity)
        size = slots * _SLOT_BYTES
        while True:
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
                continue
            break
        plane = cls(shm, host_counts, observer_capacity, owner=True)
        shm.buf[: control * _SLOT_BYTES] = bytes(control * _SLOT_BYTES)
        nan = math.nan
        for slot in range(control, slots):
            plane._f[slot] = nan
        return plane

    @classmethod
    def attach(
        cls, name: str, host_counts: Sequence[int], observer_capacity: int
    ) -> "ShmPlane":
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
        return cls(shm, host_counts, observer_capacity, owner=False)

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
        return self._bank_base + bank * self._stride + index

    def _observer_slot(self, bank: int, slot: int) -> int:
        if not 0 <= bank < self.banks:
            raise SimulationError(f"bank out of range: {bank}")
        if not 0 <= slot < self.observer_capacity:
            raise SimulationError(f"observer slot out of range: {slot}")
        return self._bank_base + bank * self._stride + self.total_servers + slot

    # -- driver: request side -------------------------------------------

    def post(self, shard: int, msg: tuple) -> Optional[Tuple[int, int]]:
        """Encode one control frame into the shard's request slots.

        Returns ``(seq, payload_bytes)`` after ringing the doorbell, or
        ``None`` when the frame is not slot-encodable — an oversized
        epoch, an epoch sampling observers, a ``begin`` carrying
        attacker ops, or any verb outside the steady-state set — in
        which case the caller ships it pickled over the pipe (the slow
        path).
        """
        base = self._req_base[shard]
        verb = msg[0]
        if verb == "plan":
            self._f[base + _REQ_A] = msg[1]
            self._i[base + _REQ_OP] = _OP_PLAN
            nbytes = 3 * _SLOT_BYTES
        elif verb == "epoch":
            ticks, oids = msg[1], msg[2]
            if oids or len(ticks) > EPOCH_TICKS:
                return None
            self._i[base + _REQ_A] = len(ticks)
            slot = base + _REQ_TICKS
            for hint, step, bank, want_row in ticks:
                self._f[slot] = math.nan if hint is None else hint
                self._f[slot + 1] = step
                self._i[slot + 2] = bank
                self._i[slot + 3] = 1 if want_row else 0
                slot += _TICK_SLOTS
            self._i[base + _REQ_OP] = _OP_EPOCH
            nbytes = (3 + _TICK_SLOTS * len(ticks)) * _SLOT_BYTES
        elif verb == "begin":
            bank, want_row, ops = msg[1], msg[2], msg[3]
            if ops:
                return None
            self._i[base + _REQ_A] = bank
            self._i[base + _REQ_B] = 1 if want_row else 0
            self._i[base + _REQ_OP] = _OP_BEGIN
            nbytes = 4 * _SLOT_BYTES
        else:
            return None
        seq = self._i[base + _REQ_SEQ] + 1
        self._i[base + _REQ_SEQ] = seq  # ring the doorbell last
        return seq, nbytes

    def req_seq(self, shard: int) -> int:
        """Current doorbell value (workers poll this)."""
        return self._i[self._req_base[shard] + _REQ_SEQ]

    # -- worker: request side -------------------------------------------

    def read_request(self, shard: int) -> tuple:
        """Decode the posted frame back into a classic control tuple."""
        base = self._req_base[shard]
        op = self._i[base + _REQ_OP]
        if op == _OP_PLAN:
            return ("plan", self._f[base + _REQ_A])
        if op == _OP_EPOCH:
            count = self._i[base + _REQ_A]
            ticks = []
            slot = base + _REQ_TICKS
            for _ in range(count):
                hint = self._f[slot]
                ticks.append((
                    None if math.isnan(hint) else hint,
                    self._f[slot + 1],
                    self._i[slot + 2],
                    bool(self._i[slot + 3]),
                ))
                slot += _TICK_SLOTS
            return ("epoch", tuple(ticks), ())
        if op == _OP_BEGIN:
            return (
                "begin",
                self._i[base + _REQ_A],
                bool(self._i[base + _REQ_B]),
                (),
            )
        raise SimulationError(f"corrupt control-plane request op: {op}")

    # -- worker: reply side ---------------------------------------------

    def write_reply(
        self, shard: int, seq: int, verb: str, result, wait_s: float
    ) -> None:
        """Encode a dispatch result into the reply slots (status OK)."""
        base = self._rsp_base[shard]
        hosts = self.host_counts[shard]
        if verb == "plan":
            added, removed, demands, safe, horizon = result
            self._i[base + _RSP_SAFE] = 1 if safe else 0
            self._f[base + _RSP_HORIZON] = horizon
            self._i[base + _RSP_NADD] = len(added)
            self._i[base + _RSP_NREM] = len(removed)
            slot = base + _RSP_ARRAYS
            for value in added:
                self._i[slot] = value
                slot += 1
            slot = base + _RSP_ARRAYS + hosts
            for value in removed:
                self._i[slot] = value
                slot += 1
            slot = base + _RSP_ARRAYS + 2 * hosts
            for value in demands:
                self._f[slot] = value
                slot += 1
        else:  # begin / epoch
            self._i[base + _RSP_CHANGED] = 1 if result else 0
        self._f[base + _RSP_WAIT] = wait_s
        self._i[base + _RSP_STATUS] = self.OK
        self._i[base + _RSP_SEQ] = seq  # generation bump last

    def write_status(
        self, shard: int, seq: int, status: int, wait_s: float
    ) -> None:
        """Publish a non-OK status (the reply body rides the pipe)."""
        base = self._rsp_base[shard]
        self._f[base + _RSP_WAIT] = wait_s
        self._i[base + _RSP_STATUS] = status
        self._i[base + _RSP_SEQ] = seq

    # -- driver: reply side ---------------------------------------------

    def rsp_seq(self, shard: int) -> int:
        """Worker's reply generation counter (the heartbeat the driver
        and supervisor poll)."""
        return self._i[self._rsp_base[shard] + _RSP_SEQ]

    def reply_status(self, shard: int) -> int:
        return self._i[self._rsp_base[shard] + _RSP_STATUS]

    def reply_wait_s(self, shard: int) -> float:
        """Worker-side doorbell wait for the frame just served."""
        return self._f[self._rsp_base[shard] + _RSP_WAIT]

    def read_reply(self, shard: int, verb: str) -> Tuple[object, int]:
        """Decode an OK reply; returns ``(result, payload_bytes)``."""
        base = self._rsp_base[shard]
        hosts = self.host_counts[shard]
        if verb == "plan":
            nadd = self._i[base + _RSP_NADD]
            nrem = self._i[base + _RSP_NREM]
            slot = base + _RSP_ARRAYS
            added = tuple(self._i[slot + k] for k in range(nadd))
            slot = base + _RSP_ARRAYS + hosts
            removed = tuple(self._i[slot + k] for k in range(nrem))
            slot = base + _RSP_ARRAYS + 2 * hosts
            demands = tuple(self._f[slot + k] for k in range(hosts))
            result = (
                added,
                removed,
                demands,
                bool(self._i[base + _RSP_SAFE]),
                self._f[base + _RSP_HORIZON],
            )
            nbytes = (_RSP_ARRAYS + nadd + nrem + hosts) * _SLOT_BYTES
        else:
            result = bool(self._i[base + _RSP_CHANGED])
            nbytes = 4 * _SLOT_BYTES
        return result, nbytes

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
        self._i.release()
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
