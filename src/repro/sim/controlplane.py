"""Fixed-layout shared-memory control plane for the parallel fleet.

The rack-sharded driver (:mod:`repro.sim.parallel`) lock-steps its
workers at coalescing/fault barriers. With the telemetry plane carrying
the bulk payloads (:mod:`repro.sim.telemetry`), the remaining per-tick
cost is the control exchange itself: one pickled tuple over a ``Pipe``
per shard per barrier, paying pickling plus a kernel wakeup in each
direction. On fine-grained campaigns — 1 s power sampling, fault-dense
chaos schedules, attack bursts — the engine is *barrier-bound*, not
compute-bound.

This module moves the steady-state barrier path onto fixed-layout
shared-memory slots. The driver writes a request frame into its shard's
request block and rings a **doorbell** (bumps a sequence slot; workers
busy-poll with a spin-then-sleep backoff); the worker writes its reply
into the shard's reply block and bumps its own generation counter,
which doubles as the supervisor's heartbeat. No pickling, no syscalls
at steady state.

Only three request shapes are slot-encodable — and they are the entire
steady state:

- ``("plan", hint)`` — one float.
- ``("epoch", ticks, ())`` — up to ``epoch_ticks`` batched ticks, each
  ``(hint_or_None, step, bank, want_row)``, sampling no observers. An
  epoch that samples armed attack monitors (non-empty observer ids)
  ends an armed run once and rides the pipe.
- ``("begin", bank, want_row, ops)`` — with an empty op queue.

Everything else — attacker ops, monitor construction, checkpoint and
replay frames, meters, inspection, shutdown — is rare and variable-size
and stays on the pipe, which also carries worker errors (full pickled
traceback) and tracer drains (``PAYLOAD_PIPE`` status: the reply rides
the pipe while the request still used the slots).

Slot layout (all slots are 8 bytes; ``f`` = float64, ``i`` = int64),
per shard ``s`` with ``H_s`` hosts and a capacity of ``E`` epoch
ticks::

    request block (driver writes, worker reads), stride 4 + 4*E:
        [0] i  REQ_SEQ     doorbell: driver's frame counter
        [1] i  REQ_OP      1 = plan, 2 = epoch, 3 = begin
        [2] f/i REQ_A      plan: hint | epoch: tick count | begin: bank
        [3] i  REQ_B       begin: want_row
        [4 + 4*k ..]       epoch tick k: hint (f, NaN = commit-only),
                           step (f), bank (i), want_row (i)

    reply block (worker writes, driver reads), stride 8 + 3*H_s:
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

Write ordering is payload-then-sequence on both sides: the doorbell /
generation slot is bumped only after the frame body is complete, so a
poller that observes the new sequence value observes a complete frame
(CPython's GIL orders the stores within the writer; x86-TSO and the
release/acquire behavior of aligned 8-byte slots keep the reader
consistent — the same discipline the telemetry plane's bank stamping
relies on).

The segment uses the telemetry plane's ``clkt-<pid>-<hex>`` naming, so
:func:`repro.sim.telemetry.sweep_stale_segments` reclaims control
segments of crashed drivers exactly like telemetry segments. The driver
creates and unlinks; workers attach and close (shared
``resource_tracker``, same rules as the telemetry plane).
"""

from __future__ import annotations

import math
import os
import secrets
from multiprocessing import shared_memory
from typing import Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.telemetry import SEGMENT_PREFIX, sweep_stale_segments

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

_RSP_SEQ = 0
_RSP_STATUS = 1
_RSP_WAIT = 2
_RSP_CHANGED = 3
_RSP_SAFE = 4
_RSP_HORIZON = 5
_RSP_NADD = 6
_RSP_NREM = 7
_RSP_ARRAYS = 8


class ControlPlane:
    """Per-shard request/reply slot blocks in one shared segment."""

    #: reply statuses
    OK = 0
    #: the request was served but the reply is a full pickled frame on
    #: the pipe (tracer drain attached)
    PAYLOAD_PIPE = 1
    #: the dispatch raised; the pickled ``("error", traceback)`` frame
    #: is on the pipe
    ERROR = 2

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        host_counts: Sequence[int],
        epoch_ticks: int,
        owner: bool,
    ):
        self._shm = shm
        self.host_counts = tuple(host_counts)
        self.epoch_ticks = epoch_ticks
        self._owner = owner
        self._released = False
        self._f = memoryview(shm.buf).cast("d")
        self._i = memoryview(shm.buf).cast("q")
        self._req_stride = _REQ_TICKS + _TICK_SLOTS * epoch_ticks
        self._req_base = [s * self._req_stride for s in range(len(self.host_counts))]
        total_req = self._req_stride * len(self.host_counts)
        self._rsp_base = []
        offset = total_req
        for hosts in self.host_counts:
            self._rsp_base.append(offset)
            offset += _RSP_ARRAYS + 3 * hosts
        self._slots = offset

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, host_counts: Sequence[int], epoch_ticks: int
    ) -> "ControlPlane":
        """Driver side: allocate the segment, zero-filled (seq 0 = idle)."""
        if not host_counts or any(h < 1 for h in host_counts):
            raise SimulationError(
                f"control plane needs >= 1 host per shard: {host_counts!r}"
            )
        if epoch_ticks < 1:
            raise SimulationError(f"epoch_ticks must be >= 1: {epoch_ticks}")
        sweep_stale_segments()
        n_req = (_REQ_TICKS + _TICK_SLOTS * epoch_ticks) * len(host_counts)
        n_rsp = sum(_RSP_ARRAYS + 3 * h for h in host_counts)
        size = (n_req + n_rsp) * _SLOT_BYTES
        while True:
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
                continue
            break
        shm.buf[:size] = bytes(size)
        return cls(shm, host_counts, epoch_ticks, owner=True)

    @classmethod
    def attach(
        cls, name: str, host_counts: Sequence[int], epoch_ticks: int
    ) -> "ControlPlane":
        """Worker side: attach by name (same tracker rules as telemetry)."""
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, host_counts, epoch_ticks, owner=False)

    # -- geometry -------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    @property
    def segment_bytes(self) -> int:
        """Allocated size of the shared segment."""
        return self._slots * _SLOT_BYTES

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
            if oids or len(ticks) > self.epoch_ticks:
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
        """Driver side: destroy the segment (idempotent, owner-gated)."""
        self.close()
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
