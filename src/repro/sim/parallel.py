"""Rack-sharded parallel fleet execution.

The serial :class:`~repro.datacenter.simulation.DatacenterSimulation`
loop walks every host per tick in one Python process; at fleet scale the
loop itself is the wall-time bottleneck (see ``sim/metrics.py`` subsystem
timings). Racks are the natural shard boundary: breakers aggregate power
only *within* a rack, tenants drive only their own host, and the only
cross-rack coupling per step is the coalescing horizon min-reduce and the
sampled aggregate trace. This module runs each rack group's kernels and
tenant drivers in its own ``multiprocessing`` spawn worker and lock-steps
the shards at exactly the barriers the serial driver already honors.

Every driver/worker frame is a pickled tuple on the shard's ``Pipe``,
strict request/reply; the worker blocks in ``recv_bytes`` between
barriers, and the driver waits on each reply, in shard order, over the
pipe and the worker's process sentinel, so a worker that exits surfaces
at once and one that stays silent past the barrier timeout is hung. A
dispatch that raises replies ``("error", traceback)``, on which the
driver tears the engine down and raises. Every other reply is
``("ok", result, busy_s, spans)``: ``busy_s`` is the worker's own wall
time inside the dispatch (summed per shard into ``ipc.shard_busy_s``,
the straggler profile), and ``spans`` is the drained worker span-tracer
buffer (``None`` without tracing). Telemetry rides the results: each
sampled row comes back as the shard's ``FleetSlice.row()`` list in its
host order (``None`` = crashed machine, a trace gap; ``0.0`` = dark).
Pickle round-trips floats exactly, which keeps the sharded traces
bit-identical to serial. The frames and their results (``ops`` are
queued attacker ``exec``/``reap`` operations)::

    ("begin", want_row, ops)               -> (changed, row|None)
    ("plan", hint)                         -> (dark, demands, safe, horizon)
    ("epoch", ((hint|None, step,           -> (changed, rows)
               want_row), ...))               # batched ticks
    ("watts",)                             -> watts
    ("state",)                             -> {"breakers":..., "stats":...}
    ("meters", ops)                        -> {iid: (cpu_ns, cpu_ns0)}
    ("read", iid, path, ops)               -> text | ReproError
    ("checkpoint", seq, dir)               -> (bytes, wall_s)
    ("replay", frames)                     -> count  # respawn catch-up
    ("hang", seconds)                      -> None   # test hook: stall
    ("crash",)                             -> no reply; worker exits (test hook)
    ("close",)                             -> worker exits

With a restart budget (``max_restarts > 0``) the supervisor's frame log
records the frames it sent, so replay-after-respawn re-sends them to the
new worker verbatim (and discards the replayed replies).

Every tick crosses the shard boundary inside an ``epoch`` frame, which
cuts steady-state round trips up to ``EPOCH_TICKS``×. A coalescing
epoch is *plan-headed*: its first tick pays one real ``plan`` exchange,
and while the merged fingerprint holds — the merged plan horizon is the
nearest shard event and every breaker is below its knee — the driver
runs the serial planning loop locally (the fingerprint, dark set, and
safety verdict are constant over the window by the same invariant
serial coalescing relies on) and appends further ticks, each carrying
the plan hint its worker re-executes; workers run plan+commit per
entry, bit-identical to ``k`` separate barriers. Without coalescing
every tick is ``min(dt, remaining)`` and carries its own hint. An epoch
ends at ``EPOCH_TICKS`` ticks, at a checkpoint boundary, or at the
run's last tick.

With tracing enabled (``DatacenterSimulation.enable_tracing`` before the
first parallel run), workers record ``shard.plan``/``shard.step`` spans
and fault markers against the lock-stepped virtual clock, and the
driver ingests each reply's ``spans`` into its own tracer, so the merged
timeline is globally clock-aligned without any extra frames (see
``repro.obs`` and ``docs/observability.md``).

``plan`` replies carry the shard's dark labels, sorted, and its demand
fingerprints as bare floats in host order — the driver knows each
shard's host list, so no indices cross the barrier. Rows carry none
either: the driver places each shard's values at that shard's global
host indices and folds the row in global host order, so float sums stay
bit-identical to serial.

Attack support: instances launched before the first parallel run are
replayed inside the owning shard from the cloud's launch log (the cloud
is then frozen). Attack monitors stay on the driver, built on a
:class:`ShardInstanceView` of the instance: each pseudo-file read is
one ``("read", ...)`` round trip, served by the worker's own
``Instance.read``, and a ``ReproError`` that read raised is the reply's
result, re-raised on the driver (never the ``error`` teardown path).
Strategy event horizons stay driver-side, wrapped in
:class:`repro.sim.fastforward.DriverHorizon` so the driver can fold them
into the merged coalescing horizon.

Determinism rules (the golden-trace tests pin all of them):

1. The serial driver and every shard worker run the same per-tick code:
   one :class:`repro.datacenter.fleet.FleetSlice` each, over all hosts
   or over the shard's racks, built from the same :class:`FleetConfig`.
   Dark sets, the plan fingerprint, the slice horizon, the breaker-knee
   verdict, the commit body and the trace row are computed once, in the
   slice. It builds hosts through :func:`repro.runtime.cloud.
   build_cloud_host` and forks every rng by *global* index, so identical
   seeds yield bit-identical kernels and tenants no matter which process
   builds them; the worker then replays the cloud's launch/terminate log
   in order, so container ids, core allocations, and billing baselines
   match the serial cloud.
2. The driver's clock performs the same ``+=`` float operations as the
   serial clock, and every slice clock replays them too, so slice
   horizons (``now + boundary``) are bitwise equal to serial ones.
3. :meth:`FaultSchedule.partition` routes host/rack events to their
   owning shard and clock-jitter events to the driver's own target-less
   :class:`FaultInjector` (jitter only moves *recorded* timestamps,
   which only the driver writes); per-event rng streams are keyed on
   global indices, so partitioning changes no draw. The driver stamps
   samples with the serial sampler's own
   ``DatacenterSimulation._stamps_due``.
4. The driver folds per-sample rows in global host order, so the
   aggregate trace folds watts left-to-right exactly as the serial
   sampler does — float addition order is part of the contract.
5. Queued attacker ops apply at the shard's next ``begin`` (or
   ``read``/``meters``) barrier, before any tick or read — the same
   ordering as the serial call-then-``run()`` and reap-then-sample
   sequences.

When serial wins: small fleets (a rack or two) or short runs, where the
per-step control round trip outweighs the per-host loop; and any
workflow needing ``on_tick`` callbacks or direct host access mid-run,
which cannot observe worker-held state. See ``docs/parallel.md``.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datacenter.fleet import BreakerSnapshot, FleetConfig, FleetSlice
from repro.errors import ReproError, SimulationError
from repro.obs.tracer import SpanTracer
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.fastforward import fold_driver_horizons
from repro.sim.metrics import IpcMetrics, WallTimer
from repro.sim.resilience import (
    MANIFEST_VERSION,
    SNAPSHOT_VERSION,
    ResilienceMetrics,
    atomic_write,
    load_manifest,
    manifest_path,
    read_snapshot,
    shard_snapshot_path,
)
from repro.sim.rng import DeterministicRNG

_EPS = 1e-9

#: ticks batched per epoch frame
EPOCH_TICKS = 8

#: seconds to wait for a spawn worker to finish building its shard
_STARTUP_TIMEOUT_S = 120.0

#: barrier reply timeout when no ResilienceConfig overrides it — long
#: enough for any honest coalesced step, short enough to ever return
_DEFAULT_BARRIER_TIMEOUT_S = 600.0

#: frames never recorded in the supervisor's replay log: lifecycle and
#: recovery traffic (replaying them would recurse), plus the test hooks
_UNLOGGED_FRAMES = frozenset({"crash", "close", "checkpoint", "replay", "hang"})


class _ShardFailure(Exception):
    """Internal: one shard died or hung mid-protocol (driver side)."""

    def __init__(self, kind: str, detail: str, cause: Optional[BaseException] = None):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind  # "died" | "hung"
        self.detail = detail
        self.cause = cause


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _recv_frame(conn) -> Tuple[tuple, int]:
    """Receive one pickled control frame; returns ``(frame, bytes)``.

    The single choke point for every driver-side pipe read, so byte
    accounting is uniform and a half-written frame from a dying worker
    surfaces as a descriptive :class:`SimulationError` instead of a bare
    ``UnpicklingError``. ``EOFError``/``OSError`` propagate untouched —
    callers classify those through their liveness handling.
    """
    blob = conn.recv_bytes()
    try:
        frame = pickle.loads(blob)
    except Exception as exc:
        raise SimulationError(
            f"received a truncated or corrupt control frame"
            f" ({len(blob)} bytes) — the worker likely died while"
            f" writing it: {exc!r}"
        ) from exc
    return frame, len(blob)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its slice of the fleet.

    Only picklable value state crosses the process boundary; kernels,
    engines, tenant drivers, and launched instances are *reconstructed*
    in the worker from the same :class:`FleetConfig` and the cloud's
    launch log, which is what makes them bit-identical to serial.
    """

    config: FleetConfig
    #: global indices of this shard's racks (consecutive, ascending)
    racks: Tuple[int, ...]
    fault_schedule: Optional[FaultSchedule]
    fault_seed: int
    #: the cloud's full launch/terminate history (workers filter by host)
    launch_log: Tuple[tuple, ...]
    #: this worker's position in the shard list (names its trace track)
    shard_index: int = 0
    #: build a worker-side span tracer and flush it in every reply
    trace: bool = False
    #: worker tracer ring capacity (events)
    trace_capacity: int = 65536
    #: trace spill segment directory (None: ring overflow drops events)
    spill_dir: Optional[str] = None


class _ShardRuntime:
    """Worker-side state: one :class:`FleetSlice` plus the protocol parts.

    The slice runs the same per-tick code as the serial driver over
    this shard's racks; the runtime adds what only the barrier protocol
    needs — reply rows, instance reads, spans, checkpoints and replay.
    All indices in messages are fleet-global.
    """

    def __init__(self, spec: ShardSpec):
        from repro.runtime.cloud import Instance

        self.spec = spec
        config = spec.config
        self.clock = VirtualClock(start=config.start_time)
        self.fleet = FleetSlice(
            config, self.clock, DeterministicRNG(config.seed), racks=spec.racks
        )
        # Replay the cloud's launch/terminate history for this shard's
        # hosts, in global order and after the slice is built — the
        # serial cloud launches into a fleet that already exists — so
        # container ids, core allocations, and cpuacct baselines come out
        # identical to the serial cloud's.
        self.instances: Dict[str, Instance] = {}
        fleet = self.fleet
        for op in spec.launch_log:
            if op[0] == "launch":
                _, iid, tenant, host_index, cpus = op
                if host_index not in fleet.labels:
                    continue
                host = fleet.hosts[fleet.local(host_index)]
                container = host.engine.create(
                    name=iid,
                    policy=config.profile.policy_factory(),
                    cpus=cpus,
                    memory_mb=config.profile.memory_mb_per_instance,
                )
                self.instances[iid] = Instance(
                    instance_id=iid,
                    tenant=tenant,
                    container=container,
                    host_index=host_index,
                    launched_at=config.start_time,
                    _cpu_ns_at_launch=container.cpu_usage_ns,
                )
            else:  # ("terminate", iid, host_index)
                _, iid, host_index = op
                if host_index not in fleet.labels:
                    continue
                instance = self.instances.pop(iid)
                fleet.hosts[fleet.local(host_index)].engine.remove(
                    instance.container
                )
        if spec.fault_schedule is not None:
            fleet.install_faults(spec.fault_schedule, spec.fault_seed)
        self._last_dark: set = set()
        self._attach(tracer_counters=None)

    def _attach(self, tracer_counters) -> None:
        """Per-process wiring: tracer, test hooks."""
        spec = self.spec
        self.tracer: Optional[SpanTracer] = None
        if spec.trace:
            self.tracer = SpanTracer(
                now_fn=lambda: self.clock.now,
                track=f"shard-{spec.shard_index}",
                capacity=spec.trace_capacity,
            )
            if spec.spill_dir is not None:
                # a restored incarnation gets a fresh segment: replayed
                # frames re-spill identical rows, deduped on read
                self.tracer.enable_spill(spec.spill_dir)
            if tracer_counters is not None:
                self.tracer.restore_counters(*tracer_counters)
        if self.fleet.injector is not None:
            self.fleet.injector.tracer = self.tracer
        #: test hook (("hang", s) frame): stall the next frame's reply this long
        self._hang_s = 0.0

    # -- checkpoint / restore -------------------------------------------

    def __getstate__(self) -> dict:
        """Everything but the per-process wiring.

        Dropped on purpose: the spec (its launch log must not ride every
        snapshot; :meth:`from_snapshot` re-attaches the one it is
        given), the tracer (rebuilt around the restored clock; only its
        ``(seq, dropped)`` counters persist, so replayed events renumber
        identically) and the hang hook. The injector's tracer ref is
        stripped by ``FaultInjector.__getstate__``.
        """
        state = dict(self.__dict__)
        del state["spec"], state["_hang_s"]
        tracer = state.pop("tracer")
        state["tracer_counters"] = None if tracer is None else tracer.counters()
        return state

    def checkpoint(self, seq: int, directory: str) -> Tuple[int, float]:
        """Serialize this shard's recoverable state; returns (bytes, wall_s).

        The runtime lands in ONE pickle, so shared identity survives the
        round trip: the kernels referenced by the slice's hosts, racks,
        population, host engine and fault injector, and by instances,
        come back as the same objects, and the slice clock stays the
        clock those kernels tick against.
        """
        w0 = time.perf_counter()
        blob = _dumps(
            {
                "version": SNAPSHOT_VERSION,
                "shard_index": self.spec.shard_index,
                "runtime": self,
            }
        )
        atomic_write(
            shard_snapshot_path(directory, self.spec.shard_index, seq), blob
        )
        return (len(blob), time.perf_counter() - w0)

    @classmethod
    def from_snapshot(cls, spec: ShardSpec, path: str) -> "_ShardRuntime":
        """Rebuild a shard runtime from a :meth:`checkpoint` snapshot."""
        payload = read_snapshot(path)
        if payload["shard_index"] != spec.shard_index:
            raise SimulationError(
                f"snapshot {path} belongs to shard {payload['shard_index']},"
                f" not {spec.shard_index}"
            )
        runtime = payload["runtime"]
        runtime.spec = spec
        runtime._attach(runtime.__dict__.pop("tracer_counters"))
        return runtime

    def replay(self, frames: tuple) -> int:
        """Re-execute logged control frames after a restore.

        Full dispatch re-execution, not state patching: stateful streams
        (per-object tenant ``random.Random`` cursors, fault draws of
        replayed reads, the tracer's ``seq`` counter) advance exactly as
        the dead worker's did, so every draw after the replay stays
        bit-identical to the uninterrupted run. Span buffers are drained and discarded
        per frame — the driver already ingested these barriers' spans
        from the worker that died.
        """
        for frame in frames:
            self.dispatch(frame)
            if self.tracer is not None:
                self.tracer.drain()
        return len(frames)

    def apply_ops(self, ops: tuple) -> None:
        """Apply queued attacker ops (exec/reap) in driver order."""
        for op in ops:
            if op[0] == "exec":
                _, iid, name, factory, args = op
                self.instances[iid].container.exec(
                    name, workload=factory(*args)
                )
            else:  # ("reap", iid)
                self.instances[op[1]].container.reap_finished()

    def begin(self, want_row: bool, ops: tuple) -> tuple:
        """Run-start barrier: apply ops and due faults; ``(changed, row)``."""
        self.apply_ops(ops)
        changed = self.fleet.advance_faults()
        return changed, self.fleet.row() if want_row else None

    def plan(self, step_hint: float, coalesce: bool = True):
        """The slice's plan step, plus the sorted dark labels for the driver."""
        tracer = self.tracer
        if tracer is not None:
            plan_w0 = time.perf_counter()
        fleet = self.fleet
        now = self.clock.now
        dark = fleet.dark()
        self._last_dark = dark
        plan = fleet.plan(now, step_hint, dark, coalesce)
        result = None
        if plan is not None:
            demands, horizon = plan
            result = (tuple(sorted(dark)), demands, fleet.breakers_safe(), horizon)
        if tracer is not None:
            tracer.add_span(
                "shard.plan", now, now, time.perf_counter() - plan_w0
            )
        return result

    def epoch(self, ticks: tuple) -> tuple:
        """Execute a batched run of ticks in one barrier.

        Each entry is ``(hint, step, want_row)``: a ``hint`` runs the
        plan half first (non-coalescing — the driver already folded this
        tick's fingerprint from the epoch-head plan exchange), a
        ``None`` hint is a commit-only tick whose plan ran at the epoch
        head. Per-tick state evolution — tenant stepping, kernel ticks,
        breaker observation, fault replay, ``shard.plan``/``shard.step``
        spans — is exactly ``len(ticks)`` separate barriers' worth; only
        the synchronization is batched. Returns ``(changed, rows)``: one
        row per ``want_row`` tick, taken right after its commit.
        """
        changed_any = False
        rows = []
        for hint, step, want_row in ticks:
            if hint is not None:
                self.plan(hint, coalesce=False)
            if self.commit(step):
                changed_any = True
            if want_row:
                rows.append(self.fleet.row())
        return changed_any, rows

    def commit(self, step: float) -> bool:
        """The slice's commit step."""
        tracer = self.tracer
        if tracer is not None:
            step_t0, step_w0 = self.clock.now, time.perf_counter()
        changed = self.fleet.commit(step, self._last_dark)
        if tracer is not None:
            tracer.add_span(
                "shard.step",
                step_t0,
                self.clock.now,
                time.perf_counter() - step_w0,
                step=step,
                shard=self.spec.shard_index,
            )
        return changed

    def watts(self) -> list:
        """Current wall watts per host, in slice order."""
        return self.fleet.host_watts().tolist()

    def meters(self, ops: tuple) -> dict:
        """cpuacct billing meters for this shard's live instances."""
        self.apply_ops(ops)
        return {
            iid: (instance.container.cpu_usage_ns, instance._cpu_ns_at_launch)
            for iid, instance in self.instances.items()
        }

    def read(self, iid: str, path: str, ops: tuple):
        """Read a pseudo-file inside an instance, after the queued ops.

        A ``ReproError`` the read raises is the result, not a failed
        dispatch: the driver re-raises it, and the frame replays like
        any other after a respawn.
        """
        self.apply_ops(ops)
        try:
            return self.instances[iid].read(path)
        except ReproError as exc:
            return exc

    def state(self) -> dict:
        injector = self.fleet.injector
        stats = injector.stats.as_dict() if injector is not None else {}
        tracer = self.tracer.health() if self.tracer is not None else None
        return {
            "breakers": self.fleet.breaker_states(),
            "stats": stats,
            "tracer": tracer,
        }

    def dispatch(self, msg: tuple):
        cmd = msg[0]
        if cmd == "plan":
            return self.plan(msg[1])
        if cmd == "epoch":
            return self.epoch(msg[1])
        if cmd == "begin":
            return self.begin(msg[1], msg[2])
        if cmd == "watts":
            return self.watts()
        if cmd == "state":
            return self.state()
        if cmd == "meters":
            return self.meters(msg[1])
        if cmd == "read":
            return self.read(msg[1], msg[2], msg[3])
        if cmd == "checkpoint":
            return self.checkpoint(msg[1], msg[2])
        if cmd == "replay":
            return self.replay(msg[1])
        if cmd == "hang":
            # test hook: stall the next frame's reply this long
            self._hang_s = float(msg[1])
            return None
        raise SimulationError(f"unknown shard command: {cmd!r}")


def _shard_worker_main(
    spec: ShardSpec, conn, restore_from: Optional[str] = None
) -> None:
    """Worker entry point: build (or restore) the shard, serve commands.

    ``restore_from`` is set by the supervisor when respawning a dead or
    hung shard: the runtime comes back from the named snapshot instead
    of a fresh seed build, and the first frame it serves is the
    ``("replay", ...)`` catch-up.
    """
    try:
        if restore_from is not None:
            runtime = _ShardRuntime.from_snapshot(spec, restore_from)
        else:
            runtime = _ShardRuntime(spec)
    except Exception:
        try:
            conn.send_bytes(_dumps(("error", traceback.format_exc())))
        finally:
            return
    conn.send_bytes(_dumps(("ready",)))
    _serve(runtime, conn)


def _serve(runtime: _ShardRuntime, conn) -> None:
    """The worker command loop: receive a frame, dispatch it, reply.

    Blocks in ``recv_bytes`` between barriers; a closed or broken pipe
    (the driver is gone) ends the loop like a ``close`` frame.
    """
    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if msg[0] == "close":
            return
        if msg[0] == "crash":  # test hook: die without a word
            os._exit(1)
        # a ("hang", s) frame stalls the reply after its own
        stall_s, runtime._hang_s = runtime._hang_s, 0.0
        w0 = time.perf_counter()
        try:
            result = runtime.dispatch(msg)
        except Exception:
            reply = ("error", traceback.format_exc())
        else:
            tracer = runtime.tracer
            reply = (
                "ok",
                result,
                time.perf_counter() - w0,
                None if tracer is None else tracer.drain(),
            )
        if stall_s > 0.0:
            # stall before replying: the pipe, the supervisor's
            # heartbeat, goes silent
            time.sleep(stall_s)
        conn.send_bytes(_dumps(reply))


class ShardInstanceView:
    """The driver's stand-in for an instance that lives in a shard worker.

    Attack monitors are built as ``monitor_factory(view)`` and read
    through it exactly as serial ones read through the
    :class:`~repro.runtime.cloud.Instance`: :meth:`read` is one
    :meth:`ParallelFleetEngine.read` round trip, so availability probes,
    fault backoff and reap-then-sample ordering match serial. It pickles
    as its instance id alone — no engine, pipe or process rides a
    checkpoint — and a strategy resuming from one re-points ``engine``.
    """

    def __init__(self, engine, instance_id: str):
        self.engine = engine
        self.instance_id = instance_id

    def read(self, path: str) -> str:
        return self.engine.read(self.instance_id, path)

    def __reduce__(self):
        return (ShardInstanceView, (None, self.instance_id))


class ParallelFleetEngine:
    """Drives a fleet simulation across rack-sharded worker processes.

    Created by ``DatacenterSimulation.run(parallel=N)`` on a *fresh*
    simulation (no ticks executed, no samples recorded). Instances
    launched before that point are replayed into the owning shards and
    the cloud is frozen. The driver keeps the traces, metrics, sampling
    grid, stability tracker, jitter injector, and attack-strategy state
    (monitors included); everything per-host moves to the workers, and
    their rows and instance reads ride the pipe replies. Results are
    bit-identical to the serial path on equal seeds — the golden-trace tests in
    ``tests/sim/test_parallel.py`` and ``tests/attack`` enforce it
    sample-for-sample.
    """

    def __init__(
        self,
        sim,
        workers: int,
        resume_dir: Optional[str] = None,
    ):
        if workers < 1:
            raise SimulationError(f"parallel needs at least one worker: {workers}")
        self.sim = sim
        self._validate_fresh(sim)
        config = sim.config
        self.total_servers = config.servers
        manifest = None
        if resume_dir is not None:
            manifest = load_manifest(resume_dir)
            pinned = manifest["config"]
            if pinned != config:
                raise SimulationError(
                    "checkpoint was taken from a differently built"
                    " simulation; resume needs an identically constructed"
                    " one: "
                    + "; ".join(
                        f"{name}={getattr(config, name)!r} (checkpoint:"
                        f" {getattr(pinned, name)!r})"
                        for name in config.differences(pinned)
                    )
                )
        # a resumed engine's clock continues from the checkpoint instant;
        # the caller-facing replay cursor in DatacenterSimulation.run
        # no-ops the already-covered window
        self.clock = VirtualClock(
            start=sim.now if manifest is None else manifest["now"]
        )
        self._closed = False
        self.procs: list = []
        self.conns: list = []
        #: always None: the engine has no shared-memory segment. Kept
        #: only for the benchmark's segment-leak check, which reads both;
        #: they go at the next benchmark change, like
        #: ``run(control_plane=...)``
        self.plane = None
        self.cplane = None

        cfg = sim.resilience
        self._resilience = cfg
        self._barrier_timeout_s = (
            cfg.barrier_timeout_s if cfg is not None else _DEFAULT_BARRIER_TIMEOUT_S
        )
        #: per-shard respawn budget; 0 never respawns and logs no frames
        self._max_restarts = cfg.max_restarts if cfg is not None else 0
        self.res_metrics: Optional[ResilienceMetrics] = (
            ResilienceMetrics(sim.metrics.registry) if cfg is not None else None
        )

        racks = config.rack_count
        n = min(workers, racks)
        counts = [racks // n + (1 if i < racks % n else 0) for i in range(n)]
        groups: List[Tuple[int, ...]] = []
        cursor = 0
        for count in counts:
            groups.append(tuple(range(cursor, cursor + count)))
            cursor += count
        self.shard_hosts: List[List[int]] = [
            [i for r in group for i in config.rack_hosts(r)] for group in groups
        ]
        self._shard_of_host: Dict[int, int] = {}
        for idx, hosts in enumerate(self.shard_hosts):
            for i in hosts:
                self._shard_of_host[i] = idx

        #: instance id -> owning host index (from the full launch log,
        #: so ops can still be routed after driver-side dict deletions)
        self._instance_host: Dict[str, int] = {
            op[1]: op[3] for op in sim.cloud.launch_log if op[0] == "launch"
        }
        self._pending_ops: List[tuple] = []

        #: the sim's span tracer, if tracing was enabled pre-fork
        self._tracer = sim.tracer

        if manifest is not None and manifest["workers"] != n:
            raise SimulationError(
                f"checkpoint was taken with {manifest['workers']} shard"
                f" workers, this run resolved to {n}; resume with the same"
                " --parallel value"
            )
        # supervisor bookkeeping: per-shard replay logs (frames since the
        # last checkpoint), restart budgets, reply-receipt heartbeats, and
        # the snapshot each respawn restores from (None: fresh rebuild)
        self._frame_log: List[List[tuple]] = [[] for _ in range(n)]
        self._restarts: List[int] = [0] * n
        self._last_reply_wall: List[float] = [time.monotonic()] * n
        self._restore_paths: List[Optional[str]] = [None] * n
        self._ckpt_seq = 0
        self._ckpt_origin = self.clock.now
        self._prev_ckpt_seq: Optional[int] = None
        if manifest is not None:
            self._ckpt_seq = manifest["seq"]
            self._ckpt_origin = manifest["ckpt_origin"]
            self._prev_ckpt_seq = manifest["seq"]
            self._restore_paths = [
                shard_snapshot_path(resume_dir, i, manifest["seq"])
                for i in range(n)
            ]

        #: the driver's slice of the schedule (clock-jitter events only):
        #: a target-less injector drawing the serial injector's jitter
        self.faults: Optional[FaultInjector] = None
        shard_schedules: List[Optional[FaultSchedule]] = [None] * n
        fault_seed = 0
        if sim.fault_injector is not None:
            fault_seed = sim.fault_injector.rng.seed
            shard_schedules, driver_schedule = sim.fault_injector.schedule.partition(
                self.shard_hosts,
                [list(group) for group in groups],
                self.total_servers,
                racks,
            )
            self.faults = FaultInjector(
                driver_schedule, DeterministicRNG(fault_seed), kernels=()
            )
            self.faults.tracer = self._tracer

        launch_log = tuple(sim.cloud.launch_log)
        # every worker is started inside the guard: a failure anywhere in
        # start-up tears down the workers that exist
        try:
            self.ipc = IpcMetrics(workers=n, registry=sim.metrics.registry)
            sim.metrics.ipc = self.ipc
            self._specs = [
                ShardSpec(
                    config=config,
                    racks=groups[i],
                    fault_schedule=shard_schedules[i],
                    fault_seed=fault_seed,
                    launch_log=launch_log,
                    shard_index=i,
                    trace=self._tracer is not None,
                    trace_capacity=(
                        self._tracer.capacity
                        if self._tracer is not None
                        else 65536
                    ),
                    spill_dir=(
                        self._tracer.spill_dir
                        if self._tracer is not None
                        else None
                    ),
                )
                for i in range(n)
            ]
            try:
                self._ctx = multiprocessing.get_context("spawn")
            except ValueError as exc:  # pragma: no cover - platform-specific
                raise SimulationError(
                    "parallel fleet execution needs the 'spawn' process start"
                    " method, which this platform does not provide; run with"
                    " parallel=0"
                ) from exc
            for idx in range(n):
                self._start_worker(idx)
            for idx in range(n):
                try:
                    self._wait_ready(idx)
                except _ShardFailure as failure:
                    raise SimulationError(
                        f"shard worker {idx} {failure.detail}"
                    ) from failure.cause
            if manifest is not None:
                self._restore_driver_state(manifest)
        except BaseException:
            self.close()
            raise
        sim.cloud.freeze(
            "parallel shard workers own the fleet; launch instances"
            " before the first parallel run"
        )

    def _start_worker(self, idx: int) -> None:
        """Spawn shard ``idx``'s worker on a fresh pipe.

        It builds the shard from seeds, or restores it from the shard's
        latest snapshot when there is one.
        """
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(self._specs[idx], child, self._restore_paths[idx]),
            daemon=True,
        )
        proc.start()
        child.close()
        # appends at startup, replaces on respawn
        self.procs[idx : idx + 1] = [proc]
        self.conns[idx : idx + 1] = [parent]

    def _stop_worker(self, idx: int, grace: float) -> None:
        """Stop shard ``idx``'s worker and close its pipe end.

        Joins for ``grace`` seconds, then terminates, then kills; every
        wait is bounded, so a dead or wedged worker never hangs the
        driver.
        """
        proc = self.procs[idx]
        proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5)
        try:
            self.conns[idx].close()
        except OSError:  # pragma: no cover - already broken
            pass

    def _wait_ready(self, idx: int) -> None:
        """Block until shard ``idx`` reports ready (bounded, liveness-aware)."""
        msg, _ = self._receive(
            idx,
            _STARTUP_TIMEOUT_S,
            died="died during startup (exitcode {})",
            hung=f"did not come up within {_STARTUP_TIMEOUT_S:.0f}s",
        )
        if msg[0] != "ready":
            try:
                self.close()
            finally:
                raise SimulationError(
                    f"shard worker {idx} failed to build:\n{msg[1]}"
                )
        self._last_reply_wall[idx] = time.monotonic()

    def _restore_driver_state(self, manifest: dict) -> None:
        """Apply a checkpoint manifest's driver-held state (resume boot)."""
        sim = self.sim
        if (manifest["tracer"] is not None) != (self._tracer is not None):
            raise SimulationError(
                "tracing must match the checkpointed run to resume"
                " bit-identically: "
                + (
                    "the checkpoint was traced, this simulation is not"
                    if manifest["tracer"] is not None
                    else "this simulation is traced, the checkpoint was not"
                )
            )
        sample_origin, sample_count, interval = manifest["sample"]
        sim._sample_origin = sample_origin
        sim._sample_count = sample_count
        sim.sample_interval_s = interval
        self._pending_ops = list(manifest["pending_ops"])
        if manifest["faults"] is not None:
            # the manifest injector carries the schedule cursor and the
            # jitter rng state as of the checkpoint
            self.faults = manifest["faults"]
            self.faults.tracer = self._tracer
        sim.fastforward.stability.restore(manifest["stability"])
        sim.aggregate_trace = manifest["aggregate_trace"]
        sim.server_traces = manifest["server_traces"]
        counters = manifest["metrics"]
        metrics = sim.metrics
        metrics.ticks = counters["ticks"]
        metrics.base_ticks = counters["base_ticks"]
        metrics.coalesced_ticks = counters["coalesced_ticks"]
        metrics.virtual_seconds = counters["virtual_seconds"]
        metrics.coalesced_seconds = counters["coalesced_seconds"]
        metrics.reference_ticks = counters["reference_ticks"]
        metrics.samples = counters["samples"]
        if manifest["tracer"] is not None:
            self._tracer.restore_state(manifest["tracer"])
        sim.restored_extras = dict(manifest["extras"])

    @staticmethod
    def _validate_fresh(sim) -> None:
        if (
            sim.metrics.ticks
            or len(sim.aggregate_trace)
            or sim.now != sim._start_time
        ):
            raise SimulationError(
                "the first parallel run must start from a fresh simulation:"
                " shard workers rebuild the fleet from seeds and cannot"
                " adopt mid-run serial state"
            )
        # workers rebuild every kernel from the FleetConfig and the
        # launch log; a hook set on a driver-side kernel would silently
        # not follow (a power-namespace defense would run undefended)
        fleet = sim.fleet
        for label, kernel in zip(fleet.labels, fleet.kernels):
            for attr in ("rapl_read_hook", "tick_listeners"):
                if getattr(kernel, attr):
                    raise SimulationError(
                        f"host {label} has kernel.{attr} set on the driver;"
                        " shard workers rebuild hosts from the fleet config"
                        " and cannot carry it — run serially"
                    )
        for source in sim.horizon_sources:
            if getattr(source, "parallel_safe", False):
                continue
            raise SimulationError(
                "a horizon source observes driver-side hosts and cannot"
                " follow the fleet into shard workers; wrap driver-state-"
                "only callables in repro.sim.fastforward.DriverHorizon,"
                " or run serially"
            )

    # -- control-frame transport ----------------------------------------

    def _fail_shard(self, idx: int, failure: _ShardFailure) -> None:
        """Abort the run with the full evidence trail (tears everything down)."""
        age = time.monotonic() - self._last_reply_wall[idx]
        waits = self.ipc.barrier_wait_s.get(idx, 0.0)
        if failure.kind == "hung":
            what = f"hung in a barrier ({failure.detail})"
        else:
            what = f"died mid-protocol ({failure.detail})"
        try:
            self.close()
        finally:
            raise SimulationError(
                f"shard worker {idx} {what}; last reply"
                f" {age:.1f}s ago, cumulative barrier wait {waits:.1f}s"
                f" (ipc.barrier_wait_s{{shard={idx}}}); restart budget"
                f" exhausted ({self._restarts[idx]}/{self._max_restarts}"
                " respawns used); workers torn down"
            ) from failure.cause

    def _receive(
        self,
        idx: int,
        timeout_s: Optional[float] = None,
        died: str = "exitcode {}",
        hung: Optional[str] = None,
    ) -> Tuple[tuple, int]:
        """Receive shard ``idx``'s next pipe frame, bounded and liveness-aware.

        Defaults to a barrier reply (``barrier_timeout_s``). A reply
        already in the pipe is read at once; otherwise the driver waits
        on the pipe and the worker's process sentinel together. A worker
        that exited, or whose pipe end hit EOF or broke, is ``died``
        (formatted with its exit code); one silent past the timeout is
        ``hung``.
        """
        if timeout_s is None:
            timeout_s = self._barrier_timeout_s
            hung = f"no reply within barrier_timeout_s={timeout_s:.1f}"
        conn = self.conns[idx]
        proc = self.procs[idx]
        try:
            if not conn.poll(0):
                if not multiprocessing.connection.wait(
                    [conn, proc.sentinel], timeout_s
                ):
                    raise _ShardFailure("hung", hung)
                if not conn.poll(0):
                    raise EOFError("the worker exited without replying")
            return _recv_frame(conn)
        except (EOFError, OSError) as exc:
            proc.join(timeout=1.0)  # let an exiting worker report its code
            raise _ShardFailure("died", died.format(proc.exitcode), exc)

    def _handle_failure(self, idx: int, msg: tuple, failure: _ShardFailure) -> None:
        """Respawn shard ``idx`` (budget permitting) or abort the run."""
        if msg[0] in ("crash", "close") or self._restarts[idx] >= self._max_restarts:
            self._fail_shard(idx, failure)
        self._respawn_shard(idx, msg, failure)

    def _respawn_shard(
        self, idx: int, msg: tuple, failure: _ShardFailure
    ) -> None:
        """Kill/respawn one shard, replay it to the current barrier, resend.

        The replacement restores from the latest snapshot (or rebuilds
        from seeds when checkpointing is off), replays the frames logged
        since, then receives the in-flight frame again — by the time the
        caller's ``_exchange`` retries, the shard is indistinguishable
        from one that never died.
        """
        w0 = time.monotonic()
        self._restarts[idx] += 1
        self.res_metrics.record_restart()
        self._stop_worker(idx, grace=0.0)
        self._start_worker(idx)
        frames = list(self._frame_log[idx])
        if frames and frames[-1] is msg:
            # the in-flight frame is resent separately below — replaying
            # it too would double-apply it
            frames = frames[:-1]
        try:
            self._wait_ready(idx)
            self.conns[idx].send_bytes(_dumps(("replay", tuple(frames))))
            reply, _ = self._receive(idx)
        except _ShardFailure as chained:
            # the replacement died too: recurse within the restart budget
            # (the deeper call resends ``msg`` itself when it succeeds)
            self._handle_failure(idx, msg, chained)
            return
        except (EOFError, OSError) as exc:
            self._handle_failure(
                idx,
                msg,
                _ShardFailure("died", f"pipe failed during replay: {exc}", exc),
            )
            return
        if reply[0] == "error":
            try:
                self.close()
            finally:
                raise SimulationError(
                    f"respawned shard worker {idx} failed during replay"
                    f" (original failure: {failure}):\n{reply[1]}"
                ) from failure.cause
        self._last_reply_wall[idx] = time.monotonic()
        ticks = sum(len(f[1]) for f in frames if f[0] == "epoch")
        self.res_metrics.record_replay(len(frames), ticks, time.monotonic() - w0)
        self.conns[idx].send_bytes(_dumps(msg))

    def _post(self, idx: int, msg: tuple) -> int:
        """Ship one pickled control frame; returns its size in bytes.

        With a restart budget, the frame log records it first, so a
        respawned worker can replay it.
        """
        if self._max_restarts and msg[0] not in _UNLOGGED_FRAMES:
            self._frame_log[idx].append(msg)
        blob = _dumps(msg)
        try:
            self.conns[idx].send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            self._handle_failure(
                idx, msg, _ShardFailure("died", f"pipe write failed: {exc}", exc)
            )
            # _handle_failure either raised or respawned + resent msg
        return len(blob)

    def _exchange(self, msgs: List[tuple], shard: Optional[int] = None) -> list:
        """Post frames, then collect their replies in shard order.

        ``msgs[i]`` goes to shard ``i``; with ``shard`` set, the single
        frame ``msgs[0]`` goes to that shard alone. The one round-trip
        path: liveness, respawn, barrier-wait and busy accounting, error
        teardown, span ingestion and the ``barrier.<verb>`` span.
        """
        if self._closed:
            raise SimulationError("parallel engine is closed")
        tracer = self._tracer
        trace_on = tracer is not None and tracer.enabled
        if trace_on:
            w0 = time.perf_counter()
        shards = range(len(msgs)) if shard is None else (shard,)
        sent = [self._post(idx, msg) for idx, msg in zip(shards, msgs)]
        ipc = self.ipc
        out = []
        for idx, msg, nbytes in zip(shards, msgs, sent):
            while True:
                t0 = time.perf_counter()
                try:
                    reply, received = self._receive(idx)
                    break
                except _ShardFailure as failure:
                    # respawned and resent: collect from the new worker
                    self._handle_failure(idx, msg, failure)
            self._last_reply_wall[idx] = time.monotonic()
            # epoch frames amortize their round trip over the batched ticks
            ipc.record_barrier_wait(
                idx,
                time.perf_counter() - t0,
                ticks=len(msg[1]) if msg[0] == "epoch" else 1,
            )
            ipc.record_frame(nbytes, received)
            if reply[0] == "error":
                # the other shards' replies to this exchange stay unread
                # and this shard stopped mid-frame: tear down rather than
                # let a later frame read a stale reply
                try:
                    self.close()
                finally:
                    raise SimulationError(
                        f"shard worker {idx} failed; workers torn down:"
                        f"\n{reply[1]}"
                    )
            _, result, busy_s, spans = reply
            ipc.record_busy(idx, busy_s)
            if spans and tracer is not None:
                # piggybacked worker trace flush: merge into the driver tracer
                tracer.ingest(spans)
            out.append(result)
        if trace_on:
            now = self.clock.now
            attrs = {"track": "barrier"}
            if shard is None:
                attrs["shards"] = len(msgs)
            else:
                attrs["shard"] = shard
            if msgs[0][0] == "epoch":
                attrs["ticks"] = len(msgs[0][1])
            tracer.add_span(
                "barrier." + msgs[0][0],
                now,
                now,
                time.perf_counter() - w0,
                **attrs,
            )
        return out

    def _broadcast(self, msg: tuple) -> list:
        return self._exchange([msg] * len(self.conns))

    def _request(self, idx: int, msg: tuple):
        """One round trip with a single shard."""
        return self._exchange([msg], shard=idx)[0]

    def _take_ops_for(self, shard: int) -> tuple:
        """Pop this shard's queued ops, preserving their queue order."""
        keep, out = [], []
        for op in self._pending_ops:
            if self._shard_of_host[self._instance_host[op[1]]] == shard:
                out.append(op)
            else:
                keep.append(op)
        self._pending_ops = keep
        return tuple(out)

    # -- run loop --------------------------------------------------------

    def _merge_plans(self, plans) -> tuple:
        dark = set()
        safe = True
        horizon = math.inf
        for labels, _, shard_safe, shard_horizon in plans:
            dark.update(labels)
            safe = safe and shard_safe
            horizon = min(horizon, shard_horizon)
        demands = tuple(self._global_row([plan[1] for plan in plans]))
        return dark, demands, safe, horizon

    def _global_row(self, parts) -> list:
        """One row in global host order from each shard's slice-order values."""
        row = [None] * self.total_servers
        for hosts, values in zip(self.shard_hosts, parts):
            for i, watts in zip(hosts, values):
                row[i] = watts
        return row

    # -- tick bodies -----------------------------------------------------

    def _checkpoint_pending(self) -> bool:
        """Whether the run loop will checkpoint at the next barrier.

        Epoch planners stop batching right after the tick that crosses
        a ``checkpoint_every`` boundary so the snapshot lands at the
        same barrier an unbatched run would have picked.
        """
        cfg = self._resilience
        if (
            cfg is None
            or cfg.checkpoint_dir is None
            or self.sim.checkpoint_extras
        ):
            return False
        every = cfg.checkpoint_every
        return (
            self.clock.now + _EPS
            >= self._ckpt_origin + (self._ckpt_seq + 1) * every
        )

    def _plan_tick(self, step: float, floor: float) -> tuple:
        """Driver-side effects of one batched tick, in serial order.

        Advances the clock, replays driver-visible fault events at the
        new instant, and stamps the due samples with the serial sampler's
        own stamper — threading the jitter ``floor`` across the epoch
        because the trace rows themselves are folded only after the
        single epoch reply.
        """
        self.clock.advance(step)
        now = self.clock.now
        changed = self.faults is not None and self.faults.advance(now)
        stamps = self.sim._stamps_due(now, floor, self.faults)
        if stamps:
            floor = stamps[-1]
        return stamps, floor, changed

    def _fold_rows(self, stamped: list, shard_rows) -> None:
        """Fold the replies' rows into the traces, in tick order.

        ``stamped`` holds the stamps of each row-carrying tick;
        ``shard_rows`` holds each shard's rows, one per such tick.
        """
        record = self.sim._record_row
        for k, stamps in enumerate(stamped):
            row = self._global_row([rows[k] for rows in shard_rows])
            for t in stamps:
                record(t, row)

    def _epoch(self, remaining: float, dt: float, coalesce: bool) -> float:
        """Plan up to ``EPOCH_TICKS`` ticks and ship them as one epoch.

        With ``coalesce`` the head tick pays a real plan exchange; while
        the merged fingerprint holds (no shard event before the merged
        horizon, no breaker near its knee) the planner replays the
        serial planning loop locally, each interior tick carrying the
        plan hint the worker re-executes in-shard. Without it every tick
        is ``min(dt, remaining)`` and carries its own hint. Either way a
        sample-cadence tick asks for its row, and a checkpoint boundary
        or the run's final tick ends the epoch — so the per-tick state
        evolution is identical to ``len(frames)`` separate barriers.
        """
        sim = self.sim
        engine = sim.fastforward
        tracer = self._tracer
        trace_on = tracer is not None and tracer.enabled
        epoch_w0 = time.perf_counter()
        if coalesce:
            plans = self._broadcast(("plan", min(dt, remaining)))
            dark, demands, safe, shard_horizon = self._merge_plans(plans)
            fp = (demands, frozenset(dark))
        frames: list = []
        stamped: list = []
        spans: list = []
        floor = sim._trace_floor()
        while True:
            hint = min(dt, remaining)
            step = hint
            if coalesce:
                horizon = min(
                    shard_horizon,
                    sim.next_sample_time,
                    fold_driver_horizons(self.clock.now, sim.horizon_sources),
                )
                if self.faults is not None:
                    horizon = min(
                        horizon, self.faults.next_barrier(self.clock.now)
                    )
                step = engine.plan_step(
                    now=self.clock.now,
                    remaining=remaining,
                    base_dt=dt,
                    horizon=horizon,
                    stable=engine.stability.peek(fp) and safe,
                )
                engine.stability.observe(fp)
                if not frames:
                    hint = None  # the head plan ran in the exchange
            remaining -= step
            final = remaining <= _EPS
            t0 = self.clock.now
            stamps, floor, changed = self._plan_tick(step, floor)
            if changed:
                engine.stability.reset()
            frames.append((hint, step, bool(stamps)))
            if stamps:
                stamped.append(stamps)
            spans.append((t0, self.clock.now, step))
            if (
                final
                or len(frames) >= EPOCH_TICKS
                or self._checkpoint_pending()
                or (
                    coalesce
                    and (not safe or self.clock.now + _EPS >= shard_horizon)
                )
            ):
                break
        replies = self._broadcast(("epoch", tuple(frames)))
        if any(changed for changed, _ in replies):
            engine.stability.reset()
        self._fold_rows(stamped, [rows for _, rows in replies])
        wall = (time.perf_counter() - epoch_w0) / len(frames)
        for t0, t1, step in spans:
            sim.metrics.record_tick(step, dt)
            if trace_on:
                tracer.add_span("fleet.tick", t0, t1, wall, step=step)
        return remaining

    # -- checkpointing ---------------------------------------------------

    def checkpoint_if_due(self) -> None:
        """Write a checkpoint when a ``checkpoint_every`` boundary passed.

        Fired automatically at interior tick barriers while no strategy
        has registered ``checkpoint_extras`` (fleet runs, attack warmup),
        and at strategy *safepoints* (``sim.checkpoint_safepoint()``)
        once one has — so a snapshot never lands mid-iteration of a
        campaign loop, where driver-side strategy state would be
        unreconstructable. Boundaries are best-effort: a coalesced tick
        that jumps several boundaries yields one checkpoint, at the same
        barrier in every equally-seeded run.
        """
        cfg = self._resilience
        if cfg is None or cfg.checkpoint_dir is None or self._closed:
            return
        every = cfg.checkpoint_every
        now = self.clock.now
        if now + _EPS < self._ckpt_origin + (self._ckpt_seq + 1) * every:
            return
        seq = int(math.floor((now - self._ckpt_origin + _EPS) / every))
        self._checkpoint(seq, cfg.checkpoint_dir)

    def _checkpoint(self, seq: int, directory: str) -> None:
        """One checkpoint barrier: shard snapshots, then the manifest.

        Crash-safe ordering — every file is written atomically, shard
        snapshots land before the manifest flips to the new ``seq``, and
        only then is the previous checkpoint pruned: an interruption at
        any instant leaves a complete checkpoint on disk.
        """
        w0 = time.perf_counter()
        os.makedirs(directory, exist_ok=True)
        replies = self._broadcast(("checkpoint", seq, directory))
        total_bytes = sum(reply[0] for reply in replies)
        # capture the manifest after the broadcast so the tracer state
        # already contains this barrier.checkpoint span (golden and
        # resumed timelines agree on it)
        atomic_write(manifest_path(directory), _dumps(self._build_manifest(seq)))
        prev = self._prev_ckpt_seq
        self._prev_ckpt_seq = seq
        self._ckpt_seq = seq
        for idx in range(len(self.conns)):
            self._restore_paths[idx] = shard_snapshot_path(directory, idx, seq)
            self._frame_log[idx].clear()
        if prev is not None and prev != seq:
            for idx in range(len(self.conns)):
                try:
                    os.unlink(shard_snapshot_path(directory, idx, prev))
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self.res_metrics.record_checkpoint(
            total_bytes, time.perf_counter() - w0
        )

    def _build_manifest(self, seq: int) -> dict:
        sim = self.sim
        return {
            "version": MANIFEST_VERSION,
            "seq": seq,
            "now": self.clock.now,
            "workers": len(self.conns),
            "config": sim.config,
            "ckpt_origin": self._ckpt_origin,
            "sample": (
                sim._sample_origin,
                sim._sample_count,
                sim.sample_interval_s,
            ),
            "pending_ops": list(self._pending_ops),
            "faults": self.faults,
            "stability": sim.fastforward.stability.snapshot(),
            "aggregate_trace": sim.aggregate_trace,
            "server_traces": sim.server_traces,
            "metrics": {
                "ticks": sim.metrics.ticks,
                "base_ticks": sim.metrics.base_ticks,
                "coalesced_ticks": sim.metrics.coalesced_ticks,
                "virtual_seconds": sim.metrics.virtual_seconds,
                "coalesced_seconds": sim.metrics.coalesced_seconds,
                "reference_ticks": sim.metrics.reference_ticks,
                "samples": sim.metrics.samples,
            },
            "tracer": (
                self._tracer.snapshot_state()
                if self._tracer is not None
                else None
            ),
            "extras": {
                key: provider() for key, provider in sim.checkpoint_extras.items()
            },
        }

    def run(
        self,
        seconds: float,
        dt: float = 1.0,
        coalesce: bool = False,
        span_t0: Optional[float] = None,
        span_seconds: Optional[float] = None,
        skip_begin: bool = False,
    ) -> None:
        """Advance the sharded fleet, barrier for barrier like serial ``run``.

        ``span_t0``/``span_seconds``/``skip_begin`` serve the resume
        path only: the first live run after a resume covers the tail of
        a caller window whose head the checkpoint already executed, so
        its ``fleet.run`` span must report the caller's full window and
        no run-start barrier may fire mid-window (the golden run had
        none there).
        """
        if seconds <= 0:
            raise SimulationError(f"run needs positive duration: {seconds}")
        sim = self.sim
        engine = sim.fastforward
        n = len(self.conns)
        tracer = self._tracer
        trace_on = tracer is not None and tracer.enabled
        if trace_on:
            run_t0, run_w0 = self.clock.now, time.perf_counter()
        with WallTimer(sim.metrics):
            if not skip_begin:
                now = self.clock.now
                want_row = sim.next_sample_time <= now + _EPS
                replies = self._exchange(
                    [
                        ("begin", want_row, self._take_ops_for(i))
                        for i in range(n)
                    ]
                )
                changed = any(reply[0] for reply in replies)
                if self.faults is not None and self.faults.advance(now):
                    changed = True
                if changed:
                    engine.stability.reset()
                stamps = sim._stamps_due(now, sim._trace_floor(), self.faults)
                if stamps:
                    self._fold_rows([stamps], [[row] for _, row in replies])
            remaining = seconds
            ops = sim._ops
            while remaining > _EPS:
                remaining = self._epoch(remaining, dt, coalesce)
                if self._resilience is not None and not sim.checkpoint_extras:
                    self.checkpoint_if_due()
                if ops is not None:
                    ops.on_tick(self.clock.now)
        if trace_on:
            tracer.add_span(
                "fleet.run",
                span_t0 if span_t0 is not None else run_t0,
                self.clock.now,
                time.perf_counter() - run_w0,
                seconds=span_seconds if span_seconds is not None else seconds,
                dt=dt,
                coalesce=coalesce,
            )

    # -- attacker plumbing ----------------------------------------------

    def queue_exec(self, instance_id: str, name: str, factory, args: tuple) -> None:
        """Queue a workload exec for the owning shard's next barrier."""
        if instance_id not in self._instance_host:
            raise SimulationError(f"unknown instance: {instance_id}")
        try:
            _dumps((factory, args))
        except Exception as exc:
            raise SimulationError(
                "workload factories crossing into shard workers must be"
                f" picklable (module-level callables): {exc}"
            ) from exc
        self._pending_ops.append(("exec", instance_id, name, factory, args))

    def queue_reap(self, instance_id: str) -> None:
        """Queue a reap of finished tasks for the owning shard."""
        if instance_id not in self._instance_host:
            raise SimulationError(f"unknown instance: {instance_id}")
        self._pending_ops.append(("reap", instance_id))

    def read(self, instance_id: str, path: str) -> str:
        """Read a pseudo-file inside an instance, on its owning shard.

        One ``read`` round trip that flushes that shard's queued ops
        first — the serial reap-then-sample order around attack bursts.
        A ``ReproError`` the worker's read raised is re-raised here.
        """
        host = self._instance_host.get(instance_id)
        if host is None:
            raise SimulationError(f"unknown instance: {instance_id}")
        shard = self._shard_of_host[host]
        result = self._request(
            shard, ("read", instance_id, path, self._take_ops_for(shard))
        )
        if isinstance(result, ReproError):
            raise result
        return result

    def billing_meters(self) -> Dict[str, Tuple[int, int]]:
        """cpuacct meters of every live instance, merged across shards.

        Flushes each shard's queued ops first so meters reflect the same
        instance state a serial caller would observe.
        """
        meters: Dict[str, Tuple[int, int]] = {}
        n = len(self.conns)
        for part in self._exchange(
            [("meters", self._take_ops_for(i)) for i in range(n)]
        ):
            meters.update(part)
        return meters

    def debug_crash_worker(self, idx: int) -> None:
        """Test hook: make one worker exit abruptly (no reply, no cleanup)."""
        self._post(idx, ("crash",))

    def debug_hang_worker(self, idx: int, seconds: float) -> None:
        """Test hook: stall the worker's *next* reply by ``seconds``.

        Exercises the barrier-timeout path without real wedging: the
        worker still processes the frame correctly, it just sleeps
        before replying, so a supervisor that respawns it loses no
        state.
        """
        self._request(idx, ("hang", float(seconds)))

    # -- queries ---------------------------------------------------------

    def server_watts(self) -> List[float]:
        """Current wall watts per server, in global order (one round trip)."""
        return self._global_row(self._broadcast(("watts",)))

    def breaker_states(self) -> List[BreakerSnapshot]:
        """Rack breaker snapshots in global rack order (one round trip).

        Shards hold consecutive rack groups in ascending order, so the
        replies concatenate in global rack order.
        """
        return [
            snapshot
            for part in self._broadcast(("state",))
            for snapshot in part["breakers"]
        ]

    def fault_stats(self) -> Dict[str, int]:
        """Merged fault counters: every shard's plus the driver's own."""
        merged: Dict[str, int] = {}
        for part in self._broadcast(("state",)):
            for key, value in part["stats"].items():
                merged[key] = merged.get(key, 0) + value
        if self.faults is not None:
            for key, value in self.faults.stats.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        return dict(sorted(merged.items()))

    def trace_health(self) -> Dict[str, dict]:
        """Per-worker tracer drop/spill accounting, keyed ``shard-N``.

        One ``state`` barrier round trip — call at export/close time,
        not from the ops server thread (the driver pipe protocol is
        single-threaded request/reply).
        """
        health: Dict[str, dict] = {}
        for idx, part in enumerate(self._broadcast(("state",))):
            tracer = part.get("tracer")
            if tracer is not None:
                health[f"shard-{idx}"] = tracer
        return health

    @property
    def restart_log(self) -> List[int]:
        """Respawns used per shard (the ``/status`` restart budget view)."""
        return list(self._restarts)

    @property
    def max_restarts(self) -> int:
        """Respawn budget per shard (0: a dead shard aborts the run)."""
        return self._max_restarts

    @property
    def checkpoint_seq(self) -> int:
        """Latest committed checkpoint generation (0 before the first)."""
        return self._ckpt_seq

    def close(self) -> None:
        """Shut the workers down; the engine is unusable afterwards.

        Never hangs on a dead or wedged worker: close frames are
        best-effort, joins are bounded, and survivors are terminated
        then killed.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send_bytes(_dumps(("close",)))
            except (BrokenPipeError, OSError):
                pass
        for idx in range(len(self.procs)):
            self._stop_worker(idx, grace=10.0)
