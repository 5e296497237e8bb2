"""Checkpoint/restore and shard supervision for the parallel fleet.

The whole stack is deterministic — keyed stateless RNG draws, seeded
fault schedules, absolute decision grids — so recovery can be
*bit-identical* to an uninterrupted run: a shard restored from its last
snapshot and replayed forward over the logged control frames lands in
exactly the state the dead worker held, and a campaign resumed from disk
produces the same power traces and merged timelines as the golden run.

This module holds the pieces shared by the driver and the workers:

* :class:`ResilienceConfig` — the knobs (`checkpoint_dir`,
  `checkpoint_every`, `barrier_timeout_s`, `max_restarts`, `supervise`),
  enabled per-simulation via ``DatacenterSimulation.enable_resilience``.
* the on-disk snapshot format: one versioned pickle per shard per
  checkpoint (``shard-SS-SEQSEQ.ckpt``) plus a driver ``manifest.ckpt``,
  each written atomically (tmp file + ``os.replace``) so a crash mid-write
  never corrupts the previous checkpoint.
* :class:`ResilienceMetrics` — ``resilience.*`` counters on the
  simulation's metric registry (restarts, replayed frames/ticks,
  checkpoint bytes/seconds, recovery wall time).

The protocol-level machinery (supervisor loop, frame log, replay) lives
in :mod:`repro.sim.parallel`; the campaign-resume plumbing lives in
``DatacenterSimulation.run(resume=True)``. See ``docs/resilience.md``.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError

#: version stamp embedded in every per-shard snapshot payload
#: (2: the shard's fleet state is one ``FleetSlice`` entry; 3: the
#: pickled kernels and workloads carry the scalar tick's memo fields;
#: 4: ext4 block groups are drawn lazily and a VFS carries its patches;
#: 5: the columnar host engine packs its op log into arrays and keeps a
#: per-host ``(cpu, demand)`` mirror of live slots only; 6: the op log
#: holds one record of row deltas per host per barrier, and the engine
#: carries per-row spawn-ordinal cursors and a set of dirty hosts; 7: the
#: engine's op log and task mirror are fleet-wide columns — per-row slot
#: stacks, a dirty-host mask, no per-host slot lists or row cursors;
#: 8: the shard's ``monitors`` map observer ids to bare monitors, with no
#: shared-memory slot)
SNAPSHOT_VERSION = 8

#: version stamp embedded in the driver-side manifest
#: (4: the manifest pins the whole ``FleetConfig`` the fleet was built
#: from, and resume refuses any simulation built differently; 5: the
#: driver's jitter state is a target-less ``FaultInjector``; 6: the
#: pickled power traces hold their samples as ``array('d')``; 7: no
#: telemetry bank cursor, and the observer block is ``{owners, next_id,
#: armed, observed, observed_at}``)
MANIFEST_VERSION = 7


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for checkpointing and shard supervision.

    ``checkpoint_dir=None`` disables checkpointing (supervised respawn
    then rebuilds dead shards from scratch and replays the full frame
    log). ``supervise=False`` keeps the hang/death *detection* (the
    barrier timeout raises a descriptive ``SimulationError``) but never
    respawns.
    """

    checkpoint_dir: Optional[str] = None
    #: sim-seconds between checkpoints (taken at the first barrier at or
    #: past each ``origin + k * checkpoint_every`` boundary)
    checkpoint_every: float = 300.0
    #: wall-clock seconds the driver waits on a shard reply before the
    #: shard is declared hung
    barrier_timeout_s: float = 600.0
    #: per-shard respawn budget; exceeding it aborts the run
    max_restarts: int = 2
    #: respawn dead/hung shards (False: detect and abort only)
    supervise: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise SimulationError("checkpoint_every must be positive")
        if self.barrier_timeout_s <= 0:
            raise SimulationError("barrier_timeout_s must be positive")
        if self.max_restarts < 0:
            raise SimulationError("max_restarts must be >= 0")


# ---------------------------------------------------------------------------
# on-disk layout


def shard_snapshot_path(directory: str, shard: int, seq: int) -> str:
    """Path of shard ``shard``'s snapshot for checkpoint ``seq``."""
    return os.path.join(directory, f"shard-{shard:02d}-{seq:06d}.ckpt")


def manifest_path(directory: str) -> str:
    """Path of the driver-side manifest (always the latest checkpoint)."""
    return os.path.join(directory, "manifest.ckpt")


def atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (tmp file + rename).

    A crash mid-checkpoint must never corrupt the previous checkpoint:
    the rename either fully lands the new file or leaves the old one.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _unpickle(path: str) -> dict:
    """Load one checkpoint pickle; a file this build cannot unpickle is
    refused by name (a class it references may be gone)."""
    with open(path, "rb") as fh:
        try:
            return pickle.load(fh)
        except (pickle.UnpicklingError, AttributeError, ImportError, EOFError) as exc:
            raise SimulationError(
                f"cannot read checkpoint {path}: another build of this"
                f" package wrote it, or it is damaged ({exc!r})"
            ) from exc


def read_snapshot(path: str) -> dict:
    """Load and version-check a per-shard snapshot payload."""
    try:
        payload = _unpickle(path)
    except FileNotFoundError:
        raise SimulationError(f"checkpoint snapshot missing: {path}")
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SimulationError(
            f"snapshot {path} has version {version!r}, "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    return payload


def load_manifest(directory: str) -> dict:
    """Load and version-check the driver manifest from a checkpoint dir."""
    path = manifest_path(directory)
    try:
        manifest = _unpickle(path)
    except FileNotFoundError:
        raise SimulationError(
            f"no checkpoint manifest in {directory!r} — nothing to resume "
            "(was the run checkpointed with --checkpoint-dir?)"
        )
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise SimulationError(
            f"manifest {path} has version {version!r}, "
            f"this build reads version {MANIFEST_VERSION}"
        )
    return manifest


# ---------------------------------------------------------------------------
# metrics


class ResilienceMetrics:
    """Facade over the ``resilience.*`` instruments.

    Registered lazily by the parallel engine when a resilience config is
    present, on the same registry as ``sim.*`` / ``ipc.*`` so restarts and
    checkpoint costs show up in the unified metrics render and exports.
    """

    def __init__(self, registry) -> None:
        self._restarts = registry.counter(
            "resilience.restarts", "shard workers respawned after death/hang"
        )
        self._replayed_frames = registry.counter(
            "resilience.replayed_frames",
            "control frames replayed into respawned shards",
        )
        self._replayed_ticks = registry.counter(
            "resilience.replayed_ticks",
            "commit/step frames replayed into respawned shards",
        )
        self._checkpoints = registry.counter(
            "resilience.checkpoints", "checkpoints written"
        )
        self._checkpoint_bytes = registry.counter(
            "resilience.checkpoint_bytes", "total snapshot bytes written"
        )
        self._checkpoint_wall_s = registry.counter(
            "resilience.checkpoint_wall_s",
            "driver wall seconds spent in checkpoint barriers",
        )
        self._recovery_wall_s = registry.counter(
            "resilience.recovery_wall_s",
            "driver wall seconds spent respawning + replaying shards",
        )

    @property
    def restarts(self) -> int:
        return self._restarts.value

    @property
    def replayed_frames(self) -> int:
        return self._replayed_frames.value

    @property
    def replayed_ticks(self) -> int:
        return self._replayed_ticks.value

    @property
    def checkpoints(self) -> int:
        return self._checkpoints.value

    @property
    def checkpoint_bytes(self) -> int:
        return self._checkpoint_bytes.value

    @property
    def checkpoint_wall_s(self) -> float:
        return self._checkpoint_wall_s.value

    @property
    def recovery_wall_s(self) -> float:
        return self._recovery_wall_s.value

    def record_restart(self) -> None:
        self._restarts.value += 1

    def record_replay(self, frames: int, ticks: int, wall_s: float) -> None:
        self._replayed_frames.value += frames
        self._replayed_ticks.value += ticks
        self._recovery_wall_s.value += wall_s

    def record_checkpoint(self, nbytes: int, wall_s: float) -> None:
        self._checkpoints.value += 1
        self._checkpoint_bytes.value += nbytes
        self._checkpoint_wall_s.value += wall_s
