"""VFS-wide and ext4 statistics.

Covers the Table I/II channels under ``/proc/sys/fs/*`` (``dentry-state``,
``inode-nr``, ``file-nr`` — host-global caches whose absolute counts are
unique per machine and drift with host activity) and
``/proc/fs/ext4/<disk>/mb_groups`` (the multiblock allocator's buddy
statistics, which change as *anyone* on the host writes — a V=True channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import KernelError
from repro.kernel.scheduler import TickResult
from repro.sim.rng import DeterministicRNG


@dataclass
class VfsStats:
    """Host-wide VFS object counts."""

    nr_dentry: int = 85000
    nr_dentry_unused: int = 61000
    nr_inodes: int = 64000
    nr_free_inodes: int = 12000
    nr_open_files: int = 4600
    max_files: int = 1624407

    def dentry_state(self) -> str:
        """The six-field /proc/sys/fs/dentry-state payload."""
        return f"{self.nr_dentry}\t{self.nr_dentry_unused}\t45\t0\t0\t0\n"

    def inode_nr(self) -> str:
        """/proc/sys/fs/inode-nr payload."""
        return f"{self.nr_inodes}\t{self.nr_free_inodes}\n"

    def file_nr(self) -> str:
        """/proc/sys/fs/file-nr payload."""
        return f"{self.nr_open_files}\t0\t{self.max_files}\n"


@dataclass
class Ext4Group:
    """One block group in the ext4 multiblock allocator."""

    group: int
    free_blocks: int
    fragments: int
    first_free: int
    #: buddy counts for orders 2^0 .. 2^13
    buddy: List[int] = field(default_factory=lambda: [0] * 14)


class Ext4Filesystem:
    """mb_groups state for one disk.

    The block groups are drawn on first access from the disk's own named
    stream ``ext4-<disk>``, so a host that never reads ``mb_groups`` or
    writes to the disk skips the draw, and one that does sees the values
    a boot-time draw would have given.
    """

    BLOCKS_PER_GROUP = 32768

    def __init__(self, disk: str, groups: int, rng: DeterministicRNG):
        self.disk = disk
        self._ngroups = groups
        self._rng = rng
        self._groups: Optional[List[Ext4Group]] = None

    @property
    def groups(self) -> List[Ext4Group]:
        """The block groups (drawn on first access)."""
        groups = self._groups
        if groups is None:
            groups = self._groups = self._draw_groups()
        return groups

    def _draw_groups(self) -> List[Ext4Group]:
        stream = self._rng.stream(f"ext4-{self.disk}")
        groups: List[Ext4Group] = []
        for g in range(self._ngroups):
            free = stream.randint(2000, self.BLOCKS_PER_GROUP - 500)
            group = Ext4Group(
                group=g,
                free_blocks=free,
                fragments=stream.randint(1, 200),
                first_free=stream.randint(0, 2000),
            )
            remaining = free
            for order in range(13, -1, -1):
                size = 1 << order
                count = remaining // size if order > 0 else remaining
                take = stream.randint(0, max(0, count))
                group.buddy[order] = take
                remaining -= take * size
            groups.append(group)
        self._stream = stream
        return groups

    def apply_io(self, write_ops: int) -> None:
        """Writes allocate/free blocks, perturbing group statistics."""
        if write_ops <= 0:
            return
        groups = self.groups  # draws the groups before the I/O draws
        touched = min(len(groups), 1 + write_ops // 256)
        for _ in range(touched):
            group = self._stream.choice(groups)
            delta = self._stream.randint(-24, 24)
            group.free_blocks = max(
                128, min(self.BLOCKS_PER_GROUP, group.free_blocks + delta)
            )
            group.fragments = max(1, group.fragments + self._stream.randint(-2, 2))
            order = self._stream.randint(0, 8)
            group.buddy[order] = max(0, group.buddy[order] + self._stream.randint(-1, 1))


class FilesystemSubsystem:
    """VFS counters plus per-disk ext4 state."""

    def __init__(self, disks, rng: DeterministicRNG):
        self.vfs = VfsStats()
        self._rng = rng
        self.ext4: Dict[str, Ext4Filesystem] = {
            disk: Ext4Filesystem(disk, groups=16, rng=rng) for disk in disks
        }

    def ext4_for(self, disk: str) -> Ext4Filesystem:
        """The ext4 state of one disk."""
        try:
            return self.ext4[disk]
        except KeyError:
            raise KernelError(f"no ext4 filesystem on disk: {disk}")

    def tick(self, result: TickResult) -> None:
        """Drift VFS counters and ext4 groups with host activity."""
        io = result.total.io_ops
        spawn_like = result.total.syscalls // 100
        stream = self._rng.stream("vfs-drift")
        vfs = self.vfs

        # Object caches grow monotonically with activity; reclaim happens
        # in rare pressure-driven bursts, not as per-tick jitter. The
        # burst-vs-drift distinction is what puts dentry-state/inode-nr/
        # file-nr in Table II's unique-accumulator group.
        vfs.nr_dentry += io // 8 + spawn_like + 1
        vfs.nr_inodes += io // 16 + spawn_like // 2 + 1
        vfs.nr_open_files += spawn_like // 4 + 1
        vfs.nr_dentry_unused = min(
            vfs.nr_dentry - 1000, vfs.nr_dentry_unused + stream.randint(0, 30)
        )
        vfs.nr_free_inodes += stream.randint(0, 10)
        if vfs.nr_dentry > 400_000:  # reclaim burst under cache pressure
            vfs.nr_dentry = 120_000 + stream.randint(0, 5000)
            vfs.nr_dentry_unused = min(vfs.nr_dentry_unused, 61_000)
            vfs.nr_inodes = max(60_000, vfs.nr_inodes // 2)
            vfs.nr_free_inodes = min(vfs.nr_free_inodes, 12_000)
        if vfs.nr_open_files > 60_000:
            vfs.nr_open_files = 5_000 + stream.randint(0, 500)

        for fs in self.ext4.values():
            fs.apply_io(io // max(1, len(self.ext4)))
