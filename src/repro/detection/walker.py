"""The pseudo-file walker: enumerate + read in a given execution context.

One half of the Figure 1 cross-validation tool. A walker bound to a
context (host shell or container) recursively lists everything under
``/proc`` and ``/sys`` and reads each file, recording errors as outcomes
rather than failing the walk (masked files are data, not crashes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    FileNotFoundPseudoError,
    PermissionDeniedError,
    TransientReadError,
)
from repro.procfs.node import ReadContext
from repro.procfs.vfs import PseudoVFS


class ReadOutcome(enum.Enum):
    """What happened when a path was read."""

    OK = "ok"
    DENIED = "denied"  # EACCES from a masking policy
    ABSENT = "absent"  # ENOENT (hidden, or hardware not present)
    ERROR = "error"  # EIO (transient sensor/backing-store fault)


@dataclass(frozen=True)
class WalkEntry:
    """One file's read result in one context."""

    path: str
    outcome: ReadOutcome
    content: Optional[str]
    channel: Optional[str]


class PseudoWalker:
    """Recursive reader of a pseudo-filesystem in one context."""

    def __init__(self, vfs: PseudoVFS, ctx: ReadContext):
        self.vfs = vfs
        self.ctx = ctx

    def read_one(self, path: str) -> WalkEntry:
        """Read a single path, converting policy errors into outcomes.

        The node (for its channel) comes from :meth:`PseudoVFS.find`, so
        each read is one call into the VFS's ``read``/``lookup`` surface.
        """
        node = self.vfs.find(path)
        if node is None:
            return WalkEntry(path=path, outcome=ReadOutcome.ABSENT, content=None,
                             channel=None)
        try:
            content = self.vfs.read(path, self.ctx)
        except TransientReadError:
            outcome = ReadOutcome.ERROR
        except PermissionDeniedError:
            outcome = ReadOutcome.DENIED
        except FileNotFoundPseudoError:
            outcome = ReadOutcome.ABSENT
        else:
            return WalkEntry(path=path, outcome=ReadOutcome.OK, content=content,
                             channel=node.channel)
        return WalkEntry(path=path, outcome=outcome, content=None,
                         channel=node.channel)

    def walk(self, paths: Optional[List[str]] = None) -> Dict[str, WalkEntry]:
        """Read every path (default: the full tree) in this context."""
        if paths is None:
            paths = [path for path, _ in self.vfs.walk()]
        return {path: self.read_one(path) for path in paths}
