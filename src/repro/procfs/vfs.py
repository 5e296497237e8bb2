"""The pseudo-VFS: path resolution, policy enforcement, reads.

:class:`PseudoVFS` is the mount point Docker/LXC give a container: both
``/proc`` and ``/sys`` trees plus the access-control layer. Container
reads pass through the container's masking policy first — the stage-1
defense (and the per-provider restrictions of CC1–CC5) act here, exactly
like AppArmor deny rules or unreadable bind-mounts act in front of real
pseudo-files.

The trees are a pure function of the host's :class:`TreeShape`. Each
shape's trees are built once per process, on the first ``read``,
``lookup``, ``exists`` or ``walk`` of any host of that shape, and are
shared by every such host behind one flat :class:`PathIndex`. A built
tree is never mutated: stage-2 kernel patches live in a per-VFS overlay
of replacement files that resolution and walks consult first.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FileNotFoundPseudoError, PermissionDeniedError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
from repro.procfs.node import (
    PathIndex,
    PseudoFile,
    ReadContext,
    Renderer,
    TreeShape,
    split_path,
)
from repro.procfs.proctree import build_proc_tree
from repro.procfs.systree import build_sys_tree

#: the built ``/proc`` + ``/sys`` trees of every shape seen in this process
_TREES: Dict[TreeShape, PathIndex] = {}

#: trees built by this process (tests count builds with it)
tree_builds = 0


def shared_tree(shape: TreeShape) -> PathIndex:
    """The one built tree of ``shape``, built on first request."""
    global tree_builds
    tree = _TREES.get(shape)
    if tree is None:
        tree = _TREES[shape] = PathIndex(build_proc_tree(shape), build_sys_tree(shape))
        tree_builds += 1
    return tree


def _normal(path: str) -> str:
    """``path`` without empty components (``//``, trailing ``/``)."""
    return "/" + "/".join(split_path(path))


class PseudoVFS:
    """Unified view over one kernel's ``/proc`` and ``/sys`` trees."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._tree: Optional[PathIndex] = None
        #: normalized path -> replacement file served by this VFS only
        self._patched: Dict[str, PseudoFile] = {}

    # The shared tree is found again from the kernel's shape on first
    # access, so snapshots carry only the kernel and the patch overlay
    # (whose renderers are module-level functions, pickled by name).
    def __getstate__(self):
        state = {"kernel": self.kernel}
        if self._patched:
            state["patched"] = self._patched
        return state

    def __setstate__(self, state) -> None:
        self.kernel = state["kernel"]
        self._tree = None
        self._patched = state.get("patched", {})

    @property
    def tree(self) -> PathIndex:
        """This host's shared tree (built on first access)."""
        tree = self._tree
        if tree is None:
            tree = self._tree = shared_tree(TreeShape.of(self.kernel))
        return tree

    # ------------------------------------------------------------------

    def _resolve(self, path: str) -> Optional[object]:
        nodes = self.tree.nodes
        patched = self._patched
        node = patched.get(path) or nodes.get(path)
        if node is None:
            path = _normal(path)
            node = patched.get(path) or nodes.get(path)
        return node

    def find(self, path: str) -> Optional[PseudoFile]:
        """The file node at ``path``, or ``None`` (no policy applied)."""
        node = self._resolve(path)
        return node if isinstance(node, PseudoFile) else None

    # ``lookup`` and ``read`` both resolve here, so a ``read`` is one call
    # into the public surface (one span when that surface is traced)
    def _file(self, path: str) -> PseudoFile:
        node = self.find(path)
        if node is None:
            raise FileNotFoundPseudoError(path)
        return node

    def lookup(self, path: str) -> PseudoFile:
        """Resolve a path to a file node (no policy applied)."""
        return self._file(path)

    def exists(self, path: str) -> bool:
        """Whether a path resolves (file or directory), pre-policy."""
        return self._resolve(path) is not None

    def patch(self, path: str, render: Renderer) -> None:
        """Serve the file at ``path`` through the namespace-aware
        ``render`` on this VFS only; the shared tree is left as built."""
        node = self.lookup(path)
        self._patched[_normal(path)] = replace(node, render=render, namespaced=True)

    def read(self, path: str, ctx: Optional[ReadContext] = None) -> str:
        """Read a pseudo-file as the given context.

        Container contexts are filtered through the container's masking
        policy: a DENY rule raises :class:`PermissionDeniedError`, a HIDE
        rule raises :class:`FileNotFoundPseudoError`, and a PARTIAL rule
        substitutes the policy's transformed view.
        """
        if ctx is None:
            ctx = ReadContext(kernel=self.kernel)
        node = self._file(path)
        faults = self.kernel.faults
        if faults is not None:
            # transient EIO faults act at the VFS layer, after existence
            # resolution and before policy (every reader sees them)
            faults.check_pseudo_read(self.kernel.clock.now, path)
        if ctx.container is not None:
            policy = ctx.container.policy
            decision = policy.check(path, node)
            if decision.denied:
                raise PermissionDeniedError(path)
            if decision.hidden:
                raise FileNotFoundPseudoError(path)
            if decision.transform is not None:
                return decision.transform(node.read(ctx), ctx)
        return node.read(ctx)

    # ------------------------------------------------------------------

    def walk(self) -> Iterator[Tuple[str, PseudoFile]]:
        """All (path, file) pairs under /proc and /sys, pre-policy."""
        files = self.tree.files
        patched = self._patched
        if not patched:
            return iter(files)
        return ((path, patched.get(path, node)) for path, node in files)

    def walk_visible(self, ctx: ReadContext) -> Iterator[str]:
        """File paths visible to a context (policy HIDEs filtered out).

        DENYed paths remain listed (like a real ``ls`` against an
        AppArmor-masked file) — only HIDEs disappear.
        """
        for path, node in self.walk():
            if ctx.container is not None:
                decision = ctx.container.policy.check(path, node)
                if decision.hidden:
                    continue
            yield path

    def leak_channel_files(self) -> List[Tuple[str, PseudoFile]]:
        """(path, node) for every file tagged with a channel id."""
        return [(path, node) for path, node in self.walk() if node.channel]
