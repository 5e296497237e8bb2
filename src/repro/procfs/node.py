"""Pseudo-filesystem tree nodes and the read context.

A :class:`PseudoFile` couples a renderer with the metadata the detection
tooling needs: a stable channel id (used by the Table I/II machinery) and a
``namespaced`` flag recording whether the renderer consults the caller's
namespaces. The flag is *declarative documentation that the tests verify
behaviourally* — the cross-validation detector must rediscover it by
diffing, never by reading the flag.

A tree is a pure function of a :class:`TreeShape`: renderers reach host
state only through ``ctx.kernel`` and close over nothing but indices and
names, so every host of one shape can share one built tree. A
:class:`PathIndex` flattens a built tree into one ``{path: node}`` dict
and one cached file walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import FileNotFoundPseudoError, PseudoFileError
from repro.kernel.namespaces import Namespace, NamespaceType, root_namespace_set
from repro.kernel.process import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.runtime.container import Container


@dataclass
class ReadContext:
    """Who is reading a pseudo-file.

    ``task`` identifies the reading process (for pid- and
    namespace-dependent renderers); ``container`` is set when the read
    happens inside a container and carries the cgroups whose data
    container-aware renderers serve. A context with neither represents a
    root shell on the host.
    """

    kernel: "Kernel"
    task: Optional[Task] = None
    container: Optional["Container"] = None

    @property
    def namespaces(self) -> Dict[NamespaceType, Namespace]:
        """The reader's namespace set (root set for a host shell)."""
        if self.task is not None:
            return self.task.namespaces
        if self.container is not None:
            return self.container.namespaces
        return root_namespace_set(self.kernel.namespaces)

    def namespace(self, ns_type: NamespaceType) -> Namespace:
        """One namespace of the reader, defaulting to the root instance."""
        ns = self.namespaces.get(ns_type)
        if ns is None:
            ns = self.kernel.namespaces.root(ns_type)
        return ns

    @property
    def in_container(self) -> bool:
        """Whether the read originates inside a container."""
        return self.container is not None


Renderer = Callable[[ReadContext], str]


@dataclass
class PseudoFile:
    """A leaf node: one readable pseudo-file."""

    name: str
    render: Renderer
    #: stable channel identifier, e.g. "proc.meminfo"; None for files that
    #: are not (candidate) leakage channels
    channel: Optional[str] = None
    #: whether the renderer is namespace-aware (ground truth for tests)
    namespaced: bool = False

    def read(self, ctx: ReadContext) -> str:
        """Render the file for this reader."""
        return self.render(ctx)


class PseudoDir:
    """An interior node: a directory of pseudo-files/dirs."""

    def __init__(self, name: str):
        self.name = name
        self._children: Dict[str, object] = {}

    def add(self, child) -> "PseudoDir":
        """Insert a child node (returns self for chaining)."""
        if child.name in self._children:
            raise PseudoFileError(f"duplicate pseudo node: {child.name}")
        self._children[child.name] = child
        return self

    def dir(self, name: str) -> "PseudoDir":
        """Get-or-create a child directory."""
        child = self._children.get(name)
        if child is None:
            child = PseudoDir(name)
            self._children[name] = child
        if not isinstance(child, PseudoDir):
            raise PseudoFileError(f"not a directory: {name}")
        return child

    def file(
        self,
        name: str,
        render: Renderer,
        channel: Optional[str] = None,
        namespaced: bool = False,
    ) -> PseudoFile:
        """Create a file child."""
        node = PseudoFile(name=name, render=render, channel=channel, namespaced=namespaced)
        self.add(node)
        return node

    def children(self) -> List[object]:
        """All children in insertion order."""
        return list(self._children.values())


@dataclass(frozen=True)
class TreeShape:
    """The hardware a host's ``/proc`` and ``/sys`` trees depend on.

    The tree builders read nothing but this, so it is also the key under
    which hosts share one built tree.
    """

    packages: int
    #: logical CPUs across all packages
    cores: int
    numa_nodes: Tuple[int, ...]
    disks: Tuple[str, ...]
    #: the host (``init_net``) device list
    net_interfaces: Tuple[str, ...]
    has_rapl: bool
    has_coretemp: bool

    @classmethod
    def of(cls, kernel: "Kernel") -> "TreeShape":
        """The shape of one booted kernel."""
        config = kernel.config
        return cls(
            packages=config.packages,
            cores=config.total_cores,
            numa_nodes=tuple(node.node_id for node in kernel.memory.nodes),
            disks=tuple(config.disks),
            net_interfaces=tuple(
                dev.name for dev in kernel.netdev.for_each_netdev_init_net()
            ),
            has_rapl=kernel.rapl.present,
            has_coretemp=config.has_coretemp,
        )


class PathIndex:
    """Flat views of built trees: every absolute path (directories and
    files) mapped to its node, and every ``(path, file)`` pair in
    depth-first insertion order (the walk)."""

    def __init__(self, *roots: PseudoDir):
        self.nodes: Dict[str, object] = {}
        self.files: List[Tuple[str, PseudoFile]] = []
        for root in roots:
            path = f"/{root.name}"
            self.nodes[path] = root
            self._add(root, path)

    def _add(self, directory: PseudoDir, prefix: str) -> None:
        for child in directory.children():
            path = f"{prefix}/{child.name}"
            self.nodes[path] = child
            if isinstance(child, PseudoDir):
                self._add(child, path)
            else:
                self.files.append((path, child))


def split_path(path: str) -> List[str]:
    """Split an absolute pseudo path into components."""
    if not path.startswith("/"):
        raise FileNotFoundPseudoError(path)
    return [p for p in path.split("/") if p]
