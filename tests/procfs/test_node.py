"""Tests for pseudo-filesystem tree nodes and path handling."""

import pytest

from repro.errors import FileNotFoundPseudoError, PseudoFileError
from repro.kernel.namespaces import NamespaceType
from repro.procfs.node import PathIndex, PseudoDir, ReadContext, split_path


class TestPseudoDir:
    def test_nested_dirs(self):
        root = PseudoDir("proc")
        root.dir("sys").dir("kernel").file("x", lambda ctx: "1\n")
        node = PathIndex(root).nodes.get("/proc/sys/kernel/x")
        assert node is not None
        assert node.name == "x"

    def test_dir_get_or_create(self):
        root = PseudoDir("proc")
        assert root.dir("a") is root.dir("a")

    def test_duplicate_file_rejected(self):
        root = PseudoDir("proc")
        root.file("x", lambda ctx: "")
        with pytest.raises(PseudoFileError):
            root.file("x", lambda ctx: "")

    def test_file_dir_name_collision_rejected(self):
        root = PseudoDir("proc")
        root.file("x", lambda ctx: "")
        with pytest.raises(PseudoFileError):
            root.dir("x")

    def test_resolve_missing_returns_none(self):
        root = PseudoDir("proc")
        assert PathIndex(root).nodes.get("/proc/nope") is None
        root.file("x", lambda ctx: "")
        assert PathIndex(root).nodes.get("/proc/x/deeper") is None

    def test_walk_yields_all_files(self):
        root = PseudoDir("proc")
        root.file("a", lambda ctx: "")
        root.dir("d").file("b", lambda ctx: "")
        paths = {path for path, _ in PathIndex(root).files}
        assert paths == {"/proc/a", "/proc/d/b"}


class TestSplitPath:
    def test_absolute_paths(self):
        assert split_path("/proc/meminfo") == ["proc", "meminfo"]
        assert split_path("/") == []

    def test_relative_rejected(self):
        with pytest.raises(FileNotFoundPseudoError):
            split_path("proc/meminfo")


class TestReadContext:
    def test_host_context_uses_root_namespaces(self, kernel):
        ctx = ReadContext(kernel=kernel)
        assert ctx.namespace(NamespaceType.UTS).is_root
        assert not ctx.in_container

    def test_container_context_uses_container_namespaces(self, engine):
        c = engine.create(name="c1")
        ctx = c.read_context()
        assert ctx.in_container
        assert not ctx.namespace(NamespaceType.UTS).is_root

    def test_task_namespaces_win(self, engine, kernel):
        c = engine.create(name="c1")
        ctx = c.read_context()
        assert ctx.task is c.init_task
        assert ctx.namespaces is c.init_task.namespaces
