"""Shared fixtures for the ContainerLeaks reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.kernel.kernel import Machine
from repro.runtime.engine import ContainerEngine
from repro.runtime.workload import constant


@pytest.fixture
def dev_shm():
    """A callable listing ``/dev/shm``, to check a run leaves nothing there."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return lambda: set(os.listdir("/dev/shm"))


@pytest.fixture
def machine() -> Machine:
    """A booted single-host machine with default hardware."""
    return Machine(seed=1234)


@pytest.fixture
def kernel(machine):
    """The kernel of the default machine."""
    return machine.kernel


@pytest.fixture
def engine(kernel) -> ContainerEngine:
    """A container engine on the default machine."""
    return ContainerEngine(kernel)


@pytest.fixture
def busy_machine() -> Machine:
    """A machine that has run 30 s with a compute-heavy host workload."""
    m = Machine(seed=99)
    m.kernel.spawn(
        "cruncher",
        workload=constant(
            "cruncher",
            cpu_demand=1.0,
            ipc=2.0,
            cache_miss_per_kinst=1.0,
            branch_miss_per_kinst=2.0,
            io_ops_per_sec=50.0,
            net_kbps=800.0,
        ),
    )
    m.run(30, dt=1.0)
    return m


def make_cpu_workload(
    name: str = "cpu",
    demand: float = 1.0,
    duration=None,
):
    """A generic compute workload for tests."""
    return constant(
        name,
        cpu_demand=demand,
        ipc=2.0,
        cache_miss_per_kinst=0.5,
        branch_miss_per_kinst=1.0,
        duration=duration,
    )
