"""Multi-tenancy container cloud services: the CC1–CC5 of Table I.

A :class:`ContainerCloud` is a fleet of hosts sharing one virtual clock,
an opaque placement policy (tenants cannot choose servers — the premise of
the co-residence game), utilization-based billing (the cost model behind
Section IV-B), and a provider profile combining hardware generation with a
pseudo-file masking policy.

The five provider profiles encode Table I's observations: most clouds of
the era masked almost nothing (CC1/CC2 hide only ``sched_debug``, which
many distributions compiled out), one masked the sysctl fs files, one ran
hardware without RAPL/DTS, and one (CC5) shipped customized partial views
of the CPU/memory files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import CapacityError, CloudError
from repro.kernel.config import AMD_OPTERON, INTEL_XEON_CLOUD, CpuSpec, HostConfig
from repro.kernel.kernel import Kernel
from repro.kernel.perf import PerfTuning
from repro.procfs.node import ReadContext
from repro.runtime.container import Container
from repro.runtime.engine import ContainerEngine
from repro.runtime.policy import MaskingPolicy, docker_default_policy
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG


# ----------------------------------------------------------------------
# provider profiles


def _cc5_cpuinfo_transform(text: str, ctx: ReadContext) -> str:
    """CC5's customized ``/proc/cpuinfo``: only the tenant's cores."""
    limit = 1
    if ctx.container is not None and ctx.container.cpus is not None:
        limit = len(ctx.container.cpus)
    blocks = text.strip().split("\n\n")
    kept = blocks[:limit]
    renumbered = [
        re.sub(r"processor\t: \d+", f"processor\t: {i}", block)
        for i, block in enumerate(kept)
    ]
    return "\n\n".join(renumbered) + "\n"


def _cc5_meminfo_transform(text: str, ctx: ReadContext) -> str:
    """CC5's ``/proc/meminfo``: scaled to the tenant's memory limit.

    The provider rewrites MemTotal/MemFree to the cgroup limit — but the
    *fluctuation pattern* of the scaled MemFree still follows the host
    (the "partially leaks" the paper warns advanced attackers can use).
    """
    limit = None
    if ctx.container is not None:
        limit = ctx.container.cgroup_set["memory"].state.limit_bytes
    if limit is None:
        limit = 4 * 1024 * 1024 * 1024
    limit_kb = limit // 1024
    total_kb = ctx.kernel.memory.mem_total_kb
    scale = limit_kb / total_kb if total_kb else 1.0
    out = []
    for line in text.splitlines():
        match = re.match(r"^(\w+):\s+(\d+) kB$", line)
        if match:
            out.append(f"{match.group(1)}:{int(int(match.group(2)) * scale):>15} kB")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def _cc5_stat_transform(text: str, ctx: ReadContext) -> str:
    """CC5's ``/proc/stat``: only the tenant's CPU rows, no host totals."""
    cores = ctx.container.cpus if ctx.container is not None else None
    keep = {f"cpu{c}" for c in cores} if cores else {"cpu0"}
    out = []
    for line in text.splitlines():
        head = line.split(" ", 1)[0]
        if head == "cpu" or head in ("intr", "softirq"):
            continue
        if head.startswith("cpu") and head not in keep:
            continue
        out.append(line)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ProviderProfile:
    """One commercial container cloud service's configuration."""

    name: str
    description: str
    host_config: HostConfig
    policy_factory: Callable[[], MaskingPolicy]
    servers: int = 8
    #: cores handed to each instance (the paper's CC1 gave four)
    cores_per_instance: int = 4
    memory_mb_per_instance: int = 4096
    #: $/vCPU-hour for utilization-based billing
    price_per_cpu_hour: float = 0.05


def _policy_cc1() -> MaskingPolicy:
    policy = docker_default_policy()
    policy.name = "CC1"
    policy.deny("/proc/sched_debug")
    return policy


def _policy_cc2() -> MaskingPolicy:
    policy = docker_default_policy()
    policy.name = "CC2"
    policy.deny("/proc/sched_debug")
    return policy


def _policy_cc3() -> MaskingPolicy:
    policy = docker_default_policy()
    policy.name = "CC3"
    policy.deny("/proc/sys/fs/*")
    policy.deny("/sys/fs/cgroup/net_prio/*")
    return policy


def _policy_cc4() -> MaskingPolicy:
    policy = docker_default_policy()
    policy.name = "CC4"
    policy.deny("/proc/sched_debug")
    policy.deny("/proc/timer_list")
    policy.deny("/sys/fs/cgroup/net_prio/*")
    policy.deny("/sys/devices/*")
    policy.deny("/sys/class/*")
    return policy


def _policy_cc5() -> MaskingPolicy:
    policy = docker_default_policy()
    policy.name = "CC5"
    policy.deny("/proc/locks")
    policy.deny("/proc/zoneinfo")
    policy.deny("/proc/uptime")
    policy.deny("/proc/schedstat")
    policy.deny("/proc/loadavg")
    policy.partial("/proc/stat", _cc5_stat_transform)
    policy.partial("/proc/meminfo", _cc5_meminfo_transform)
    policy.partial("/proc/cpuinfo", _cc5_cpuinfo_transform)
    policy.deny("/sys/fs/cgroup/net_prio/*")
    policy.deny("/sys/devices/*")
    policy.deny("/sys/class/*")
    return policy


PROVIDER_PROFILES: Dict[str, ProviderProfile] = {
    "CC1": ProviderProfile(
        name="CC1",
        description="bare-metal Docker cloud, default masking only",
        host_config=HostConfig(hostname="cc1-host", cpu=INTEL_XEON_CLOUD),
        policy_factory=_policy_cc1,
    ),
    "CC2": ProviderProfile(
        name="CC2",
        description="Docker-on-VM cloud, default masking only",
        host_config=HostConfig(hostname="cc2-host", cpu=INTEL_XEON_CLOUD),
        policy_factory=_policy_cc2,
    ),
    "CC3": ProviderProfile(
        name="CC3",
        description="masks sysctl fs files and net_prio",
        host_config=HostConfig(hostname="cc3-host", cpu=INTEL_XEON_CLOUD),
        policy_factory=_policy_cc3,
    ),
    "CC4": ProviderProfile(
        name="CC4",
        description="AMD hardware (no RAPL/DTS) plus sysfs masking",
        host_config=HostConfig(
            hostname="cc4-host",
            cpu=CpuSpec(
                model_name=AMD_OPTERON.model_name,
                vendor_id=AMD_OPTERON.vendor_id,
                cpu_family=AMD_OPTERON.cpu_family,
                model=AMD_OPTERON.model,
                stepping=AMD_OPTERON.stepping,
                frequency_mhz=AMD_OPTERON.frequency_mhz,
                cores=16,
                cache_size_kb=AMD_OPTERON.cache_size_kb,
                supports_rapl=False,
                supports_dts=False,
            ),
        ),
        policy_factory=_policy_cc4,
    ),
    "CC5": ProviderProfile(
        name="CC5",
        description="customized partial views of CPU/memory files",
        host_config=HostConfig(hostname="cc5-host", cpu=INTEL_XEON_CLOUD),
        policy_factory=_policy_cc5,
    ),
}


# ----------------------------------------------------------------------
# the cloud


@dataclass
class Instance:
    """A tenant's handle to one launched container instance."""

    instance_id: str
    tenant: str
    container: Container
    host_index: int
    launched_at: float
    #: cpuacct reading at launch, for billing deltas
    _cpu_ns_at_launch: int = 0
    terminated: bool = False

    def read(self, path: str) -> str:
        """Read a pseudo-file from inside the instance."""
        if self.terminated:
            raise CloudError(f"instance terminated: {self.instance_id}")
        return self.container.read(path)

    @property
    def billed_cpu_seconds(self) -> float:
        """CPU time consumed since launch (the billing meter)."""
        return (self.container.cpu_usage_ns - self._cpu_ns_at_launch) / 1e9


class CloudHost:
    """One physical server of the cloud."""

    def __init__(self, kernel: Kernel, engine: ContainerEngine, index: int):
        self.kernel = kernel
        self.engine = engine
        self.index = index


def build_cloud_host(
    profile: ProviderProfile,
    clock: "VirtualClock",
    rng: DeterministicRNG,
    index: int,
) -> CloudHost:
    """Construct server ``index`` of a fleet seeded by ``rng``.

    Every stream the host consumes is derived from ``rng`` by *name*
    (``{profile}-host-{index}``), never by draw order, so the rack-sharded
    parallel engine can rebuild any subset of the fleet in a worker
    process and get kernels bit-identical to the serial fleet's — this is
    the single construction path both use.
    """
    # fork under the provider name too: two different providers
    # seeded alike are still different physical fleets
    host_rng = rng.fork(f"{profile.name}-host-{index}")
    config = HostConfig(
        hostname=f"{profile.host_config.hostname}-{index}",
        cpu=profile.host_config.cpu,
        packages=profile.host_config.packages,
        memory_mb=profile.host_config.memory_mb,
        numa_nodes=profile.host_config.numa_nodes,
        disks=profile.host_config.disks,
        net_interfaces=profile.host_config.net_interfaces,
        kernel_version=profile.host_config.kernel_version,
        power=profile.host_config.power,
    )
    # Stagger boots: servers of one rack are installed in one
    # maintenance window but not at the same instant (the
    # /proc/uptime proximity signal of Section IV-C).
    boot_skew = host_rng.uniform("boot-skew", 0.0, 120.0)
    kernel = Kernel(config=config, clock=clock, rng=host_rng)
    kernel.boot_time = clock.now - boot_skew
    engine = ContainerEngine(kernel)
    return CloudHost(kernel=kernel, engine=engine, index=index)


class ContainerCloud:
    """A multi-tenant container cloud service."""

    def __init__(
        self,
        profile: ProviderProfile,
        seed: int = 0,
        servers: Optional[int] = None,
        start_time: float = 0.0,
        perf_tuning: PerfTuning = PerfTuning(),
    ):
        self.profile = profile
        self.clock = VirtualClock(start=start_time)
        self.rng = DeterministicRNG(seed=seed)
        self.hosts: List[CloudHost] = []
        nservers = servers if servers is not None else profile.servers
        if nservers < 1:
            raise CloudError(f"cloud needs at least one server: {nservers}")
        for i in range(nservers):
            self.hosts.append(build_cloud_host(profile, self.clock, self.rng, i))
        self._instances: Dict[str, Instance] = {}
        self._counter = 0
        #: full launch/terminate history, in order — the rack-sharded
        #: parallel engine replays it inside shard workers so container
        #: ids, core allocations and kernel state match the serial cloud
        self.launch_log: List[tuple] = []
        #: set by the parallel engine once shard workers own the hosts;
        #: any further launch/terminate would silently diverge from them
        self.frozen_reason: Optional[str] = None

    # ------------------------------------------------------------------

    def freeze(self, reason: str) -> None:
        """Reject further launches/terminations (parallel workers own hosts)."""
        self.frozen_reason = reason

    def launch_instance(self, tenant: str, cpus: Optional[int] = None) -> Instance:
        """Launch an instance for ``tenant`` on a provider-chosen server.

        Placement is random among servers with spare capacity — the tenant
        has no influence, which is what forces the paper's
        launch-check-terminate co-residence strategy.
        """
        if self.frozen_reason is not None:
            raise CloudError(f"cloud is frozen: {self.frozen_reason}")
        want = cpus if cpus is not None else self.profile.cores_per_instance
        candidates = [h for h in self.hosts if h.engine.free_cores >= want]
        if not candidates:
            raise CapacityError(f"no server has {want} free cores")
        host = self.rng.stream("placement").choice(candidates)
        self._counter += 1
        instance_id = f"i-{self._counter:05d}"
        container = host.engine.create(
            name=instance_id,
            policy=self.profile.policy_factory(),
            cpus=want,
            memory_mb=self.profile.memory_mb_per_instance,
        )
        instance = Instance(
            instance_id=instance_id,
            tenant=tenant,
            container=container,
            host_index=host.index,
            launched_at=self.clock.now,
            _cpu_ns_at_launch=container.cpu_usage_ns,
        )
        self._instances[instance_id] = instance
        self.launch_log.append(
            ("launch", instance_id, tenant, host.index, want)
        )
        return instance

    def terminate_instance(self, instance: Instance) -> None:
        """Terminate an instance and stop its billing meter."""
        if self.frozen_reason is not None:
            raise CloudError(f"cloud is frozen: {self.frozen_reason}")
        if instance.terminated:
            raise CloudError(f"already terminated: {instance.instance_id}")
        host = self.hosts[instance.host_index]
        host.engine.remove(instance.container)
        instance.terminated = True
        del self._instances[instance.instance_id]
        self.launch_log.append(
            ("terminate", instance.instance_id, instance.host_index)
        )

    def instances_of(self, tenant: str) -> List[Instance]:
        """All live instances of one tenant."""
        return [i for i in self._instances.values() if i.tenant == tenant]

    def bill(self, tenant: str) -> float:
        """Utilization-based bill in dollars for a tenant's live instances."""
        cpu_hours = sum(
            i.billed_cpu_seconds / 3600.0 for i in self.instances_of(tenant)
        )
        return cpu_hours * self.profile.price_per_cpu_hour

    # ------------------------------------------------------------------

    def tick(self, dt: float) -> None:
        """Advance the shared clock and every host kernel by ``dt``.

        A cold columnar host materializes first, while its kernel and
        its columns still agree on the tick count; ticking its kernel
        behind the host engine's back would desync the two.
        """
        for host in self.hosts:
            host.engine.touch_fidelity()
        self.clock.advance(dt)
        for host in self.hosts:
            host.kernel.tick(dt)

    def run(self, seconds: float, dt: float = 1.0, on_tick=None) -> None:
        """Run the whole cloud forward."""
        if seconds <= 0:
            raise CloudError(f"run needs positive duration: {seconds}")
        remaining = seconds
        while remaining > 1e-9:
            step = min(dt, remaining)
            self.tick(step)
            if on_tick is not None:
                on_tick(self)
            remaining -= step

    def host_of(self, instance: Instance) -> CloudHost:
        """Provider-side lookup (not available to tenants)."""
        return self.hosts[instance.host_index]
