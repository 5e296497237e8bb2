"""Memory management: NUMA nodes, zones, and the counters behind
``/proc/meminfo``, ``/proc/zoneinfo``, and the per-node sysfs files
(``numastat``, ``vmstat``, ``meminfo``).

None of these interfaces is namespaced in Linux 4.7, which is why they all
appear in Table I: a container reads the *host's* free-memory trajectory,
usable both as a co-residence trace (metric V) and as a covert channel
(metric M, indirectly — a tenant can allocate/release memory and watch
``MemFree`` move from another container).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import KernelError
from repro.kernel.config import HostConfig
from repro.kernel.scheduler import TickResult
from repro.sim.rng import DeterministicRNG, randint

PAGE_SIZE = 4096


@dataclass
class Zone:
    """One memory zone within a NUMA node."""

    name: str
    managed_pages: int
    free_pages: int
    min_pages: int
    low_pages: int
    high_pages: int

    def spanned(self) -> int:
        """Spanned page count (== managed in this model)."""
        return self.managed_pages


@dataclass
class NumaNode:
    """One NUMA node: zones plus allocation statistics."""

    node_id: int
    zones: List[Zone] = field(default_factory=list)
    numa_hit: int = 0
    numa_miss: int = 0
    numa_foreign: int = 0
    interleave_hit: int = 0
    local_node: int = 0
    other_node: int = 0

    @property
    def total_pages(self) -> int:
        return sum(z.managed_pages for z in self.zones)

    @property
    def free_pages(self) -> int:
        return sum(z.free_pages for z in self.zones)


class MemorySubsystem:
    """Host-global memory accounting."""

    #: pages the kernel itself pins at boot (text, slabs, reserved)
    _KERNEL_RESERVED_FRACTION = 0.06

    def __init__(self, config: HostConfig, rng: DeterministicRNG):
        self.config = config
        self._rng = rng
        total_pages = config.memory_bytes // PAGE_SIZE
        self.total_pages = total_pages
        self.nodes: List[NumaNode] = []
        per_node = total_pages // config.numa_nodes
        for node_id in range(config.numa_nodes):
            node = NumaNode(node_id=node_id)
            if node_id == 0:
                dma = min(4096, per_node // 64)
                dma32 = min((4 * 1024 * 1024 * 1024) // PAGE_SIZE, per_node // 2)
                normal = per_node - dma - dma32
                layout = [("DMA", dma), ("DMA32", dma32), ("Normal", normal)]
            else:
                layout = [("Normal", per_node)]
            for name, pages in layout:
                if pages <= 0:
                    continue
                node.zones.append(
                    Zone(
                        name=name,
                        managed_pages=pages,
                        free_pages=pages,
                        min_pages=max(16, pages // 1024),
                        low_pages=max(20, pages // 820),
                        high_pages=max(24, pages // 683),
                    )
                )
            self.nodes.append(node)

        self._kernel_pages = int(total_pages * self._KERNEL_RESERVED_FRACTION)
        # Page cache state is host-specific: how much is cached and how
        # fast it churns depends on each machine's history, so two idle
        # hosts must NOT share a MemFree trajectory (trace-matching relies
        # on exactly this distinction).
        boot_stream = rng.stream("page-cache-boot")
        self.page_cache_pages = int(
            total_pages / 50 * boot_stream.uniform(0.7, 1.6)
        )
        self._cache_decay_rate = boot_stream.uniform(0.0012, 0.0030)
        self.task_rss_pages = 0
        self.buffers_pages = total_pages // 400
        self.slab_pages = total_pages // 100
        #: per-CPU pageset hot counts (zoneinfo's "pagesets" block) —
        #: genuinely fluctuating per-CPU free-page caches, refreshed per
        #: tick; these dominate zoneinfo's changing fields, which is why
        #: the channel ranks in Table II's V group instead of the
        #: accumulator group.
        self.pcp_count: Dict[int, int] = {
            cpu: 50 + (cpu * 13) % 80 for cpu in range(config.total_cores)
        }
        self._apply_usage()

    # ------------------------------------------------------------------

    @property
    def used_pages(self) -> int:
        """Pages not free (kernel + tasks + cache + buffers + slab)."""
        return (
            self._kernel_pages
            + self.task_rss_pages
            + self.page_cache_pages
            + self.buffers_pages
            + self.slab_pages
        )

    @property
    def free_pages(self) -> int:
        """Host-wide free page count (MemFree)."""
        return max(0, self.total_pages - self.used_pages)

    @property
    def mem_total_kb(self) -> int:
        return self.total_pages * PAGE_SIZE // 1024

    @property
    def mem_free_kb(self) -> int:
        return self.free_pages * PAGE_SIZE // 1024

    @property
    def mem_available_kb(self) -> int:
        """MemAvailable estimate: free + reclaimable cache."""
        reclaimable = self.page_cache_pages * 3 // 4 + self.buffers_pages
        return (self.free_pages + reclaimable) * PAGE_SIZE // 1024

    @property
    def cached_kb(self) -> int:
        return self.page_cache_pages * PAGE_SIZE // 1024

    @property
    def buffers_kb(self) -> int:
        return self.buffers_pages * PAGE_SIZE // 1024

    @property
    def slab_kb(self) -> int:
        return self.slab_pages * PAGE_SIZE // 1024

    # ------------------------------------------------------------------

    def tick(self, result: TickResult) -> None:
        """Advance memory state from one scheduler tick."""
        dt = result.dt
        getrandbits = self._rng.stream("pcp-jitter").getrandbits
        util_of = result.utilization.get
        pcp_count = self.pcp_count
        for cpu, count in pcp_count.items():
            busy = util_of(cpu, 0.0)
            drift = randint(getrandbits, -9, 9) + int(busy * randint(getrandbits, 0, 20))
            pcp_count[cpu] = max(0, min(186, count + drift))
        # resident memory of all live workloads
        rss_bytes = sum(sample.rss_bytes for _, sample in result.task_samples)
        self.task_rss_pages = rss_bytes // PAGE_SIZE

        # page cache follows IO: grows with reads/writes, slowly reclaimed
        io_pages = int(result.total.io_ops * 4)
        decay = int(self.page_cache_pages * min(0.2, self._cache_decay_rate * dt))
        jitter = int(
            self._rng.stream("page-cache-jitter").gauss(0.0, 1.0)
            * 160
            * max(1.0, dt)
        )
        floor = self.total_pages // 100
        ceiling = self.total_pages // 3
        self.page_cache_pages = max(
            floor, min(ceiling, self.page_cache_pages + io_pages - decay + jitter)
        )

        # NUMA counters: allocations proportional to instruction volume
        allocations = max(0, int(result.total.instructions / 50000)) + io_pages
        per_node = allocations // max(1, len(self.nodes))
        for node in self.nodes:
            local = int(per_node * 0.97)
            node.numa_hit += local
            node.local_node += local
            remote = per_node - local
            node.numa_miss += remote
            node.other_node += remote

        self._apply_usage()

    def _apply_usage(self) -> None:
        """Distribute the host-wide free page count across zones."""
        free = self.free_pages
        total = max(1, self.total_pages)
        for node in self.nodes:
            for zone in node.zones:
                share = zone.managed_pages / total
                zone.free_pages = max(zone.min_pages, int(free * share))

    def node(self, node_id: int) -> NumaNode:
        """Look up a NUMA node by id."""
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KernelError(f"no such NUMA node: {node_id}")
