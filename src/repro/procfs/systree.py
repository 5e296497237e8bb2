"""Assembly of the ``/sys`` tree for one hardware shape.

Hardware-dependent subtrees (RAPL, coretemp) are created only when the
host supports them, so provider profiles on pre-Sandy-Bridge or AMD
hardware naturally lack the corresponding channels — matching the "absent
due to hardware" cells of Table I.
"""

from __future__ import annotations

from repro.kernel.cpuidle import C_STATES
from repro.kernel.rapl import RaplPackage
from repro.procfs.node import PseudoDir, TreeShape
from repro.procfs.render import sys_cgroup, sys_devices, sys_powercap


def build_sys_tree(shape: TreeShape) -> PseudoDir:
    """Build the ``/sys`` pseudo-tree matching this hardware shape."""
    sys_root = PseudoDir("sys")

    # --- /sys/fs/cgroup/net_prio (Case Study I) ---
    net_prio = sys_root.dir("fs").dir("cgroup").dir("net_prio")
    net_prio.file(
        "net_prio.ifpriomap",
        sys_cgroup.render_ifpriomap,
        channel="sys.fs.cgroup.net_prio.ifpriomap",
    )

    # --- /sys/devices/system/node ---
    node_dir = sys_root.dir("devices").dir("system").dir("node")
    for node_id in shape.numa_nodes:
        n = node_dir.dir(f"node{node_id}")
        n.file(
            "numastat",
            sys_devices.make_numastat_renderer(node_id),
            channel="sys.devices.system.node.numastat",
        )
        n.file(
            "meminfo",
            sys_devices.make_node_meminfo_renderer(node_id),
            channel="sys.devices.system.node.meminfo",
        )
        n.file(
            "vmstat",
            sys_devices.make_node_vmstat_renderer(node_id),
            channel="sys.devices.system.node.vmstat",
        )

    # --- /sys/devices/system/cpu/cpu*/cpuidle ---
    cpu_dir = sys_root.dir("devices").dir("system").dir("cpu")
    for cpu in range(shape.cores):
        cpuidle = cpu_dir.dir(f"cpu{cpu}").dir("cpuidle")
        for state_index in range(len(C_STATES)):
            sdir = cpuidle.dir(f"state{state_index}")
            sdir.file(
                "usage",
                sys_devices.make_cpuidle_renderer(cpu, state_index, "usage"),
                channel="sys.devices.system.cpu.cpuidle.usage",
            )
            sdir.file(
                "time",
                sys_devices.make_cpuidle_renderer(cpu, state_index, "time"),
                channel="sys.devices.system.cpu.cpuidle.time",
            )
            sdir.file(
                "name", sys_devices.make_cpuidle_renderer(cpu, state_index, "name")
            )
            sdir.file(
                "latency",
                sys_devices.make_cpuidle_renderer(cpu, state_index, "latency"),
            )

    # --- /sys/devices/platform/coretemp.0 (DTS, hardware-dependent) ---
    if shape.has_coretemp:
        hwmon = (
            sys_root.dir("devices")
            .dir("platform")
            .dir("coretemp.0")
            .dir("hwmon")
            .dir("hwmon1")
        )
        hwmon.file(
            "temp1_input",
            sys_devices.make_coretemp_renderer(-1, "input"),
            channel="sys.devices.platform.coretemp.temp_input",
        )
        hwmon.file("temp1_label", sys_devices.make_coretemp_renderer(-1, "label"))
        for core in range(shape.cores):
            hwmon.file(
                f"temp{core + 2}_input",
                sys_devices.make_coretemp_renderer(core, "input"),
                channel="sys.devices.platform.coretemp.temp_input",
            )
            hwmon.file(
                f"temp{core + 2}_label",
                sys_devices.make_coretemp_renderer(core, "label"),
            )

    # --- /sys/class/powercap/intel-rapl (Case Study II, hw-dependent) ---
    # A fresh RaplPackage supplies the sysfs names; the renderers reach
    # the host's own counters through ctx.kernel.rapl.
    if shape.has_rapl:
        powercap = sys_root.dir("class").dir("powercap")
        for package_id in range(shape.packages):
            names = RaplPackage(package_id=package_id)
            pkg_dir = powercap.dir(names.package.sysfs_name)
            _add_rapl_domain(pkg_dir, package_id, "package")
            for kind in ("core", "dram"):
                sub_dir = pkg_dir.dir(getattr(names, kind).sysfs_name)
                _add_rapl_domain(sub_dir, package_id, kind)

    # --- /sys/class/net/<if>/statistics (host device list) ---
    class_net = sys_root.dir("class").dir("net")
    for ifname in shape.net_interfaces:
        stats = class_net.dir(ifname).dir("statistics")
        for field in ("rx_bytes", "tx_bytes", "rx_packets", "tx_packets"):
            stats.file(
                field,
                sys_powercap.make_netclass_stat_renderer(ifname, field),
                channel="sys.class.net.statistics",
            )

    return sys_root


def _add_rapl_domain(directory: PseudoDir, package_id: int, kind: str) -> None:
    directory.file(
        "energy_uj",
        sys_powercap.make_energy_uj_renderer(package_id, kind),
        channel="sys.class.powercap.energy_uj",
    )
    directory.file("name", sys_powercap.make_rapl_name_renderer(package_id, kind))
    directory.file(
        "max_energy_range_uj", sys_powercap.make_rapl_range_renderer(package_id, kind)
    )
