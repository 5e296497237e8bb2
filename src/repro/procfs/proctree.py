"""Assembly of the ``/proc`` tree for one hardware shape."""

from __future__ import annotations

from repro.procfs.node import PseudoDir, TreeShape
from repro.procfs.render import proc_core, proc_kernel, proc_net, proc_sys


def build_proc_tree(shape: TreeShape) -> PseudoDir:
    """Build the ``/proc`` pseudo-tree matching this hardware shape."""
    proc = PseudoDir("proc")

    # --- top-level status files (all host-global; Table I rows) ---
    proc.file("uptime", proc_core.render_uptime, channel="proc.uptime")
    proc.file("version", proc_core.render_version, channel="proc.version")
    proc.file("loadavg", proc_core.render_loadavg, channel="proc.loadavg")
    proc.file("stat", proc_core.render_stat, channel="proc.stat")
    proc.file("meminfo", proc_core.render_meminfo, channel="proc.meminfo")
    proc.file("zoneinfo", proc_core.render_zoneinfo, channel="proc.zoneinfo")
    proc.file("cpuinfo", proc_core.render_cpuinfo, channel="proc.cpuinfo")
    proc.file("locks", proc_kernel.render_locks, channel="proc.locks")
    proc.file("modules", proc_kernel.render_modules, channel="proc.modules")
    proc.file("timer_list", proc_kernel.render_timer_list, channel="proc.timer_list")
    proc.file("sched_debug", proc_kernel.render_sched_debug, channel="proc.sched_debug")
    proc.file("schedstat", proc_kernel.render_schedstat, channel="proc.schedstat")
    proc.file("interrupts", proc_kernel.render_interrupts, channel="proc.interrupts")
    proc.file("softirqs", proc_kernel.render_softirqs, channel="proc.softirqs")

    # --- /proc/sys ---
    sys_dir = proc.dir("sys")
    fs_dir = sys_dir.dir("fs")
    fs_dir.file(
        "dentry-state", proc_sys.render_dentry_state, channel="proc.sys.fs.dentry-state"
    )
    fs_dir.file("inode-nr", proc_sys.render_inode_nr, channel="proc.sys.fs.inode-nr")
    fs_dir.file("file-nr", proc_sys.render_file_nr, channel="proc.sys.fs.file-nr")

    kernel_dir = sys_dir.dir("kernel")
    kernel_dir.file(
        "hostname", proc_sys.render_hostname, channel="proc.sys.kernel.hostname",
        namespaced=True,
    )
    kernel_dir.file(
        "ns_last_pid", proc_sys.render_ns_last_pid,
        channel="proc.sys.kernel.ns_last_pid", namespaced=True,
    )
    random_dir = kernel_dir.dir("random")
    random_dir.file(
        "boot_id", proc_sys.render_boot_id, channel="proc.sys.kernel.random.boot_id"
    )
    random_dir.file(
        "entropy_avail",
        proc_sys.render_entropy_avail,
        channel="proc.sys.kernel.random.entropy_avail",
    )
    random_dir.file(
        "poolsize", proc_sys.render_poolsize, channel="proc.sys.kernel.random.poolsize"
    )
    random_dir.file("uuid", proc_sys.render_uuid, channel="proc.sys.kernel.random.uuid")

    sched_domain_dir = kernel_dir.dir("sched_domain")
    for cpu in range(shape.cores):
        domain0 = sched_domain_dir.dir(f"cpu{cpu}").dir("domain0")
        for field in ("max_newidle_lb_cost", "min_interval", "max_interval", "name"):
            domain0.file(
                field,
                proc_sys.make_sched_domain_renderer(cpu, field),
                channel="proc.sys.kernel.sched_domain",
            )

    # --- /proc/fs/ext4 ---
    ext4_dir = proc.dir("fs").dir("ext4")
    for disk in shape.disks:
        ext4_dir.dir(disk).file(
            "mb_groups",
            proc_sys.make_mb_groups_renderer(disk),
            channel="proc.fs.ext4.mb_groups",
        )

    # --- correctly namespaced controls ---
    proc.dir("net").file(
        "dev", proc_net.render_net_dev, channel="proc.net.dev", namespaced=True
    )
    proc.dir("self").file(
        "cgroup", proc_net.render_self_cgroup, channel="proc.self.cgroup",
        namespaced=True,
    )

    return proc
