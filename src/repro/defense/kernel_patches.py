"""Stage-2 kernel patches: fix the missing namespace context checks.

Where the power-based namespace virtualizes a *new* resource, these
patches fix *existing* namespaces' blind spots (Section V-A's second
stage): the implantation channels (timer_list, locks, sched_debug — the
CVE-2017-5967 class) and the Case Study I ``net_prio.ifpriomap`` handler.

Applying a patch serves the pseudo-file through the namespace-aware
handler on one live VFS, the moral equivalent of booting that host's
patched kernel. The replacement lives in the VFS's own overlay (see
:meth:`repro.procfs.vfs.PseudoVFS.patch`): the tree it shares with
same-shape hosts is untouched, so their files stay unpatched. The
detection and co-residence tooling can then be re-run to verify the
channels are closed — without any masking policy.
"""

from __future__ import annotations

from typing import List

from repro.errors import DefenseError
from repro.procfs.render.patched import (
    render_locks_patched,
    render_sched_debug_patched,
    render_timer_list_patched,
)
from repro.procfs.render.sys_cgroup import render_ifpriomap_fixed
from repro.procfs.vfs import PseudoVFS

#: path -> (patched renderer, CVE/case-study note)
PATCHES = {
    "/proc/timer_list": (
        render_timer_list_patched,
        "CVE-2017-5967: hide foreign-namespace timers",
    ),
    "/proc/locks": (
        render_locks_patched,
        "lock table filtered by PID-namespace visibility",
    ),
    "/proc/sched_debug": (
        render_sched_debug_patched,
        "runqueue dump restricted to the reader's PID namespace",
    ),
    "/sys/fs/cgroup/net_prio/net_prio.ifpriomap": (
        render_ifpriomap_fixed,
        "Case Study I: iterate the reader's NET namespace, not init_net",
    ),
}


def apply_patch(vfs: PseudoVFS, path: str) -> str:
    """Apply one patch to a live VFS; returns the patch note."""
    patch = PATCHES.get(path)
    if patch is None:
        raise DefenseError(f"no namespace patch available for {path}")
    renderer, note = patch
    vfs.patch(path, renderer)
    return note


def apply_all_patches(vfs: PseudoVFS) -> List[str]:
    """Apply every available patch; returns the applied paths."""
    applied = []
    for path in PATCHES:
        if vfs.exists(path):
            apply_patch(vfs, path)
            applied.append(path)
    return applied
