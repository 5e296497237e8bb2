"""Renderers for ``/sys/class/powercap/intel-rapl*`` — Case Study II.

``energy_uj`` reads flow through :meth:`repro.kernel.kernel.Kernel.read_energy_uj`,
the seam where the defense's power-based namespace installs its hook. With
no hook (vanilla kernel) every reader receives the host-global MSR-backed
counter: the leak that enables the synergistic power attack.

Trees are shared by every host of one hardware shape, so a renderer
addresses its domain as ``(package_id, kind)`` — ``kind`` is the
:class:`~repro.kernel.rapl.RaplPackage` attribute ``package``, ``core``
or ``dram`` — and finds the reading host's counter through
``ctx.kernel.rapl``.
"""

from __future__ import annotations

from repro.kernel.rapl import RaplDomain
from repro.procfs.node import ReadContext


def _domain(ctx: ReadContext, package_id: int, kind: str) -> RaplDomain:
    return getattr(ctx.kernel.rapl.package(package_id), kind)


def make_energy_uj_renderer(package_id: int, kind: str):
    """``intel-rapl:*/energy_uj``: the accumulated microjoule counter."""

    def render(ctx: ReadContext) -> str:
        domain = _domain(ctx, package_id, kind)
        value = ctx.kernel.read_energy_uj(domain, reader=ctx.task)
        return f"{value}\n"

    return render


def make_rapl_name_renderer(package_id: int, kind: str):
    """``intel-rapl:*/name``: the domain label (package-0 / core / dram)."""

    def render(ctx: ReadContext) -> str:
        return f"{_domain(ctx, package_id, kind).name}\n"

    return render


def make_rapl_range_renderer(package_id: int, kind: str):
    """``intel-rapl:*/max_energy_range_uj``: the counter wrap point."""

    def render(ctx: ReadContext) -> str:
        return f"{_domain(ctx, package_id, kind).max_energy_range_uj}\n"

    return render


def make_netclass_stat_renderer(ifname: str, field: str):
    """``/sys/class/net/<if>/statistics/{rx_bytes,tx_bytes,...}``.

    Rendered from the *host* device list (Table I's ``/sys/class/*`` row):
    the sysfs tree a container sees is the one mounted from the host, so
    host NIC counters leak co-resident traffic volumes.
    """

    def render(ctx: ReadContext) -> str:
        k = ctx.kernel
        dev = k.netdev.device(k.netdev.init_net, ifname)
        value = {
            "rx_bytes": dev.rx_bytes,
            "tx_bytes": dev.tx_bytes,
            "rx_packets": dev.rx_packets,
            "tx_packets": dev.tx_packets,
            "mtu": dev.mtu,
        }[field]
        return f"{value}\n"

    return render
