"""The fleet-slice contract, checked in-process.

Both drivers run :class:`FleetSlice`: the serial simulation over every
host, each shard worker over its racks. Splitting a fleet into slices
must not change anything the drivers merge — per-host fingerprints and
trace rows, the min-reduced horizon, the and-reduced breaker verdict,
the union of dark sets, the fault-change flag — tick for tick.
"""

import pytest

from repro.datacenter.fleet import FleetConfig, FleetSlice
from repro.datacenter.topology import ServerPowerConfig, wall_power_watts
from repro.runtime.cloud import PROVIDER_PROFILES
from repro.sim.clock import VirtualClock
from repro.sim.fastforward import FastForwardEngine
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim.rng import DeterministicRNG
from tests.conftest import hold_hot

SEED = 3
SERVERS, RACK = 4, 2


def config(population, hosts):
    return FleetConfig(
        profile=PROVIDER_PROFILES["CC1"],
        seed=SEED,
        start_time=0.0,
        servers=SERVERS,
        rack_size=RACK,
        breaker_rated_watts=1300.0,
        tenant_profile=None,
        tenants_per_host=2,
        population=population,
        hosts=hosts,
        power_config=ServerPowerConfig(),
    )


def schedule():
    sched = FaultSchedule.generate(
        SEED, 600.0, servers=SERVERS, racks=2,
        rapl_per_day=400.0, eio_per_day=400.0, oom_per_day=200.0,
        jitter_per_day=0.0,
    )
    sched.add(FaultEvent(at=120.0, kind=FaultKind.MACHINE_CRASH,
                         duration_s=90.0, server=3))
    sched.add(FaultEvent(at=200.0, kind=FaultKind.BREAKER_TRIP,
                         duration_s=60.0, server=0))
    return sched


def build(cfg, racks=None):
    return FleetSlice(
        cfg, VirtualClock(start=cfg.start_time), DeterministicRNG(cfg.seed),
        racks=racks,
    )


@pytest.mark.parametrize(
    "population,hosts",
    [("columnar", "columnar"), ("columnar", "objects"), ("objects", "objects")],
)
def test_split_slices_match_the_whole_fleet(population, hosts):
    cfg = config(population, hosts)
    whole = build(cfg)
    head, tail = build(cfg, racks=(0,)), build(cfg, racks=(1,))
    assert tail.labels == (2, 3)
    sched = schedule()
    whole.install_faults(sched, SEED)
    (s_head, s_tail), driver = sched.partition(
        [head.labels, tail.labels], [[0], [1]], SERVERS, 2
    )
    assert not driver.events
    head.install_faults(s_head, SEED)
    tail.install_faults(s_tail, SEED)
    slices = (whole, head, tail)

    engine = FastForwardEngine(max_step_s=3600.0)
    for s in slices:
        s.advance_faults()
    remaining, steps, saw_dark = 600.0, [], False
    while remaining > 1e-9:
        now = whole.clock.now
        assert head.clock.now == tail.clock.now == now
        dark = [s.dark() for s in slices]
        assert dark[0] == dark[1] | dark[2]
        saw_dark = saw_dark or bool(dark[0])
        hint = min(1.0, remaining)
        plans = [s.plan(now, hint, d) for s, d in zip(slices, dark)]
        (fp, horizon), (fp_h, h_head), (fp_t, h_tail) = plans
        assert fp[2:] == fp_t and fp == fp_h + fp_t
        assert horizon == min(h_head, h_tail)
        safe = whole.breakers_safe()
        assert safe == (head.breakers_safe() and tail.breakers_safe())
        stable = engine.stability.observe((fp, frozenset(dark[0]))) and safe
        step = engine.plan_step(
            now=now, remaining=remaining, base_dt=1.0,
            horizon=horizon, stable=stable,
        )
        changed = [s.commit(step, d) for s, d in zip(slices, dark)]
        assert changed[0] == (changed[1] or changed[2])
        if changed[0]:
            engine.stability.reset()
        row = whole.row()
        assert row[2:] == tail.row() and row == head.row() + tail.row()
        steps.append(step)
        remaining -= step
    assert max(steps) > 1.0, "the run never coalesced"
    assert saw_dark, "the fault schedule never darkened a host"


def host_watts(fleet, local):
    """One host's wall watts: the wall column when cold, else its kernel."""
    he = fleet.host_engine
    if he is not None and he.is_cold(local):
        return he.wall_watts(local)
    return wall_power_watts(fleet.kernels[local], fleet.config.power_config)


def old_row(fleet):
    """The per-host trace row as the slice computed it one host at a time."""
    crashed = fleet.injector.crashed_now() if fleet.injector is not None else ()
    dark = fleet.dark()
    return [
        None if local in crashed
        else (0.0 if g in dark else host_watts(fleet, local))
        for local, g in enumerate(fleet.labels)
    ]


def old_rack_watts(fleet, crashed):
    """Each rack's total as ``sum()`` over its non-crashed members."""
    return [
        sum(
            host_watts(fleet, fleet.local(g))
            for g in members
            if fleet.local(g) not in crashed
        )
        for members in (fleet.config.rack_hosts(r) for r in fleet.rack_indices)
    ]


def old_fingerprints(fleet, dark):
    """The plan fingerprint as the slice computed it one host at a time."""
    he, pop = fleet.host_engine, fleet.population
    out = []
    for local, (g, kernel) in enumerate(zip(fleet.labels, fleet.kernels)):
        if g in dark:
            out.append(0.0)
            continue
        if he is not None and he.is_cold(local):
            fp = float(he._fp[local])
        else:
            fp = kernel.demand_fingerprint()
        out.append(fp if pop is None else fp + pop.host_demand(g))
    return tuple(out)


@pytest.mark.parametrize("hosts", ["columnar", "objects"])
def test_vector_watts_and_fingerprints_match_per_host(hosts):
    """The per-tick host-watts vector, the rack totals folded from it and
    the vector plan fingerprint equal the per-host expressions bit for
    bit, on a short last rack, a crashed host, a tripped rack and a hot
    host among cold ones."""
    cfg = FleetConfig(
        profile=PROVIDER_PROFILES["CC1"], seed=SEED, start_time=0.0,
        servers=12, rack_size=8, breaker_rated_watts=1300.0,
        tenant_profile=None, tenants_per_host=2, population="columnar",
        hosts=hosts, power_config=ServerPowerConfig(),
    )
    fleet = build(cfg)
    assert [len(rack.kernels) for rack in fleet.racks] == [8, 4]
    fleet.install_faults(
        FaultSchedule([
            FaultEvent(at=60.0, kind=FaultKind.MACHINE_CRASH,
                       duration_s=120.0, server=10),
            FaultEvent(at=150.0, kind=FaultKind.BREAKER_TRIP,
                       duration_s=90.0, server=0),
        ], seed=SEED),
        SEED,
    )
    he = fleet.host_engine
    engine = FastForwardEngine(max_step_s=3600.0)
    fleet.advance_faults()
    remaining, seen = 420.0, set()
    while remaining > 1e-9:
        now = fleet.clock.now
        if he is not None and now >= 30.0 and he.is_cold(3):
            hold_hot(he, 3)
        dark = fleet.dark()
        fp, horizon = fleet.plan(now, min(1.0, remaining), dark)
        assert fp == old_fingerprints(fleet, dark)
        stable = engine.stability.observe((fp, frozenset(dark)))
        step = engine.plan_step(
            now=now, remaining=remaining, base_dt=1.0, horizon=horizon,
            stable=stable and fleet.breakers_safe(),
        )
        if fleet.commit(step, dark):
            engine.stability.reset()
        crashed = fleet.injector.crashed_now()
        assert fleet.rack_watts(crashed) == old_rack_watts(fleet, crashed)
        if he is None:
            ids = frozenset(id(fleet.kernels[i]) for i in crashed)
            assert fleet.rack_watts(crashed) == [
                rack.wall_power(ids) for rack in fleet.racks
            ]
        assert fleet.row() == old_row(fleet)
        if crashed:
            seen.add("crashed")
        if any(rack.breaker.tripped for rack in fleet.racks):
            seen.add("tripped")
        if he is not None and 0 < he.cold_count() < he.n:
            seen.add("hot among cold")
        remaining -= step
    want = {"crashed", "tripped"} | ({"hot among cold"} if he else set())
    assert seen == want


def test_steady_ticks_elide_their_work(monkeypatch):
    """Between two tenant adjustments a 1-s tick of a cold fleet feeds no
    cool breaker, runs no tick sweep and reaches no due tenant row.

    The perfbench fleet-sharded shape (128 columnar hosts in racks of 8,
    4 tenants each); calls are counted, nothing is timed.
    """
    from repro.datacenter.breaker import CircuitBreaker
    from repro.datacenter.population import TenantPopulation
    from repro.datacenter.simulation import DatacenterSimulation
    from repro.datacenter.tenants import DiurnalProfile

    sim = DatacenterSimulation(
        servers=128, rack_size=8, seed=SEED, tenants_per_host=4,
        sample_interval_s=60.0, hosts="columnar",
        tenant_profile=DiurnalProfile(peak_hour=2.0, day_factor_range=(1.0, 1.0)),
        breaker_rated_watts=4000.0,
    )
    sim.run(61.0, dt=1.0)  # through the adjustment at 60 s
    he, pop = sim.host_engine, sim.population
    assert he.cold_count() == he.n
    totals = sim.fleet.rack_watts()
    assert all(w <= rack.breaker.rated_watts for w, rack in zip(totals, sim.racks))

    cool = []
    observe = CircuitBreaker.observe

    def counted(breaker, watts, dt, now):
        if not breaker.thermal_accumulator and 0.0 <= watts <= breaker.rated_watts:
            cool.append(breaker.name)
        return observe(breaker, watts, dt, now)

    due = []
    step_due = TenantPopulation._step_due

    def counted_due(population, *args):
        due.append(args)
        return step_due(population, *args)

    monkeypatch.setattr(CircuitBreaker, "observe", counted)
    monkeypatch.setattr(TenantPopulation, "_step_due", counted_due)
    sweeps, steps, ticks = he.stats()["sweeps"], pop.steps, pop.tenant_ticks
    sim.run(59.0, dt=1.0)
    assert sim.now == 120.0
    assert cool == []
    assert he.stats()["sweeps"] == sweeps
    assert due == []
    # the elided work is still counted
    assert pop.steps == steps + 59 and pop.tenant_ticks == ticks + 59 * pop.n
