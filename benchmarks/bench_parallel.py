"""Serial vs rack-sharded parallel fleet execution (perf trajectory).

Runs the Figure 2 substrate — the datacenter fleet at 1 s base ticks —
serially and under :mod:`repro.sim.parallel` at 8 servers / 1 rack and
64 servers / 8 racks, and records wall time, tick counts, speedup, and
the IPC profile (pickled pipe bytes, per-shard barrier waits) in
``benchmarks/out/BENCH_parallel.json`` so the perf trend is tracked per
commit. Correctness rides along: the
parallel trace must be bit-identical to the serial one (the same
golden-trace contract as ``tests/sim/test_parallel.py``, enforced here
on the benchmark fleet).

The shard pipes are the only IPC channel: each epoch reply carries its
sampled rows as bare float lists in the shard's host order. The
benchmark reconstructs what the old pickled ``(index, watts)`` row
protocol, one reply per tick, would have shipped per tick (from the
actual final-row values) and asserts the measured pipe bytes beat it at
fleet scale.

Speedup expectations are hardware-dependent: ≥ 2× at 64 servers needs a
multi-core runner (each of the 8 shards gets a core); on a single-core
box the parallel path measures IPC overhead instead. The JSON records
``cpu_count`` so consumers can interpret the numbers.

Two population benchmarks ride along (``repro.datacenter.population``):

- ``test_population_throughput`` is the perf-smoke gate for the
  columnar tenant engine: at 10^4 demand-only tenants the vectorized
  path must tick at >= 10x the per-object driver throughput.
- ``test_large_population`` runs the fleet with >= 10^5 tenants
  multiplexed over 64 hosts (micro profile) under the parallel engine
  and records tenants-ticked-per-second plus the barrier-wait share of
  worker wall time. The seed measured ~92% barrier share with one
  trivial tenant per host (shards starved between barriers); columnar
  per-shard work must pull the share below that.

``test_control_plane_round_trip`` drives the barrier transport (the
shard pipes, ``repro.sim.parallel``) on the barrier-bound extreme — 8
shards of one server each, 1 s ticks — and gates it with absolute
bounds: at most a quarter of the unbatched control-frame count
(``ticks x shards``; epoch batching folds up to 8 ticks into one round
trip), and an epoch-amortized per-tick barrier round-trip p50 of at
most ``BENCH_CONTROL_MAX_P50_US`` microseconds. The trace must match
the serial driver's bit for bit, and the straggler skew (max/median of
the workers' busy seconds, ``ipc.shard_busy_s``) of these balanced
shards must stay below 2.

Environment knobs (used by the CI perf-smoke job):

- ``BENCH_PARALLEL_CONFIGS``: comma-separated server counts to run
  (e.g. ``8`` for the smoke subset; default: all).
- ``BENCH_PARALLEL_MAX_RATIO``: fail if ``parallel_wall_s`` exceeds
  this multiple of ``serial_wall_s`` for any config (default: off).
- ``BENCH_PARALLEL_LARGE_TENANTS``: tenant count for the
  large-population config (default 102400; ``0`` skips it).
- ``BENCH_PARALLEL_MAX_BARRIER_SHARE``: barrier-share gate for the
  large-population config (default 0.92 — the seed's share; ``0``
  disables the assertion).
- ``BENCH_CONTROL_MAX_P50_US``: maximum epoch-amortized per-tick
  barrier round-trip p50, in microseconds, for the control-plane gate
  (default 10; ``0`` disables the latency assertion, the frame-count
  assertion always holds).
- ``BENCH_HOST_GATE_SERVERS``: fleet size for the columnar host-engine
  throughput gate (default 128; ``0`` skips it).
- ``BENCH_HOST_MIN_RATIO``: minimum columnar/object host-tick
  throughput ratio for that gate (default 10.0; ``0`` disables the
  assertion, the bit-identity assertion always holds).
- ``BENCH_HOST_FLEET_RACKS``: rack count for the large columnar fleet
  config (default 256; ``0`` skips it).

Two host-engine benchmarks ride along (``repro.kernel.columnar``):

- ``test_host_engine_throughput`` is the perf-smoke gate for the
  columnar host engine: at 128+ hosts the vectorized cold-host tick
  path must run at >= 10x the per-object ``Kernel.tick`` throughput,
  with the traces bit-identical (the ``docs/hostengine.md`` contract).
- ``test_host_engine_fleet`` runs a >= 256-rack fleet with
  materialized tenant containers on every host, entirely as column
  sweeps, and records ``host_ticks_per_s`` and the materialized-tenant
  throughput.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from benchmarks.conftest import write_result
from repro.datacenter.population import TenantPopulation
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.tenants import MICRO_PROFILE, DiurnalTenantDriver
from repro.sim.rng import DeterministicRNG

#: virtual seconds per measured run (1 s ticks, no coalescing: the
#: benchmark isolates the per-tick fleet loop the sharding parallelizes)
VIRTUAL_S = 900.0

ALL_CONFIGS = ((8, 8, 1), (64, 8, 8))

#: large-population config: virtual seconds, fleet shape, and the
#: barrier share the seed measured with one trivial tenant per host
VIRTUAL_S_LARGE = 300.0
LARGE_SERVERS = 64
LARGE_RACK_SIZE = 8
LARGE_WORKERS = 8
SEED_BARRIER_SHARE = 0.92

#: columnar host-engine gate: fleet size and required throughput ratio
HOST_GATE_SERVERS = 128
HOST_GATE_RACK_SIZE = 8
HOST_GATE_VIRTUAL_S = 120.0
HOST_GATE_MIN_RATIO = 10.0

#: large columnar fleet: rack count, shape, and tenant multiplexing
FLEET_RACKS = 256
FLEET_RACK_SIZE = 8
FLEET_TENANTS_PER_HOST = 4
FLEET_VIRTUAL_S = 300.0

#: control-plane gate: 8 shards of one server each — the barrier-bound
#: extreme (8 round trips per barrier, near-zero per-shard work), where
#: the control transport dominates the wall time
CONTROL_SERVERS = 8
CONTROL_RACK_SIZE = 1
CONTROL_WORKERS = 8


def _merge_bench_json(results_dir, key, value):
    """Fold one section into BENCH_parallel.json, creating it if absent.

    The speedup, throughput, and large-population tests each own one
    top-level key, so any subset of them can run (the CI smoke job runs
    the whole file; local runs may pick a single test).
    """
    path = results_dir / "BENCH_parallel.json"
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {"bench": "parallel_fleet_speedup", "cpu_count": os.cpu_count()}
    payload[key] = value
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _selected_configs():
    raw = os.environ.get("BENCH_PARALLEL_CONFIGS", "").strip()
    if not raw:
        return ALL_CONFIGS
    wanted = {int(token) for token in raw.split(",") if token.strip()}
    picked = tuple(c for c in ALL_CONFIGS if c[0] in wanted)
    if not picked:
        raise ValueError(
            f"BENCH_PARALLEL_CONFIGS={raw!r} matches no config in"
            f" {[c[0] for c in ALL_CONFIGS]}"
        )
    return picked


def _run(servers: int, rack_size: int, parallel: int):
    sim = DatacenterSimulation(
        servers=servers, rack_size=rack_size, seed=103
    )
    t0 = time.perf_counter()
    sim.run(VIRTUAL_S, dt=1.0, parallel=parallel)
    wall = time.perf_counter() - t0
    trace = (
        tuple(sim.aggregate_trace.times),
        tuple(sim.aggregate_trace.watts),
    )
    ticks = sim.metrics.ticks
    ipc = sim.metrics.ipc
    last_row = [sim.server_traces[i].watts[-1] for i in range(servers)]
    sim.close()
    return wall, ticks, trace, ipc, last_row


def _pickled_row_baseline_bytes(last_row, rack_size, workers):
    """Per-tick bytes the old pickled-row reply protocol would ship.

    The old per-tick protocol answered every step barrier with a pickled
    ``("ok", (changed, [(global_index, watts), ...]))`` reply per shard,
    rows partitioned by rack ownership. Rebuild those replies from the
    run's actual final sampled row so the estimate uses real float
    entropy, not synthetic values.
    """
    racks = [
        list(range(lo, min(lo + rack_size, len(last_row))))
        for lo in range(0, len(last_row), rack_size)
    ]
    shards = [racks[i::workers] for i in range(min(workers, len(racks)))]
    total = 0
    for shard_racks in shards:
        row = [
            (i, last_row[i]) for rack in shard_racks for i in rack
        ]
        total += len(pickle.dumps(("ok", (False, row)), pickle.HIGHEST_PROTOCOL))
    return total


def test_parallel_speedup(results_dir):
    max_ratio = float(os.environ.get("BENCH_PARALLEL_MAX_RATIO", "0") or 0)
    configs = []
    for servers, rack_size, workers in _selected_configs():
        serial_wall, serial_ticks, serial_trace, _, _ = _run(
            servers, rack_size, 0
        )
        par_wall, par_ticks, par_trace, ipc, last_row = _run(
            servers, rack_size, workers
        )
        # the parallel engine must reproduce the serial trace exactly
        assert par_trace == serial_trace
        assert par_ticks == serial_ticks
        assert ipc is not None
        measured_per_tick = ipc.bytes_per_tick(par_ticks)
        baseline_per_tick = _pickled_row_baseline_bytes(
            last_row, rack_size, workers
        )
        if servers >= 64:
            # the headline claim: batched bare-float rows beat per-tick
            # (index, watts) replies at scale
            assert measured_per_tick < baseline_per_tick, (
                f"the pipes shipped {measured_per_tick:.0f} B/tick vs"
                f" {baseline_per_tick} B/tick for pickled (index, watts) rows"
            )
        configs.append(
            {
                "servers": servers,
                "racks": servers // rack_size,
                "workers": workers,
                "virtual_seconds": VIRTUAL_S,
                "ticks": serial_ticks,
                "serial_wall_s": round(serial_wall, 3),
                "parallel_wall_s": round(par_wall, 3),
                "speedup": round(serial_wall / par_wall, 3),
                "ipc": {
                    "control_frames": ipc.control_frames,
                    "control_bytes_sent": ipc.control_bytes_sent,
                    "control_bytes_received": ipc.control_bytes_received,
                    "bytes_per_tick": round(measured_per_tick, 1),
                    "pickled_row_baseline_bytes_per_tick": baseline_per_tick,
                    "barrier_wait_s": {
                        str(k): round(v, 4)
                        for k, v in sorted(ipc.barrier_wait_s.items())
                    },
                    "barrier_wait_total_s": round(ipc.barrier_wait_total_s, 4),
                },
            }
        )
        if max_ratio > 0:
            assert par_wall <= max_ratio * serial_wall, (
                f"parallel wall {par_wall:.2f}s exceeds"
                f" {max_ratio}x serial {serial_wall:.2f}s"
                f" at {servers} servers"
            )

    _merge_bench_json(results_dir, "dt_s", 1.0)
    _merge_bench_json(results_dir, "configs", configs)

    lines = ["serial vs rack-sharded parallel fleet execution", ""]
    lines.append(
        f"{'servers':>8}{'racks':>7}{'workers':>9}"
        f"{'serial s':>10}{'parallel s':>12}{'speedup':>9}"
        f"{'ipc B/tick':>12}{'baseline':>10}{'barrier s':>11}"
    )
    for c in configs:
        ipc = c["ipc"]
        lines.append(
            f"{c['servers']:>8}{c['racks']:>7}{c['workers']:>9}"
            f"{c['serial_wall_s']:>10.2f}{c['parallel_wall_s']:>12.2f}"
            f"{c['speedup']:>8.2f}x"
            f"{ipc['bytes_per_tick']:>12.0f}"
            f"{ipc['pickled_row_baseline_bytes_per_tick']:>10}"
            f"{ipc['barrier_wait_total_s']:>11.3f}"
        )
    lines.append("")
    lines.append(f"(cpu_count={os.cpu_count()}; ≥2x at 64 servers needs a"
                 " multi-core runner; baseline = pickled-row reply protocol)")
    write_result(results_dir, "parallel_speedup", "\n".join(lines))


def _run_control_plane(parallel: int):
    """One barrier-bound run, serial (``parallel=0``) or sharded."""
    sim = DatacenterSimulation(
        servers=CONTROL_SERVERS, rack_size=CONTROL_RACK_SIZE, seed=103
    )
    t0 = time.perf_counter()
    sim.run(VIRTUAL_S, dt=1.0, parallel=parallel)
    wall = time.perf_counter() - t0
    trace = (
        tuple(sim.aggregate_trace.times),
        tuple(sim.aggregate_trace.watts),
    )
    ipc = sim.metrics.ipc
    stats = None
    if parallel:
        stats = {
            "wall_s": round(wall, 3),
            "ticks": sim.metrics.ticks,
            "pipe_control_frames": ipc.pipe_control_frames,
            "control_bytes": ipc.control_bytes,
            "round_trip_p50_us": round(ipc.round_trip_p50 * 1e6, 2),
            "barrier_wait_total_s": round(ipc.barrier_wait_total_s, 4),
            "barrier_wait_skew": round(ipc.barrier_wait_skew, 3),
            "shard_busy_s": {
                str(k): round(v, 4) for k, v in sorted(ipc.shard_busy_s.items())
            },
        }
    sim.close()
    return trace, stats


def test_control_plane_round_trip(results_dir):
    """CI gate for the barrier transport (docs/parallel.md).

    Same fleet, same seed, serial and sharded: the traces must be
    bit-identical, epoch batching must cut the control frames to at
    most a quarter of one per shard per tick, the epoch-amortized
    per-tick round-trip p50 must stay under the absolute gate, and the
    straggler skew of these one-server shards, balanced by
    construction, must stay below 2.
    """
    max_p50_us = float(os.environ.get("BENCH_CONTROL_MAX_P50_US", "") or 10.0)
    serial_trace, _ = _run_control_plane(0)
    sharded_trace, stats = _run_control_plane(CONTROL_WORKERS)

    assert sharded_trace == serial_trace
    unbatched = stats["ticks"] * CONTROL_WORKERS
    assert 0 < stats["pipe_control_frames"] * 4 <= unbatched, (
        f"{stats['pipe_control_frames']} control frames for {unbatched}"
        " shard-ticks: epochs are not batching (gate: <= 1/4)"
    )
    if max_p50_us > 0:
        assert stats["round_trip_p50_us"] <= max_p50_us, (
            f"p50 {stats['round_trip_p50_us']:.2f}us/tick over the"
            f" {max_p50_us}us gate"
        )
    assert stats["barrier_wait_skew"] < 2.0, (
        f"skew {stats['barrier_wait_skew']:.2f}x on balanced shards"
        f" (busy seconds {stats['shard_busy_s']})"
    )

    section = {
        "servers": CONTROL_SERVERS,
        "workers": CONTROL_WORKERS,
        "virtual_seconds": VIRTUAL_S,
        "gate_max_p50_us": max_p50_us,
        "sharded": stats,
    }
    _merge_bench_json(results_dir, "control_plane", section)

    write_result(
        results_dir,
        "control_plane",
        f"control plane at {CONTROL_SERVERS} shards"
        f" x {VIRTUAL_S:.0f}s\n\n"
        f"wall:            {stats['wall_s']:.2f}s\n"
        f"control frames:  {stats['pipe_control_frames']}"
        f" ({stats['control_bytes']} B pickled;"
        f" unbatched {unbatched})\n"
        f"p50 round trip:  {stats['round_trip_p50_us']:.2f}us/tick"
        f" (gate <= {max_p50_us}us)\n"
        f"barrier wait:    {stats['barrier_wait_total_s']:.3f}s\n"
        f"shard busy:      "
        + " ".join(f"{v:.3f}s" for v in stats["shard_busy_s"].values())
        + f" (skew {stats['barrier_wait_skew']:.2f}x)",
    )
    print(
        f"\ncontrol-plane p50: {stats['round_trip_p50_us']:.2f}us/tick"
        f" (gate <= {max_p50_us}us)"
    )


def test_population_throughput(results_dir):
    """Perf-smoke gate: columnar tenants >= 10x per-object throughput.

    Both paths run demand-only (no kernels, no containers) so the
    comparison isolates the demand process itself: keyed draws plus the
    target expression, scalar per object vs one array sweep per tick.
    Worker counts are cross-checked so the speed claim is about the
    *same* computation.
    """
    tenants = 10_000
    steps = 30
    interval = 60.0
    times = [(k + 1) * interval for k in range(steps)]

    drivers = [
        DiurnalTenantDriver(
            kernel=None,
            rng=DeterministicRNG(7).fork(f"tenant-{i}"),
            profile=MICRO_PROFILE,
        )
        for i in range(tenants)
    ]
    t0 = time.perf_counter()
    for now in times:
        for driver in drivers:
            driver.step(now, interval)
    obj_wall = time.perf_counter() - t0

    pop = TenantPopulation.demand_only(
        DeterministicRNG(7), tenants, profile=MICRO_PROFILE
    )
    t0 = time.perf_counter()
    for now in times:
        pop.step(now, interval)
    col_wall = time.perf_counter() - t0

    assert list(pop.worker_counts()) == [d.worker_count for d in drivers]
    tenant_ticks = tenants * steps
    obj_tps = tenant_ticks / obj_wall
    col_tps = tenant_ticks / col_wall
    ratio = col_tps / obj_tps
    assert ratio >= 10.0, (
        f"columnar path only {ratio:.1f}x the per-object drivers"
        f" ({col_tps:,.0f} vs {obj_tps:,.0f} tenant-ticks/s)"
    )

    section = {
        "tenants": tenants,
        "steps": steps,
        "object_wall_s": round(obj_wall, 4),
        "columnar_wall_s": round(col_wall, 4),
        "object_tenant_ticks_per_s": round(obj_tps, 1),
        "columnar_tenant_ticks_per_s": round(col_tps, 1),
        "speedup": round(ratio, 1),
    }
    _merge_bench_json(results_dir, "population_throughput", section)
    write_result(
        results_dir,
        "population_throughput",
        "columnar vs per-object tenant stepping (demand-only)\n\n"
        f"{tenants} tenants x {steps} adjustment steps\n"
        f"per-object: {obj_wall:.3f}s  ({obj_tps:,.0f} tenant-ticks/s)\n"
        f"columnar:   {col_wall:.3f}s  ({col_tps:,.0f} tenant-ticks/s)\n"
        f"speedup:    {ratio:.1f}x (gate: >= 10x)",
    )


def _run_host_mode(hosts: str, servers: int, virtual_s: float):
    sim = DatacenterSimulation(
        servers=servers, rack_size=HOST_GATE_RACK_SIZE, seed=103,
        tenants_per_host=2, hosts=hosts,
    )
    t0 = time.perf_counter()
    sim.run(virtual_s, dt=1.0, coalesce=False)
    wall = time.perf_counter() - t0
    trace = (
        tuple(sim.aggregate_trace.times),
        tuple(sim.aggregate_trace.watts),
    )
    return wall, sim.metrics.ticks, trace, sim


def test_host_engine_throughput(results_dir):
    """Perf-smoke gate: columnar host ticks >= 10x the per-object path.

    Same fleet, same seed, base ticks only (no coalescing: the gate
    isolates the per-tick host loop the column sweep replaces). The
    traces must be bit-identical — the columnar engine's whole claim is
    speed at zero observable difference — and the host-tick throughput
    ratio must clear ``BENCH_HOST_MIN_RATIO``.
    """
    raw = os.environ.get("BENCH_HOST_GATE_SERVERS", "").strip()
    servers = int(raw) if raw else HOST_GATE_SERVERS
    if servers <= 0:
        pytest.skip("BENCH_HOST_GATE_SERVERS=0")
    min_ratio = float(
        os.environ.get("BENCH_HOST_MIN_RATIO", "") or HOST_GATE_MIN_RATIO
    )

    obj_wall, obj_ticks, obj_trace, _ = _run_host_mode(
        "objects", servers, HOST_GATE_VIRTUAL_S
    )
    col_wall, col_ticks, col_trace, col_sim = _run_host_mode(
        "columnar", servers, HOST_GATE_VIRTUAL_S
    )
    assert col_trace == obj_trace
    assert col_ticks == obj_ticks

    obj_tps = servers * obj_ticks / obj_wall
    col_tps = servers * col_ticks / col_wall
    ratio = col_tps / obj_tps
    if min_ratio > 0:
        assert ratio >= min_ratio, (
            f"columnar host engine only {ratio:.1f}x the per-object path"
            f" ({col_tps:,.0f} vs {obj_tps:,.0f} host-ticks/s)"
        )

    stats = col_sim.host_engine.stats()
    section = {
        "servers": servers,
        "virtual_seconds": HOST_GATE_VIRTUAL_S,
        "object_wall_s": round(obj_wall, 4),
        "columnar_wall_s": round(col_wall, 4),
        "object_host_ticks_per_s": round(obj_tps, 1),
        "columnar_host_ticks_per_s": round(col_tps, 1),
        "speedup": round(ratio, 1),
        "gate_min_ratio": min_ratio,
        "cold_hosts": stats["cold"],
        "materializations": stats["materializations"],
    }
    _merge_bench_json(results_dir, "host_engine_throughput", section)
    write_result(
        results_dir,
        "host_engine_throughput",
        "columnar vs per-object host ticking (bit-identical traces)\n\n"
        f"{servers} hosts x {obj_ticks} base ticks\n"
        f"per-object: {obj_wall:.3f}s  ({obj_tps:,.0f} host-ticks/s)\n"
        f"columnar:   {col_wall:.3f}s  ({col_tps:,.0f} host-ticks/s)\n"
        f"speedup:    {ratio:.1f}x (gate: >= {min_ratio:.0f}x;"
        f" {stats['cold']}/{servers} hosts cold)",
    )


def test_host_engine_fleet(results_dir):
    """A >= 256-rack fleet ticked entirely as column sweeps.

    Every host carries materialized tenant containers (full kernels,
    cgroups, procfs — not demand-only rows), yet the steady-state tick
    never touches a kernel object: the whole fleet advances as a
    handful of numpy sweeps per barrier. Records ``host_ticks_per_s``
    and the materialized-tenant throughput for the perf trajectory.
    """
    raw = os.environ.get("BENCH_HOST_FLEET_RACKS", "").strip()
    racks = int(raw) if raw else FLEET_RACKS
    if racks <= 0:
        pytest.skip("BENCH_HOST_FLEET_RACKS=0")
    servers = racks * FLEET_RACK_SIZE

    t0 = time.perf_counter()
    sim = DatacenterSimulation(
        servers=servers, rack_size=FLEET_RACK_SIZE, seed=103,
        tenants_per_host=FLEET_TENANTS_PER_HOST, sample_interval_s=60.0,
        hosts="columnar",
    )
    build_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    sim.run(FLEET_VIRTUAL_S, dt=1.0, coalesce=False)
    wall = time.perf_counter() - t0
    ticks = sim.metrics.ticks
    stats = sim.host_engine.stats()

    host_tps = servers * ticks / wall
    tenants = servers * FLEET_TENANTS_PER_HOST
    tenant_tps = tenants * ticks / wall
    assert stats["cold"] == servers  # steady state: the whole fleet cold

    section = {
        "racks": racks,
        "servers": servers,
        "tenants_per_host": FLEET_TENANTS_PER_HOST,
        "tenants": tenants,
        "virtual_seconds": FLEET_VIRTUAL_S,
        "ticks": ticks,
        "build_wall_s": round(build_wall, 3),
        "wall_s": round(wall, 3),
        "host_ticks_per_s": round(host_tps, 1),
        "tenant_ticks_per_s": round(tenant_tps, 1),
        "cold_hosts": stats["cold"],
        "cold_host_ticks": stats["cold_host_ticks"],
        "materializations": stats["materializations"],
    }
    _merge_bench_json(results_dir, "host_engine_fleet", section)
    write_result(
        results_dir,
        "host_engine_fleet",
        "columnar host engine at datacenter scale\n\n"
        f"{racks} racks / {servers} hosts / {tenants} materialized"
        f" tenants, {ticks} base ticks\n"
        f"build: {build_wall:.1f}s   run: {wall:.2f}s wall\n"
        f"host-ticks/s:   {host_tps:,.0f}\n"
        f"tenant-ticks/s: {tenant_tps:,.0f}\n"
        f"cold hosts:     {stats['cold']}/{servers}"
        f" ({stats['materializations']} materializations)",
    )


def test_large_population(results_dir):
    """Fleet-scale population: >= 10^5 tenants under the parallel engine.

    The point of the columnar engine is that tenant count stops being
    the bottleneck: per-shard work becomes a handful of array sweeps, so
    shards spend their time computing instead of parked at the commit
    barrier. Record tenants-ticked-per-second and the barrier share of
    worker wall time; the share must come in below the seed's ~92%
    (measured with one trivial tenant per host).
    """
    raw = os.environ.get("BENCH_PARALLEL_LARGE_TENANTS", "").strip()
    tenants = int(raw) if raw else 102_400
    if tenants <= 0:
        pytest.skip("BENCH_PARALLEL_LARGE_TENANTS=0")
    per_host = max(1, tenants // LARGE_SERVERS)
    total = per_host * LARGE_SERVERS
    max_share = float(
        os.environ.get("BENCH_PARALLEL_MAX_BARRIER_SHARE", "")
        or SEED_BARRIER_SHARE
    )

    sim = DatacenterSimulation(
        servers=LARGE_SERVERS,
        rack_size=LARGE_RACK_SIZE,
        seed=103,
        tenants_per_host=per_host,
        tenant_profile=MICRO_PROFILE,
    )
    t0 = time.perf_counter()
    sim.run(VIRTUAL_S_LARGE, dt=1.0, parallel=LARGE_WORKERS)
    wall = time.perf_counter() - t0
    ticks = sim.metrics.ticks
    ipc = sim.metrics.ipc
    barrier_total = ipc.barrier_wait_total_s
    sim.close()

    tenant_ticks = total * ticks
    tps = tenant_ticks / wall
    # share of aggregate worker wall time spent parked at barriers
    barrier_share = barrier_total / (LARGE_WORKERS * wall)
    if max_share > 0:
        assert barrier_share < max_share, (
            f"barrier share {barrier_share:.1%} not below {max_share:.0%}"
            f" despite {per_host} tenants/host of columnar work"
        )

    section = {
        "servers": LARGE_SERVERS,
        "workers": LARGE_WORKERS,
        "tenants_per_host": per_host,
        "tenants": total,
        "virtual_seconds": VIRTUAL_S_LARGE,
        "ticks": ticks,
        "wall_s": round(wall, 3),
        "tenant_ticks_per_s": round(tps, 1),
        "barrier_wait_total_s": round(barrier_total, 4),
        "barrier_share": round(barrier_share, 4),
        "seed_barrier_share": SEED_BARRIER_SHARE,
    }
    _merge_bench_json(results_dir, "large_population", section)
    write_result(
        results_dir,
        "parallel_large_population",
        "large-population parallel fleet (columnar tenants)\n\n"
        f"{total} tenants ({LARGE_SERVERS} hosts x {per_host}),"
        f" {ticks} ticks in {wall:.2f}s wall\n"
        f"tenant-ticks/s: {tps:,.0f}\n"
        f"barrier share:  {barrier_share:.1%}"
        f" (seed ~{SEED_BARRIER_SHARE:.0%}; gate < {max_share:.0%})",
    )
