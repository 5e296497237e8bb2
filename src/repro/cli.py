"""Command-line interface: the paper's tooling as a shippable utility.

Subcommands mirror the workflow of the paper's figures:

- ``repro scan``     — cross-validate a local testbed (Figure 1, left).
- ``repro rank``     — U/V/M assessment and Table II ranking.
- ``repro inspect``  — probe the provider profiles (Table I).
- ``repro attack``   — a small synergistic-vs-periodic comparison (Fig 3).
- ``repro fleet``    — run the datacenter fleet simulation and report the
  wall-power trace (Figure 2's substrate), optionally rack-sharded
  across worker processes (``--parallel``).
- ``repro defend``   — train the model, install the namespace, report
  transparency and accuracy (Figures 8/9, abridged).
- ``repro trace``    — re-run ``fleet``/``attack``/``defend`` with span
  tracing enabled and export a Chrome ``trace_event`` timeline
  (``docs/observability.md``).
- ``repro ops serve`` — run a fleet campaign with the live operations
  plane: streamed metrics JSONL, trace spill, and ``/metrics`` /
  ``/status`` / ``/healthz`` pull endpoints (``docs/ops.md``).
- ``repro status``   — summarize an ops directory's metrics stream.
- ``repro metrics``  — run a short fleet simulation under cProfile and
  dump the unified metric registry with a per-tick-stage wall profile.

Run via ``python -m repro <subcommand>`` or the ``containerleaks``
console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _export_trace(tracer, args: argparse.Namespace, sim=None) -> None:
    """Write the merged timeline to the formats the user asked for.

    With ``sim`` given the export carries per-process ring health
    (drops/spills, worker counters collected over one state barrier) so
    ``repro.obs.validate`` can flag silently incomplete timelines.
    """
    from repro.obs.export import to_chrome_trace, to_jsonl

    if sim is not None:
        health = sim.trace_health()
    else:
        health = {tracer.track: tracer.health()}
    events = tracer.timeline()
    count = to_chrome_trace(events, args.trace_out, health=health)
    print(f"trace: {count} events -> {args.trace_out}")
    jsonl = getattr(args, "trace_jsonl", None)
    if jsonl:
        n = to_jsonl(events, jsonl)
        print(f"trace: {n} events -> {jsonl} (jsonl)")
    spilled = sum(h["spilled"] for h in health.values())
    if spilled:
        print(f"trace: {spilled} events stitched from spill segments")
    dropped = sum(h["dropped"] for h in health.values())
    if dropped:
        print(
            f"trace: ring buffer(s) dropped {dropped} events"
            " (raise capacity or enable spill)",
            file=sys.stderr,
        )


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.detection.crossvalidate import CrossValidator, LeakClass
    from repro.kernel.kernel import Machine
    from repro.runtime.engine import ContainerEngine

    machine = Machine(seed=args.seed)
    engine = ContainerEngine(machine.kernel)
    probe = engine.create(name="probe")
    machine.run(5, dt=1.0)
    report = CrossValidator(engine.vfs, probe).run()
    for leak_class in LeakClass:
        paths = report.paths_in(leak_class)
        print(f"{leak_class.value:<12} {len(paths):>4} files")
    print(f"leaking channels: {len(report.leaking_channels())}")
    if args.verbose:
        for path in report.leaks:
            print(f"  LEAK {path}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from repro.detection.metrics import ChannelAssessor, Manipulation

    assessor = ChannelAssessor(
        seed=args.seed, snapshots=args.snapshots, interval_s=5.0
    )
    glyph = {Manipulation.DIRECT: "●", Manipulation.INDIRECT: "◐",
             Manipulation.NONE: "○"}
    print(f"{'rank':<5}{'channel':<46}{'U':<3}{'V':<3}{'M':<3}{'group'}")
    for rank, a in enumerate(assessor.assess_all(), start=1):
        print(
            f"{rank:<5}{a.channel_id:<46}"
            f"{'●' if a.unique else '○':<3}{'●' if a.varies else '○':<3}"
            f"{glyph[a.manipulation]:<3}{a.group.value}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.detection.inspector import format_table1, inspect_all
    from repro.runtime.cloud import PROVIDER_PROFILES, ContainerCloud

    wanted = args.providers or sorted(PROVIDER_PROFILES)
    unknown = [p for p in wanted if p not in PROVIDER_PROFILES]
    if unknown:
        print(f"unknown providers: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(PROVIDER_PROFILES))}",
              file=sys.stderr)
        return 2
    clouds = {
        name: ContainerCloud(PROVIDER_PROFILES[name], seed=args.seed, servers=1)
        for name in wanted
    }
    print(format_table1(inspect_all(clouds)))
    print("\nlegend: ● available  ◐ partial  ○ masked/absent")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attack.monitor import CrestDetector
    from repro.attack.strategies import PeriodicAttack, SynergisticAttack
    from repro.datacenter.simulation import DatacenterSimulation
    from repro.datacenter.tenants import DiurnalProfile

    flag_error = _check_run_args(args)
    if flag_error:
        print(f"error: {flag_error}", file=sys.stderr)
        return 2
    tenants = DiurnalProfile(
        base_cores=1.0, peak_cores=1.5, bursts_per_day=200.0,
        burst_cores=5.0, burst_duration_s=45.0, noise=0.05,
    )
    trace_out = getattr(args, "trace_out", None)

    def setup(trace=False, resilient=False):
        sim = DatacenterSimulation(
            servers=args.servers, seed=args.seed, sample_interval_s=1.0,
            tenant_profile=tenants,
        )
        if trace:
            sim.enable_tracing()
        # only the synergistic campaign checkpoints; the periodic
        # baseline is cheap to rerun from scratch
        if resilient and args.checkpoint_dir:
            sim.enable_resilience(
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
        instances, covered = [], set()
        while len(covered) < args.servers:
            inst = sim.cloud.launch_instance("attacker")
            if inst.host_index in covered:
                sim.cloud.terminate_instance(inst)
            else:
                covered.add(inst.host_index)
                instances.append(inst)
        # the first run decides the execution mode: with --parallel the
        # warmup shards the fleet, and the strategies built afterwards
        # read their monitors through shard instance views
        sim.run(300.0, dt=1.0, parallel=args.parallel,
                resume=resilient and args.resume)
        return sim, instances

    mode = f" (parallel x{args.parallel})" if args.parallel else ""
    resumed = " [resumed]" if args.resume else ""
    print(f"running synergistic attack on {args.servers} servers{mode}"
          f"{resumed}...")
    sim_s, inst_s = setup(trace=bool(trace_out), resilient=True)
    try:
        syn = SynergisticAttack(
            sim_s, inst_s, burst_s=30.0, cooldown_s=300.0, max_trials=2,
            learn_s=400.0,
            detector_factory=lambda: CrestDetector(
                window=2000, threshold_fraction=0.85, min_band_watts=15.0
            ),
            resume_key="synergistic" if args.checkpoint_dir else None,
        ).run(args.duration)
        if trace_out:
            _export_trace(sim_s.tracer, args, sim_s)
    finally:
        sim_s.close()
    print("running periodic baseline...")
    sim_p, inst_p = setup()
    try:
        per = PeriodicAttack(sim_p, inst_p, burst_s=30.0, period_s=300.0).run(
            args.duration
        )
    finally:
        sim_p.close()
    print(f"\n{'strategy':>13}{'peak W':>9}{'trials':>8}{'cpu-s':>9}")
    for out in (syn, per):
        print(f"{out.strategy:>13}{out.peak_watts:>9.0f}{out.trials:>8}"
              f"{out.attacker_cpu_seconds:>9.0f}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.datacenter.simulation import DatacenterSimulation
    from repro.sim.faults import FaultSchedule

    flag_error = _check_run_args(args)
    if flag_error:
        print(f"error: {flag_error}", file=sys.stderr)
        return 2
    sim = DatacenterSimulation(
        servers=args.servers,
        rack_size=args.rack_size,
        seed=args.seed,
        sample_interval_s=args.sample_interval,
    )
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        sim.enable_tracing()
    if args.checkpoint_dir:
        sim.enable_resilience(
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    if args.faults:
        sim.install_faults(
            FaultSchedule.standard(
                args.seed, args.duration,
                servers=args.servers, racks=len(sim.racks),
            )
        )
    mode = f"parallel x{args.parallel}" if args.parallel else "serial"
    print(
        f"running {args.servers} servers / {len(sim.racks)} racks for "
        f"{args.duration:.0f}s ({mode}"
        f"{', coalescing' if args.coalesce else ''}"
        f"{', resumed' if args.resume else ''})..."
    )
    try:
        sim.run(
            args.duration, dt=args.dt,
            coalesce=args.coalesce, parallel=args.parallel,
            resume=args.resume,
        )
        trace = sim.aggregate_trace
        print(
            f"samples {len(trace)}  peak {trace.peak:.0f} W  "
            f"trough {trace.trough:.0f} W  mean {trace.mean:.0f} W  "
            f"swing {trace.swing_fraction * 100:.2f}%"
        )
        print(
            f"ticks {sim.metrics.ticks}  "
            f"reduction {sim.metrics.tick_reduction:.1f}x  "
            f"wall {sim.metrics.wall_seconds:.2f}s"
        )
        for line in sim.trip_log():
            print(f"  {line}")
        report = sim.fault_report()
        if report:
            injected = sum(
                n for key, n in report.items() if key.startswith("injected:")
            )
            print(f"faults injected: {injected}  "
                  f"trace gaps: {report['trace-gap-samples']}")
        if trace_out:
            _export_trace(sim.tracer, args, sim)
    finally:
        sim.close()
    return 0


def _cmd_defend(args: argparse.Namespace) -> int:
    from repro.defense.modeling import PowerModeler, TrainingHarness
    from repro.defense.powerns import PowerNamespaceDriver
    from repro.kernel.kernel import Machine
    from repro.kernel.rapl import unwrap_delta
    from repro.runtime.benchmarks import SPEC_BENCHMARKS
    from repro.runtime.engine import ContainerEngine

    print("training the Formula 2 power model...")
    trace_out = getattr(args, "trace_out", None)
    tracer = None
    harness_kwargs = dict(seed=args.seed, window_s=5.0,
                          windows_per_benchmark=8)
    if trace_out:
        from repro.obs.tracer import SpanTracer

        training_machine = Machine(seed=args.seed)
        tracer = SpanTracer(
            now_fn=lambda: training_machine.clock.now, track="defense"
        )
        harness_kwargs.update(machine=training_machine, tracer=tracer)
    harness = TrainingHarness(**harness_kwargs)
    harness.run_all()
    model = PowerModeler(form="paper").fit(harness)
    print(f"  core R^2={model.core_model.r_squared:.4f} "
          f"dram R^2={model.dram_model.r_squared:.4f}")

    machine = Machine(seed=args.seed + 1)
    engine = ContainerEngine(machine.kernel)
    PowerNamespaceDriver(machine.kernel, model).watch_engine(engine)
    worker = engine.create(name="worker", cpus=4)
    for core in range(4):
        worker.exec(f"w{core}",
                    workload=SPEC_BENCHMARKS["401.bzip2"].workload())
    machine.run(5, dt=1.0)

    path = "/sys/class/powercap/intel-rapl:0/energy_uj"
    pkg = machine.kernel.rapl.package(0).package
    h0, c0 = pkg.energy_uj, int(worker.read(path))
    machine.run(60, dt=1.0)
    e_rapl = unwrap_delta(pkg.energy_uj, h0) / 1e6
    e_container = unwrap_delta(int(worker.read(path)), c0) / 1e6
    xi = abs(e_rapl - e_container) / e_rapl
    print(f"accuracy: host {e_rapl:.0f} J vs container {e_container:.0f} J "
          f"-> xi={xi:.4f} (paper bound 0.05)")
    if trace_out:
        _export_trace(tracer, args)
    return 0 if xi < 0.05 else 1


def _cmd_ops_serve(args: argparse.Namespace) -> int:
    """A fleet campaign with the live operations plane attached.

    Streams registry snapshots into ``<ops dir>/metrics.jsonl``, spills
    ring-evicted trace events into ``<ops dir>/spill/``, serves
    ``/metrics``, ``/status`` and ``/healthz`` on ``--port`` while the
    campaign runs, and exports the stitched timeline to
    ``<ops dir>/trace.json`` at the end. ``--hold`` keeps the endpoint
    up for N wall seconds after the run so late readers (CI curls,
    dashboards) still get the final state.
    """
    import os
    import time

    from repro.datacenter.simulation import DatacenterSimulation
    from repro.obs.export import to_chrome_trace
    from repro.sim.faults import FaultSchedule

    flag_error = _check_run_args(args)
    if flag_error:
        print(f"error: {flag_error}", file=sys.stderr)
        return 2
    sim = DatacenterSimulation(
        servers=args.servers,
        rack_size=args.rack_size,
        seed=args.seed,
        sample_interval_s=args.sample_interval,
    )
    spill_dir = os.path.join(args.ops_dir, "spill")
    sim.enable_tracing(capacity=args.spill_capacity, spill_dir=spill_dir)
    if args.checkpoint_dir:
        sim.enable_resilience(
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    if args.faults:
        sim.install_faults(
            FaultSchedule.standard(
                args.seed, args.duration,
                servers=args.servers, racks=len(sim.racks),
            )
        )
    ops = sim.enable_ops(
        args.ops_dir,
        every_sim_s=args.metrics_every,
        every_wall_s=args.metrics_every_wall,
        port=args.port,
    )
    mode = f"parallel x{args.parallel}" if args.parallel else "serial"
    print(f"ops: serving {ops.server.url} "
          f"(/metrics /status /healthz)", flush=True)
    print(
        f"running {args.servers} servers / {len(sim.racks)} racks for "
        f"{args.duration:.0f}s ({mode}"
        f"{', resumed' if args.resume else ''})...",
        flush=True,
    )
    try:
        sim.run(
            args.duration, dt=args.dt,
            coalesce=args.coalesce, parallel=args.parallel,
            resume=args.resume,
        )
        trace = sim.aggregate_trace
        print(
            f"samples {len(trace)}  peak {trace.peak:.0f} W  "
            f"trough {trace.trough:.0f} W  mean {trace.mean:.0f} W"
        )
        health = sim.trace_health()
        trace_path = os.path.join(args.ops_dir, "trace.json")
        count = to_chrome_trace(sim.tracer.timeline(), trace_path, health=health)
        spilled = sum(h["spilled"] for h in health.values())
        print(f"trace: {count} events -> {trace_path}"
              f" ({spilled} stitched from spill)")
        print(f"ops: metrics stream -> "
              f"{os.path.join(args.ops_dir, 'metrics.jsonl')}", flush=True)
        if args.hold > 0:
            print(f"ops: holding endpoint for {args.hold:.0f}s...", flush=True)
            time.sleep(args.hold)
    finally:
        sim.close()
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Tail an ops directory's metrics stream after (or during) a run."""
    from repro.obs.ops import render_stream_tail

    try:
        print(render_stream_tail(args.ops_dir))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a short fleet sim under cProfile and dump the metric registry.

    ``subsystem.wall_s`` holds each ``Kernel.tick`` stage's cumulative
    time under :mod:`cProfile`, so the simulator carries no profiling code.
    """
    import cProfile
    import pstats

    from repro.datacenter.simulation import DatacenterSimulation

    sim = DatacenterSimulation(
        servers=args.servers, seed=args.seed, sample_interval_s=1.0
    )
    profile = cProfile.Profile()
    try:
        profile.runcall(sim.run, args.duration, dt=1.0, coalesce=args.coalesce)
    finally:
        sim.close()
    cumulative = {key: entry[3] for key, entry in pstats.Stats(profile).stats.items()}
    k = sim.cloud.hosts[0].kernel
    stages = (
        ("scheduler", k.scheduler.tick), ("memory", k.memory.tick),
        ("interrupts", k.interrupts.tick), ("filesystem", k.filesystem.tick),
        ("netdev", k.netdev.tick), ("cpuidle", k.cpuidle.tick),
        ("thermal", k.thermal.tick), ("timers", k.timers.tick),
        ("random", k.random.tick),
        ("power+rapl", k.power.tick_energy, k.rapl.accumulate),
    )
    for name, *entry_points in stages:
        codes = [fn.__code__ for fn in entry_points]
        sim.metrics.registry.counter(
            "subsystem.wall_s", "cumulative wall seconds in one tick stage",
            subsystem=name,
        ).value = sum(
            cumulative.get((c.co_filename, c.co_firstlineno, c.co_name), 0.0)
            for c in codes
        )
    if args.json:
        import json

        print(json.dumps(sim.metrics.registry.snapshot(), indent=2,
                         sort_keys=True))
    else:
        print(sim.metrics.registry.render())
    return 0


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write deterministic checkpoints here every"
                             " --checkpoint-every sim-seconds (parallel"
                             " only; docs/resilience.md)")
    parser.add_argument("--checkpoint-every", type=float, default=300.0,
                        metavar="S",
                        help="checkpoint interval in simulated seconds")
    parser.add_argument("--resume", action="store_true",
                        help="restart from the latest checkpoint in"
                             " --checkpoint-dir instead of starting fresh"
                             " (bit-identical to an uninterrupted run)")


def _check_run_args(args: argparse.Namespace) -> Optional[str]:
    """Validate --parallel and the checkpoint/resume flags (None = fine)."""
    import multiprocessing

    if args.parallel and "spawn" not in multiprocessing.get_all_start_methods():
        return ("--parallel needs the 'spawn' process start method,"
                " which this platform does not provide; run without --parallel")
    if args.checkpoint_dir and not args.parallel:
        return ("--checkpoint-dir requires --parallel: the sharded engine"
                " writes the snapshots")
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir to restore from"
    return None


def _add_attack_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=4)
    parser.add_argument("--duration", type=float, default=1200.0,
                        help="attack window in simulated seconds")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="rack-shard the fleet across N spawn worker"
                             " processes with shard-resident attacker"
                             " monitors (0 = serial; docs/parallel.md)")
    _add_resilience_args(parser)


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=8)
    parser.add_argument("--rack-size", type=int, default=8,
                        help="servers per rack (one breaker each)")
    parser.add_argument("--duration", type=float, default=3600.0,
                        help="virtual seconds to simulate")
    parser.add_argument("--dt", type=float, default=1.0,
                        help="base tick in virtual seconds")
    parser.add_argument("--sample-interval", type=float, default=1.0,
                        help="trace sampling interval in virtual seconds")
    parser.add_argument("--coalesce", action="store_true",
                        help="enable tick coalescing (docs/fastforward.md)")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="rack-shard across N spawn worker processes"
                             " (0 = serial; docs/parallel.md)")
    parser.add_argument("--faults", action="store_true",
                        help="install the standard chaos fault schedule")
    _add_resilience_args(parser)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", dest="trace_out", default="trace.json",
                        metavar="PATH",
                        help="Chrome trace_event output file"
                             " (open in chrome://tracing or Perfetto)")
    parser.add_argument("--jsonl", dest="trace_jsonl", default=None,
                        metavar="PATH",
                        help="also export the merged timeline as JSONL")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="containerleaks",
        description="ContainerLeaks (DSN'17) reproduction tooling",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="deterministic simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", parents=[common],
                            help="cross-validate a local testbed")
    p_scan.add_argument("-v", "--verbose", action="store_true",
                        help="list every leaking path")
    p_scan.set_defaults(func=_cmd_scan)

    p_rank = sub.add_parser("rank", parents=[common],
                           help="U/V/M channel ranking (Table II)")
    p_rank.add_argument("--snapshots", type=int, default=8,
                        help="snapshots per channel probe")
    p_rank.set_defaults(func=_cmd_rank)

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="probe provider profiles (Table I)")
    p_inspect.add_argument("providers", nargs="*",
                           help="provider names (default: all)")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_attack = sub.add_parser("attack", parents=[common],
                              help="synergistic vs periodic comparison")
    _add_attack_args(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    p_fleet = sub.add_parser("fleet", parents=[common],
                             help="run the datacenter fleet simulation")
    _add_fleet_args(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_defend = sub.add_parser("defend", parents=[common],
                              help="train + install the power namespace")
    p_defend.set_defaults(func=_cmd_defend)

    p_trace = sub.add_parser(
        "trace",
        help="run a subcommand with span tracing and export the timeline",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_fleet = trace_sub.add_parser("fleet", parents=[common],
                                   help="traced fleet simulation")
    _add_fleet_args(t_fleet)
    _add_trace_args(t_fleet)
    t_fleet.set_defaults(func=_cmd_fleet)
    t_attack = trace_sub.add_parser("attack", parents=[common],
                                    help="traced synergistic attack")
    _add_attack_args(t_attack)
    _add_trace_args(t_attack)
    t_attack.set_defaults(func=_cmd_attack)
    t_defend = trace_sub.add_parser("defend", parents=[common],
                                    help="traced defense training")
    _add_trace_args(t_defend)
    t_defend.set_defaults(func=_cmd_defend)

    p_ops = sub.add_parser(
        "ops",
        help="live operations plane: streamed metrics + pull endpoints",
    )
    ops_sub = p_ops.add_subparsers(dest="ops_command", required=True)
    o_serve = ops_sub.add_parser(
        "serve", parents=[common],
        help="run a fleet campaign with the ops plane attached"
             " (docs/ops.md)",
    )
    _add_fleet_args(o_serve)
    o_serve.add_argument("--ops-dir", default="ops", metavar="DIR",
                         help="ops artifact directory (metrics.jsonl,"
                              " spill/, trace.json)")
    o_serve.add_argument("--port", type=int, default=0, metavar="PORT",
                         help="HTTP port for /metrics /status /healthz"
                              " (0 = pick a free one)")
    o_serve.add_argument("--metrics-every", type=float, default=60.0,
                         metavar="S",
                         help="append a registry snapshot every S"
                              " sim-seconds")
    o_serve.add_argument("--metrics-every-wall", type=float, default=None,
                         metavar="S",
                         help="also append every S wall seconds")
    o_serve.add_argument("--spill-capacity", type=int, default=65536,
                         metavar="N",
                         help="tracer ring capacity; evictions spill to"
                              " <ops-dir>/spill instead of dropping")
    o_serve.add_argument("--hold", type=float, default=0.0, metavar="S",
                         help="keep serving S wall seconds after the run")
    o_serve.set_defaults(func=_cmd_ops_serve)

    p_status = sub.add_parser(
        "status",
        help="summarize an ops directory's metrics stream",
    )
    p_status.add_argument("ops_dir", metavar="DIR",
                          help="ops directory written by 'ops serve' or"
                               " enable_ops()")
    p_status.set_defaults(func=_cmd_status)

    p_metrics = sub.add_parser(
        "metrics", parents=[common],
        help="run a short fleet sim and dump the metric registry",
    )
    p_metrics.add_argument("--servers", type=int, default=4)
    p_metrics.add_argument("--duration", type=float, default=600.0,
                           help="virtual seconds to simulate")
    p_metrics.add_argument("--coalesce", action="store_true",
                           help="enable tick coalescing")
    p_metrics.add_argument("--json", action="store_true",
                           help="emit the registry snapshot as JSON")
    p_metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
