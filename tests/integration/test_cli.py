"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scan_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.seed == 0
        assert not args.verbose

    def test_seed_after_subcommand(self):
        args = build_parser().parse_args(["scan", "--seed", "9"])
        assert args.seed == 9

    def test_inspect_providers_positional(self):
        args = build_parser().parse_args(["inspect", "CC1", "CC4"])
        assert args.providers == ["CC1", "CC4"]

    def test_attack_options(self):
        args = build_parser().parse_args(
            ["attack", "--servers", "2", "--duration", "600"]
        )
        assert args.servers == 2
        assert args.duration == 600.0

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.parallel == 0
        assert not args.coalesce
        assert args.rack_size == 8

    def test_fleet_parallel_flag(self):
        args = build_parser().parse_args(
            ["fleet", "--parallel", "4", "--servers", "16", "--rack-size", "4"]
        )
        assert args.parallel == 4
        assert args.servers == 16


class TestRunArgs:
    @pytest.mark.parametrize(
        "argv",
        (["attack"], ["fleet"], ["ops", "serve"]),
        ids=("attack", "fleet", "ops-serve"),
    )
    def test_parallel_without_spawn_refused(self, argv, capsys, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["fork"]
        )
        assert main(argv + ["--parallel", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: --parallel needs the 'spawn' process start method"
        )

    def test_checkpoint_dir_needs_parallel(self, capsys):
        assert main(["fleet", "--checkpoint-dir", "ckpt"]) == 2
        assert "--checkpoint-dir requires --parallel" in capsys.readouterr().err


class TestExecution:
    def test_scan_runs_and_reports(self, capsys):
        assert main(["scan", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "leaking channels: 31" in out
        assert "namespaced" in out

    def test_scan_verbose_lists_paths(self, capsys):
        assert main(["scan", "-v"]) == 0
        assert "LEAK /proc/meminfo" in capsys.readouterr().out

    def test_inspect_one_provider(self, capsys):
        assert main(["inspect", "CC4"]) == 0
        out = capsys.readouterr().out
        assert "CC4" in out
        assert "○" in out  # CC4 masks plenty

    def test_inspect_unknown_provider(self, capsys):
        assert main(["inspect", "CC9"]) == 2
        assert "unknown providers: CC9" in capsys.readouterr().err

    def test_rank_prints_table2(self, capsys):
        assert main(["rank", "--snapshots", "4"]) == 0
        out = capsys.readouterr().out
        assert "proc.sys.kernel.random.boot_id" in out
        assert "static-id" in out

    def test_fleet_serial_reports_trace(self, capsys):
        assert main(["fleet", "--duration", "120", "--servers", "4",
                     "--rack-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 servers / 1 racks" in out
        assert "peak" in out and "swing" in out
        assert "ticks 120" in out

    def test_fleet_parallel_matches_serial_output(self, capsys):
        argv = ["fleet", "--duration", "90", "--servers", "4",
                "--rack-size", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--parallel", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # identical trace statistics line (determinism through the CLI)
        assert serial_out.splitlines()[1] == parallel_out.splitlines()[1]

    def test_defend_reports_accuracy(self, capsys):
        assert main(["defend"]) == 0
        out = capsys.readouterr().out
        assert "xi=" in out

    def test_metrics_profiles_every_tick_stage(self, capsys, monkeypatch):
        import repro.datacenter.simulation as simulation

        plain_cls = simulation.DatacenterSimulation
        runs = []

        class Recorded(plain_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        monkeypatch.setattr(simulation, "DatacenterSimulation", Recorded)
        assert main(["metrics", "--servers", "2", "--duration", "120"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("subsystem.wall_s{")]
        stages = sorted(line.split("=", 1)[1].split("}", 1)[0] for line in rows)
        assert all(float(line.split()[-1]) > 0.0 for line in rows)
        assert stages == sorted([
            "scheduler", "memory", "interrupts", "filesystem", "netdev",
            "cpuidle", "thermal", "timers", "random", "power+rapl",
        ])
        # the profiler observes the run without changing it
        (profiled,) = runs
        plain = plain_cls(servers=2, seed=0, sample_interval_s=1.0)
        plain.run(120.0, dt=1.0)
        assert profiled.metrics.ticks == plain.metrics.ticks == 120
        assert profiled.aggregate_trace.times == plain.aggregate_trace.times
        assert profiled.aggregate_trace.watts == plain.aggregate_trace.watts
