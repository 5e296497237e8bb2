"""Live operations plane: streaming appender, pull endpoints, trace spill.

The plane's hard promises (ISSUE acceptance criteria): the metrics
stream is append-only and resume-idempotent (strictly monotone ``t`` and
``seq`` across ``run(resume=True)``); the pull endpoints read a live
campaign without posting control frames; and ring spill-to-disk keeps
the golden serial-vs-parallel timeline equivalence bit-identical — a
run whose rings overflowed stitches back the same merged timeline an
unbounded ring would have produced.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.obs import validate as validate_cli
from repro.obs.export import to_chrome_trace
from repro.obs.ops import (
    MetricsAppender,
    OpsServer,
    read_metrics_stream,
    render_stream_tail,
    validate_metrics_stream,
)
from repro.obs.registry import MetricRegistry
from repro.obs.spill import SpillWriter, read_segments, validate_spill_dir
from repro.obs.tracer import SpanTracer
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule

SEED = 61
SERVERS = 4

#: tracks whose events must not depend on the execution mode
SHARED_TRACKS = {"driver", "fault", "attack", "defense"}


def marker_schedule():
    return FaultSchedule(
        [
            FaultEvent(at=15.0, kind=FaultKind.RAPL_DROP,
                       duration_s=10.0, server=0),
            FaultEvent(at=25.0, kind=FaultKind.OOM_KILL,
                       duration_s=0.0, server=3),
            FaultEvent(at=35.0, kind=FaultKind.CLOCK_JITTER,
                       duration_s=10.0, magnitude=0.2),
        ],
        seed=17,
    )


def shared_timeline(sim):
    """Sim-time view of the mode-independent tracks (wall times vary)."""
    return [
        (e.kind, e.name, e.track, e.t0, e.t1, e.attrs)
        for e in sim.tracer.timeline()
        if e.track in SHARED_TRACKS
    ]


# ------------------------------------------------------------- appender


class TestMetricsAppender:
    def test_needs_some_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            MetricsAppender(
                str(tmp_path / "m.jsonl"), MetricRegistry(),
                every_sim_s=None, every_wall_s=None,
            )

    def test_empty_registry_appends_a_valid_record(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        app = MetricsAppender(path, MetricRegistry(), every_sim_s=10.0)
        app.append(5.0)
        app.close()
        records = read_metrics_stream(path)
        assert len(records) == 1
        assert records[0]["t"] == 5.0
        assert records[0]["seq"] == 0
        assert records[0]["metrics"] == {}
        assert validate_metrics_stream(path)["records"] == 1

    def test_sim_cadence(self, tmp_path):
        app = MetricsAppender(
            str(tmp_path / "m.jsonl"), MetricRegistry(), every_sim_s=10.0
        )
        assert app.maybe_append(1.0)  # first call always snapshots
        assert not app.maybe_append(5.0)
        assert not app.maybe_append(10.9)
        assert app.maybe_append(11.0)
        assert not app.maybe_append(11.0)  # no duplicate at the same t
        assert app.maybe_append(21.0)
        app.close()

    def test_snapshot_reflects_registry_at_append_time(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        registry = MetricRegistry()
        c = registry.counter("sim.ticks")
        app = MetricsAppender(path, registry, every_sim_s=1.0)
        c.inc(3)
        app.append(1.0)
        c.inc(4)
        app.append(2.0)
        app.close()
        records = read_metrics_stream(path)
        assert [r["metrics"]["sim.ticks"] for r in records] == [3, 7]

    def test_reopen_resumes_after_the_tail(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        first = MetricsAppender(path, MetricRegistry(), every_sim_s=60.0)
        for t in (0.0, 60.0, 120.0):
            first.append(t)
        first.close()

        again = MetricsAppender(path, MetricRegistry(), every_sim_s=60.0)
        assert again.seq == 3
        assert again.last_t == 120.0
        # replayed windows at or before the tail append nothing
        assert not again.maybe_append(60.0)
        assert not again.maybe_append(120.0)
        assert again.maybe_append(180.0)
        again.close()
        summary = validate_metrics_stream(path)
        assert summary["records"] == 4
        assert summary["t_last"] == 180.0

    def test_torn_tail_is_superseded_not_fatal(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        app = MetricsAppender(path, MetricRegistry(), every_sim_s=1.0)
        app.append(1.0)
        app.close()
        with open(path, "a") as fh:
            fh.write('{"t": 2.0, "seq": 1, "met')  # killed mid-write
        again = MetricsAppender(path, MetricRegistry(), every_sim_s=1.0)
        assert again.seq == 1  # resumed from the last *intact* record
        again.append(3.0)
        again.close()
        records = read_metrics_stream(path)
        assert [r["t"] for r in records] == [1.0, 3.0]

    def test_close_appends_final_record_only_if_time_advanced(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        app = MetricsAppender(path, MetricRegistry(), every_sim_s=10.0)
        app.append(5.0)
        app.close(5.0)
        assert len(read_metrics_stream(path)) == 1
        again = MetricsAppender(path, MetricRegistry(), every_sim_s=10.0)
        again.close(7.0)
        assert [r["t"] for r in read_metrics_stream(path)] == [5.0, 7.0]

    def test_render_stream_tail_summarizes_last_record(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("sim.ticks").inc(42)
        app = MetricsAppender(
            str(tmp_path / "metrics.jsonl"), registry, every_sim_s=1.0
        )
        app.append(1.0)
        app.append(9.0)
        app.close()
        text = render_stream_tail(str(tmp_path))
        assert "2 record(s)" in text
        assert "sim.ticks" in text
        assert "42" in text


# --------------------------------------------------------------- server


class TestOpsServer:
    def test_endpoints(self):
        registry = MetricRegistry()
        registry.counter("sim.ticks").inc(9)
        server = OpsServer(registry, lambda: {"now": 12.5}, port=0)
        try:
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                assert json.loads(resp.read()) == {"ok": True}
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                body = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "sim.ticks" in body
            assert "[counter] 9" in body
            with urllib.request.urlopen(server.url + "/status") as resp:
                assert json.loads(resp.read()) == {"now": 12.5}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope")
            assert err.value.code == 404
            assert server.requests_served == 3
        finally:
            server.close()

    def test_status_errors_surface_as_500(self):
        def broken():
            raise RuntimeError("no status for you")

        server = OpsServer(MetricRegistry(), broken, port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/status")
            assert err.value.code == 500
        finally:
            server.close()


# ---------------------------------------------------------------- spill


class TestSpill:
    @staticmethod
    def fill(tracer, n):
        for i in range(n):
            tracer.instant("ev", at=float(i), server=i)

    def test_rejects_path_like_labels(self, tmp_path):
        with pytest.raises(ValueError):
            SpillWriter(str(tmp_path), "a/b")
        with pytest.raises(ValueError):
            SpillWriter(str(tmp_path), ".hidden")

    def test_no_eviction_leaves_no_segment(self, tmp_path):
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=16)
        tracer.enable_spill(str(tmp_path / "spill"))
        self.fill(tracer, 10)
        assert tracer.spilled == 0
        assert not (tmp_path / "spill").exists()

    def test_stitched_timeline_equals_unbounded_ring(self, tmp_path):
        tiny = SpanTracer(now_fn=lambda: 0.0, capacity=4)
        tiny.enable_spill(str(tmp_path / "spill"))
        big = SpanTracer(now_fn=lambda: 0.0, capacity=1000)
        self.fill(tiny, 25)
        self.fill(big, 25)
        assert tiny.spilled == 21
        assert tiny.dropped == 0
        assert tiny.timeline() == big.timeline()
        # timeline() re-reads segments without double-ingesting them
        assert tiny.timeline() == big.timeline()

    def test_spill_to_a_second_directory_rejected(self, tmp_path):
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=4)
        tracer.enable_spill(str(tmp_path / "a"))
        tracer.enable_spill(str(tmp_path / "a"))  # idempotent
        with pytest.raises(ValueError, match="already spills"):
            tracer.enable_spill(str(tmp_path / "b"))

    def test_replayed_incarnation_dedupes_by_seq(self, tmp_path):
        directory = str(tmp_path / "spill")
        first = SpanTracer(now_fn=lambda: 0.0, capacity=1, track="shard-0")
        first.enable_spill(directory)
        self.fill(first, 6)  # spills seq 0..4
        first.close_spill()
        # a respawned worker continues in a fresh incarnation segment and
        # re-spills replayed events byte-identically
        second = SpanTracer(now_fn=lambda: 0.0, capacity=1, track="shard-0")
        second.enable_spill(directory)
        second.restore_counters(3, 0, spilled=3)
        for i in range(3, 8):
            second.instant("ev", at=float(i), server=i)
        rows = read_segments(directory)
        assert len({row[7] for row in rows}) == len(rows) == 7
        assert sorted(row[7] for row in rows) == list(range(7))
        summary = validate_spill_dir(directory)
        assert summary["segments"] == 2
        assert summary["deduped_events"] == 7
        assert summary["processes"] == ["shard-0"]

    def test_torn_final_line_is_skipped_and_healed(self, tmp_path):
        directory = tmp_path / "spill"
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=1, track="driver")
        tracer.enable_spill(str(directory))
        self.fill(tracer, 4)  # spills seq 0..2
        tracer.close_spill()
        segment = next(directory.iterdir())
        with open(segment, "a") as fh:
            fh.write('["instant", "ev", "driver", 3.0')  # SIGKILL mid-write
        summary = validate_spill_dir(str(directory))
        assert summary["torn_lines"] == 1
        assert summary["deduped_events"] == 3
        # the replayed duplicate in a later incarnation supplies the
        # intact copy of the torn event
        replay = SpanTracer(now_fn=lambda: 0.0, capacity=1, track="driver")
        replay.enable_spill(str(directory))
        replay.restore_counters(3, 0, spilled=3)
        replay.instant("ev", at=3.0, server=3)
        replay.instant("ev", at=4.0, server=4)
        assert len(read_segments(str(directory))) == 4

    def test_malformed_interior_line_fails_validation(self, tmp_path):
        directory = tmp_path / "spill"
        directory.mkdir()
        (directory / "driver.0.jsonl").write_text("garbage\n[]\n")
        with pytest.raises(ValueError, match="malformed spill row"):
            validate_spill_dir(str(directory))

    def test_missing_directory_fails_validation(self, tmp_path):
        with pytest.raises(ValueError, match="not a spill directory"):
            validate_spill_dir(str(tmp_path / "nope"))


# --------------------------------------------------------- validate CLI


class TestValidateCli:
    def test_no_arguments_is_usage_error(self, capsys):
        assert validate_cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_metrics_stream_mode(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        app = MetricsAppender(path, MetricRegistry(), every_sim_s=1.0)
        app.append(1.0)
        app.append(2.0)
        app.close()
        assert validate_cli.main(["--metrics", path]) == 0
        assert "valid metrics stream — 2 record(s)" in capsys.readouterr().out

    def test_non_monotone_stream_fails(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"t": 2.0, "seq": 0, "metrics": {}}\n'
            '{"t": 1.0, "seq": 1, "metrics": {}}\n'
        )
        assert validate_cli.main(["--metrics", str(path)]) == 1
        assert "not after" in capsys.readouterr().err

    def test_spill_mode(self, tmp_path, capsys):
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=1, track="driver")
        tracer.enable_spill(str(tmp_path / "spill"))
        TestSpill.fill(tracer, 4)
        tracer.close_spill()
        assert validate_cli.main(["--spill", str(tmp_path / "spill")]) == 0
        assert "valid spill directory" in capsys.readouterr().out

    def test_trace_with_unspilled_drops_warns(self, tmp_path, capsys):
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=2)
        TestSpill.fill(tracer, 5)
        assert tracer.dropped == 3
        path = str(tmp_path / "trace.json")
        to_chrome_trace(
            tracer.timeline(), path, health={"driver": tracer.health()}
        )
        assert validate_cli.main([path]) == 0
        captured = capsys.readouterr()
        assert "valid Chrome trace" in captured.out
        assert "dropped 3 event(s) without spill enabled" in captured.err
        assert "driver" in captured.err

    def test_trace_with_spill_reports_stitched_events(self, tmp_path, capsys):
        tracer = SpanTracer(now_fn=lambda: 0.0, capacity=2)
        tracer.enable_spill(str(tmp_path / "spill"))
        TestSpill.fill(tracer, 5)
        path = str(tmp_path / "trace.json")
        to_chrome_trace(
            tracer.timeline(), path, health={"driver": tracer.health()}
        )
        assert validate_cli.main([path]) == 0
        captured = capsys.readouterr()
        assert "3 events stitched from spill" in captured.out
        assert captured.err == ""


# ----------------------------------------------------- simulation wiring


def build_fleet(parallel, ops_dir=None, capacity=None, seconds=60.0):
    sim = DatacenterSimulation(
        servers=SERVERS, rack_size=2, seed=SEED, sample_interval_s=1.0
    )
    if capacity is not None:
        sim.enable_tracing(
            capacity=capacity, spill_dir=str(ops_dir / "spill")
        )
    else:
        sim.enable_tracing()
    if ops_dir is not None:
        sim.enable_ops(str(ops_dir), every_sim_s=10.0)
    sim.install_faults(marker_schedule())
    sim.run(seconds, dt=1.0, parallel=parallel)
    return sim


class TestSimulationOps:
    def test_enable_ops_twice_rejected(self, tmp_path):
        sim = DatacenterSimulation(servers=2, rack_size=2, seed=3)
        sim.enable_ops(str(tmp_path))
        try:
            with pytest.raises(SimulationError, match="already enabled"):
                sim.enable_ops(str(tmp_path))
        finally:
            sim.close()

    def test_status_readable_mid_campaign(self, tmp_path):
        sim = DatacenterSimulation(
            servers=2, rack_size=2, seed=11, sample_interval_s=1.0
        )
        sim.enable_tracing()
        ops = sim.enable_ops(str(tmp_path), every_sim_s=5.0, port=0)
        seen = {}

        def probe(s):
            if s.now >= 30.0 and not seen:
                with urllib.request.urlopen(ops.server.url + "/status") as r:
                    seen["status"] = json.loads(r.read())
                with urllib.request.urlopen(ops.server.url + "/metrics") as r:
                    seen["metrics"] = r.read().decode()

        try:
            sim.run(60.0, dt=1.0, on_tick=probe)
        finally:
            sim.close()
        status = seen["status"]
        assert status["mode"] == "serial"
        assert 30.0 <= status["now"] < 60.0
        assert status["ticks"] > 0
        assert status["trace"]["driver"]["dropped"] == 0
        assert seen["metrics"].strip()
        # the stream kept appending after the probe and close() sealed it
        summary = validate_metrics_stream(str(tmp_path / "metrics.jsonl"))
        assert summary["t_last"] == 60.0

    def test_status_reports_columnar_replay_debt(self, tmp_path):
        sim = DatacenterSimulation(
            servers=4, rack_size=4, seed=11, sample_interval_s=60.0,
            tenants_per_host=2, hosts="columnar",
        )
        ops = sim.enable_ops(str(tmp_path), every_sim_s=60.0, port=0)

        def status():
            with urllib.request.urlopen(ops.server.url + "/status") as r:
                return json.loads(r.read())["columnar"]

        try:
            before = status()
            sim.run(60.0, dt=1.0)
            after = status()
        finally:
            sim.close()
        assert before == {
            "cold": 4, "barriers": 0, "op_log_bytes": 0, "materializations": 0,
            "sweeps": 0, "materialize_s": {"count": 0, "p50": 0.0, "max": 0.0},
        }
        assert after["cold"] == 4 and after["materializations"] == 0
        assert after["barriers"] == 60
        assert after["op_log_bytes"] > 0
        reg = sim.metrics.registry
        assert reg.gauge("columnar.deferred_barriers").value == 60
        assert reg.gauge("columnar.op_log_bytes").value == after["op_log_bytes"]
        # equal-dt ticks between churn batches reuse the tick sweep
        assert 0 < after["sweeps"] < after["barriers"]
        assert reg.counter("columnar.sweeps").value == after["sweeps"]
        last = (tmp_path / "metrics.jsonl").read_text().splitlines()[-1]
        assert json.loads(last)["metrics"]["columnar.sweeps"] == after["sweeps"]

    def test_status_reports_materialization_latency(self):
        sim = DatacenterSimulation(
            servers=4, rack_size=4, seed=11, sample_interval_s=60.0,
            tenants_per_host=2, hosts="columnar",
        )
        try:
            sim.run(120.0, dt=1.0)
            he = sim.host_engine
            he.ensure_hot(1)
            he.ensure_hot(1)  # already hot: nothing replayed, nothing observed
            he.ensure_hot(3)
            lat = sim.ops_status()["columnar"]["materialize_s"]
        finally:
            sim.close()
        hist = sim.metrics.registry.get("columnar.materialize_s")
        assert hist.count == lat["count"] == 2
        assert 0.0 < hist.min <= lat["p50"] <= lat["max"] == hist.max
        assert sim.ops_status()["columnar"]["materializations"] == 2

    def test_parallel_status_includes_shard_economy(self, tmp_path):
        sim = build_fleet(2, ops_dir=tmp_path)
        try:
            status = sim.ops_status()
            par = status["parallel"]
            assert par["workers"] == 2
            assert set(par["barrier_wait_s"]) == {"0", "1"}
            assert set(par["barrier_frame_wait_s"]) == {"p50", "p90", "p99"}
            assert par["restarts"] == [0, 0]  # per-shard restart counts
            assert par["checkpoint_seq"] == 0
            health = sim.trace_health()
        finally:
            sim.close()
        assert set(health) == {"driver", "shard-0", "shard-1"}
        # trace_health mirrored the counters into the ops registry
        reg = sim.metrics.registry
        assert (
            reg.get("obs.trace_dropped_events", process="driver").value == 0
        )

    def test_dropped_counter_reflects_unspilled_evictions(self, tmp_path):
        sim = DatacenterSimulation(
            servers=2, rack_size=2, seed=5, sample_interval_s=1.0
        )
        sim.enable_tracing(capacity=8)  # no spill: evictions are losses
        try:
            sim.run(60.0, dt=1.0)
            health = sim.trace_health()
            assert health["driver"]["dropped"] > 0
            assert not health["driver"]["spill_enabled"]
            reg = sim.metrics.registry
            counter = reg.get("obs.trace_dropped_events", process="driver")
            assert counter.value == health["driver"]["dropped"]
        finally:
            sim.close()


class TestGoldenEquivalenceWithOps:
    def test_serial_vs_parallel_identical_with_spill_and_appender(
        self, tmp_path
    ):
        golden = build_fleet(0)  # unbounded ring, no ops plane
        try:
            reference = shared_timeline(golden)
        finally:
            golden.close()

        serial = build_fleet(0, ops_dir=tmp_path / "serial", capacity=1)
        try:
            serial_view = shared_timeline(serial)
            serial_health = serial.trace_health()
        finally:
            serial.close()

        par = build_fleet(2, ops_dir=tmp_path / "par", capacity=1)
        try:
            par_view = shared_timeline(par)
            par_health = par.trace_health()
        finally:
            par.close()

        # spilled-and-stitched timelines equal the unbounded golden run
        assert serial_view == reference
        assert par_view == reference
        assert len(reference) > 60

        # the tiny rings really overflowed, and nothing was lost
        assert serial_health["driver"]["spilled"] > 0
        assert all(h["dropped"] == 0 for h in serial_health.values())
        assert par_health["driver"]["spilled"] > 0
        assert all(h["dropped"] == 0 for h in par_health.values())
        # fault markers recorded by shard workers overflowed their
        # one-slot rings mid-tick, so worker segments exist too
        par_spill = validate_spill_dir(str(tmp_path / "par" / "spill"))
        assert "driver" in par_spill["processes"]

        # both ops directories carry valid monotone metrics streams
        # (the parallel engine checks cadence at epoch boundaries, so it
        # appends fewer records than the per-tick serial loop)
        for mode in ("serial", "par"):
            summary = validate_metrics_stream(
                str(tmp_path / mode / "metrics.jsonl")
            )
            assert summary["records"] >= 3
            assert summary["t_last"] == 60.0


class TestAppenderAcrossResume:
    def test_stream_is_idempotent_across_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ops_dir = tmp_path / "ops"

        def build():
            sim = DatacenterSimulation(
                servers=SERVERS, rack_size=2, seed=7, sample_interval_s=30.0
            )
            sim.enable_resilience(
                checkpoint_dir=str(ckpt), checkpoint_every=120.0
            )
            sim.enable_ops(str(ops_dir), every_sim_s=60.0)
            return sim

        part = build()
        part.run(300, parallel=2, coalesce=True)
        part.close()  # "the process died here"
        before = read_metrics_stream(str(ops_dir / "metrics.jsonl"))
        assert before, "first leg streamed nothing"

        res = build()
        res.run(300, parallel=2, coalesce=True, resume=True)
        res.run(300, parallel=2, coalesce=True)
        res.close()
        after = read_metrics_stream(str(ops_dir / "metrics.jsonl"))

        # the replayed window appended nothing; the stream's first leg is
        # untouched and the continuation is strictly after it
        assert after[: len(before)] == before
        assert len(after) > len(before)
        summary = validate_metrics_stream(str(ops_dir / "metrics.jsonl"))
        assert summary["t_last"] == 600.0
        seqs = [r["seq"] for r in after]
        assert seqs == list(range(len(after)))
