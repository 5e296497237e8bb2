"""Tests for the simulation instrumentation counters."""

import pytest

from repro.obs.registry import MetricRegistry
from repro.sim.metrics import IpcMetrics, SimMetrics, WallTimer


class TestSimMetrics:
    def test_base_tick_accounting(self):
        m = SimMetrics()
        for _ in range(10):
            m.record_tick(1.0, 1.0)
        assert m.ticks == 10
        assert m.base_ticks == 10
        assert m.coalesced_ticks == 0
        assert m.virtual_seconds == pytest.approx(10.0)
        assert m.tick_reduction == pytest.approx(1.0)
        assert m.coalescing_fraction == 0.0

    def test_coalesced_tick_accounting(self):
        m = SimMetrics()
        m.record_tick(1.0, 1.0)
        m.record_tick(59.0, 1.0)
        assert m.ticks == 2
        assert m.base_ticks == 1
        assert m.coalesced_ticks == 1
        assert m.reference_ticks == pytest.approx(60.0)
        assert m.tick_reduction == pytest.approx(30.0)
        assert m.coalescing_fraction == pytest.approx(59.0 / 60.0)

    def test_fresh_metrics_report_neutral_reduction(self):
        assert SimMetrics().tick_reduction == 1.0
        assert SimMetrics().coalescing_fraction == 0.0

    def test_render_mentions_key_counters(self):
        m = SimMetrics()
        m.record_tick(30.0, 1.0)
        m.samples = 3
        text = m.render()
        assert "tick reduction" in text
        assert "30.0x" in text
        assert "samples recorded    3" in text


class TestIpcMetrics:
    def test_bytes_per_tick_zero_ticks_reports_zero(self):
        # metrics queried before the first barrier must not divide by 0
        ipc = IpcMetrics(control_bytes_sent=100, shm_row_bytes=50)
        assert ipc.bytes_per_tick(0) == 0.0
        assert ipc.bytes_per_tick(-3) == 0.0
        assert ipc.bytes_per_tick(10) == pytest.approx(15.0)

    def test_record_frame_and_totals(self):
        ipc = IpcMetrics(workers=2)
        ipc.record_frame(10, 20)
        ipc.record_frame(5, 5)
        assert ipc.control_frames == 2
        assert ipc.control_bytes == 40
        ipc.shm_observer_bytes += 8
        assert ipc.shm_bytes == 8

    def test_barrier_wait_per_shard(self):
        ipc = IpcMetrics()
        ipc.record_barrier_wait(0, 0.25)
        ipc.record_barrier_wait(1, 0.5)
        ipc.record_barrier_wait(0, 0.25)
        assert ipc.barrier_wait_s == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}
        assert ipc.barrier_wait_total_s == pytest.approx(1.0)

    def test_round_trip_p50_covers_the_whole_run(self):
        # past the retained-sample cap the p50 must still see late ticks
        ipc = IpcMetrics()
        for _ in range(70_000):
            ipc.record_barrier_wait(0, 1e-6)
        for _ in range(140_000):
            ipc.record_barrier_wait(0, 1e-4)
        assert ipc.round_trip_p50 == pytest.approx(1e-4)
        assert ipc.frame_wait_quantile(0.5) == pytest.approx(1e-4)

    def test_render_with_no_traffic(self):
        text = IpcMetrics().render()
        assert "control frames      0" in text
        assert "0 shard(s)" in text

    def test_instruments_live_in_shared_registry(self):
        registry = MetricRegistry()
        ipc = IpcMetrics(workers=3, registry=registry)
        ipc.record_frame(7, 9)
        assert registry.get("ipc.control_frames").value == 1
        assert registry.get("ipc.workers").value == 3


class TestFacadeRegistry:
    def test_sim_metrics_counters_appear_in_registry(self):
        m = SimMetrics()
        m.record_tick(30.0, 1.0)
        m.samples = 5
        assert m.registry.get("sim.ticks").value == 1
        assert m.registry.get("sim.samples").value == 5
        hist = m.registry.get("sim.step_s")
        assert hist.count == 1
        assert hist.sum == pytest.approx(30.0)

    def test_settable_properties_round_trip(self):
        m = SimMetrics()
        m.wall_seconds = 1.5
        m.wall_seconds += 0.5
        assert m.wall_seconds == pytest.approx(2.0)
        assert m.registry.get("sim.wall_seconds").value == pytest.approx(2.0)

    def test_empty_registry_render_placeholder(self):
        assert "no instruments" in MetricRegistry().render()


class TestWallTimer:
    def test_timer_accumulates_elapsed_wall_time(self):
        m = SimMetrics()
        with WallTimer(m):
            pass
        first = m.wall_seconds
        assert first >= 0.0
        with WallTimer(m):
            sum(range(1000))
        assert m.wall_seconds >= first
