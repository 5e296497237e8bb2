"""Tests for the fleet simulation and power traces."""

import pytest

from repro.datacenter.simulation import DatacenterSimulation, PowerTrace
from repro.errors import SimulationError


class TestPowerTrace:
    def test_append_and_stats(self):
        trace = PowerTrace()
        for t, w in enumerate([100.0, 150.0, 120.0]):
            trace.append(float(t), w)
        assert trace.peak == 150.0
        assert trace.trough == 100.0
        assert trace.mean == pytest.approx(123.333, rel=0.01)

    def test_swing_fraction(self):
        trace = PowerTrace()
        trace.append(0.0, 899.0)
        trace.append(1.0, 1199.0)
        assert trace.swing_fraction == pytest.approx(0.3337, rel=0.01)

    def test_timestamps_must_not_decrease(self):
        trace = PowerTrace()
        trace.append(5.0, 1.0)
        with pytest.raises(SimulationError):
            trace.append(4.0, 1.0)

    def test_averaged_windows(self):
        trace = PowerTrace()
        for t in range(60):
            trace.append(float(t), 100.0 if t < 30 else 200.0)
        avg = trace.averaged(30.0)
        assert len(avg) == 2
        assert avg.watts[0] == pytest.approx(100.0)
        assert avg.watts[1] == pytest.approx(200.0)

    def test_averaged_bad_window(self):
        with pytest.raises(SimulationError):
            PowerTrace().averaged(0.0)

    def test_window_slicing(self):
        trace = PowerTrace()
        for t in range(10):
            trace.append(float(t), float(t))
        sub = trace.window(3.0, 6.0)
        assert list(sub.times) == [3.0, 4.0, 5.0]

    def test_averaged_with_multi_window_gap(self):
        """A gap spanning several windows must flush the open bucket once."""
        trace = PowerTrace()
        for t in range(10):
            trace.append(float(t), 100.0)
        for t in range(95, 100):
            trace.append(float(t), 200.0)
        avg = trace.averaged(30.0)
        assert list(avg.times) == [0.0, 90.0]
        assert avg.watts[0] == pytest.approx(100.0)
        assert avg.watts[1] == pytest.approx(200.0)

    def test_averaged_gap_straddling_one_boundary(self):
        trace = PowerTrace()
        trace.append(0.0, 100.0)
        trace.append(29.0, 300.0)
        trace.append(61.0, 500.0)  # skips the [30, 60) window entirely
        avg = trace.averaged(30.0)
        assert list(avg.times) == [0.0, 60.0]
        assert list(avg.watts) == [pytest.approx(200.0), pytest.approx(500.0)]

    @pytest.mark.parametrize("stat", ["peak", "trough", "mean", "swing_fraction"])
    def test_empty_trace_stats_raise_descriptive_error(self, stat):
        with pytest.raises(SimulationError, match="empty power trace"):
            getattr(PowerTrace(), stat)

    def test_empty_trace_error_mentions_gaps(self):
        trace = PowerTrace()
        trace.note_gap(10.0)
        trace.note_gap(20.0)
        with pytest.raises(SimulationError, match=r"2 gap\(s\) recorded"):
            trace.peak

    def test_swing_fraction_zero_trough_raises(self):
        trace = PowerTrace()
        trace.append(0.0, 0.0)
        trace.append(1.0, 100.0)
        with pytest.raises(SimulationError, match="trough is 0"):
            trace.swing_fraction

    def test_window_carries_gaps_in_range(self):
        trace = PowerTrace()
        for t in range(10):
            trace.append(float(t), 100.0)
        trace.note_gap(4.5)
        trace.note_gap(8.5)
        sub = trace.window(3.0, 6.0)
        assert sub.gaps == [4.5]


class TestDatacenterSimulation:
    def test_traces_recorded(self):
        sim = DatacenterSimulation(servers=2, seed=1, sample_interval_s=10.0)
        sim.run(120, dt=10.0)
        assert len(sim.aggregate_trace) >= 12
        assert len(sim.server_traces[0]) == len(sim.aggregate_trace)

    def test_aggregate_is_sum_of_servers(self):
        sim = DatacenterSimulation(servers=3, seed=1, sample_interval_s=10.0)
        sim.run(60, dt=10.0)
        for i in range(len(sim.aggregate_trace)):
            total = sum(sim.server_traces[s].watts[i] for s in range(3))
            assert sim.aggregate_trace.watts[i] == pytest.approx(total)

    def test_benign_load_keeps_breakers_closed(self):
        sim = DatacenterSimulation(servers=4, seed=2, sample_interval_s=30.0)
        sim.run(1800, dt=30.0)
        assert not sim.any_breaker_tripped()
        assert sim.trip_log() == []

    def test_power_in_plausible_band(self):
        """Per-server wall power must sit in the Figure 2 regime."""
        sim = DatacenterSimulation(servers=2, seed=3, sample_interval_s=30.0)
        sim.run(1800, dt=30.0)
        per_server = sim.server_traces[0]
        assert 95.0 < per_server.trough < 130.0
        assert per_server.peak < 300.0

    def test_rack_grouping(self):
        sim = DatacenterSimulation(servers=8, rack_size=4, seed=1)
        assert len(sim.racks) == 2
        assert len(sim.racks[0].kernels) == 4

    def test_breaker_rating_scales_with_partial_rack(self):
        sim = DatacenterSimulation(
            servers=6, rack_size=4, breaker_rated_watts=1200.0, seed=1
        )
        assert sim.racks[0].breaker.rated_watts == pytest.approx(1200.0)
        assert sim.racks[1].breaker.rated_watts == pytest.approx(600.0)

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            DatacenterSimulation(servers=0)

    def test_nonpositive_run_rejected(self):
        sim = DatacenterSimulation(servers=1, seed=1)
        with pytest.raises(SimulationError):
            sim.run(0)

    def test_sampling_stays_on_exact_interval_multiples(self):
        """A dt that does not divide the interval must not drift the grid.

        Regression: the old driver re-armed the next sample at ``now +
        interval`` after the overshooting tick, so dt=0.3 with a 1 s
        interval produced samples at 1.2, 2.4, 3.6, ... instead of on the
        nominal 1 s cadence.
        """
        sim = DatacenterSimulation(servers=1, seed=1, sample_interval_s=1.0)
        sim.run(6.0, dt=0.3)
        assert list(sim.aggregate_trace.times) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_baseline_sample_recorded_at_t0(self):
        sim = DatacenterSimulation(servers=1, seed=1, sample_interval_s=10.0)
        sim.run(30.0, dt=10.0)
        assert sim.aggregate_trace.times[0] == 0.0
        assert len(sim.aggregate_trace) == 4

    def test_gap_outside_run_is_caught_up(self):
        """Clock advances outside run() must not shift the sample grid."""
        sim = DatacenterSimulation(servers=1, seed=1, sample_interval_s=1.0)
        sim.run(3.0, dt=1.0)
        sim.cloud.run(3.0)  # advances the clock without sampling
        sim.run(4.0, dt=1.0)
        assert list(sim.aggregate_trace.times) == [float(t) for t in range(11)]

    def test_set_sample_interval_reanchors_at_now(self):
        sim = DatacenterSimulation(servers=1, seed=1, sample_interval_s=30.0)
        sim.run(60.0, dt=1.0)
        sim.set_sample_interval(1.0)
        assert sim.next_sample_time == pytest.approx(61.0)
        sim.run(5.0, dt=1.0)
        assert list(sim.aggregate_trace.times[-5:]) == [61.0, 62.0, 63.0, 64.0, 65.0]

    def test_coalesced_run_keeps_the_sample_grid(self):
        ref = DatacenterSimulation(servers=1, seed=5, sample_interval_s=30.0)
        ref.run(600.0, dt=1.0)
        fast = DatacenterSimulation(servers=1, seed=5, sample_interval_s=30.0)
        fast.run(600.0, dt=1.0, coalesce=True)
        assert fast.aggregate_trace.times == ref.aggregate_trace.times

    def test_invalid_sample_interval_rejected(self):
        with pytest.raises(SimulationError):
            DatacenterSimulation(servers=1, sample_interval_s=0.0)
        sim = DatacenterSimulation(servers=1, seed=1)
        with pytest.raises(SimulationError):
            sim.set_sample_interval(-1.0)

    def test_determinism(self):
        def trace_of(seed):
            sim = DatacenterSimulation(servers=2, seed=seed, sample_interval_s=30.0)
            sim.run(600, dt=30.0)
            return sim.aggregate_trace.watts

        assert trace_of(11) == trace_of(11)
        # seeds differentiate the tenant demand process (short traces can
        # coincide in a flat trough, so compare the demand function itself)
        sim_a = DatacenterSimulation(servers=2, seed=11)
        sim_b = DatacenterSimulation(servers=2, seed=12)
        targets_a = [sim_a.tenants[0].target_cores(t * 3600.0) for t in range(24)]
        targets_b = [sim_b.tenants[0].target_cores(t * 3600.0) for t in range(24)]
        assert targets_a != targets_b
