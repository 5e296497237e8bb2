"""Unit tests for the fast-forward planner and its kernel-side helpers."""

import math

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.runtime.workload import constant
from repro.sim.fastforward import FastForwardEngine, StabilityTracker


class TestPlanStep:
    def test_unstable_returns_base_dt(self):
        engine = FastForwardEngine()
        assert engine.plan_step(0.0, 100.0, 1.0, stable=False) == 1.0

    def test_stable_no_horizon_coalesces_to_remaining(self):
        engine = FastForwardEngine()
        assert engine.plan_step(0.0, 100.0, 1.0) == 100.0

    def test_max_step_caps_the_window(self):
        engine = FastForwardEngine(max_step_s=60.0)
        assert engine.plan_step(0.0, 1e6, 1.0) == 60.0

    def test_horizon_is_absolute_and_not_crossed(self):
        engine = FastForwardEngine()
        assert engine.plan_step(10.0, 100.0, 1.0, horizon=25.0) == 15.0

    def test_grid_alignment_rounds_down_to_base_dt_multiple(self):
        engine = FastForwardEngine()
        # the horizon sits mid-grid: step to the last boundary before it
        assert engine.plan_step(0.0, 100.0, 1.0, horizon=5.5) == 5.0
        assert engine.plan_step(0.0, 100.0, 2.0, horizon=7.0) == 6.0

    def test_one_step_windows_fall_back_to_base(self):
        engine = FastForwardEngine()
        assert engine.plan_step(0.0, 100.0, 1.0, horizon=1.5) == 1.0
        # horizon already reached: never plan a zero or negative step
        assert engine.plan_step(0.0, 100.0, 1.0, horizon=0.0) == 1.0

    def test_short_remaining_truncates_base(self):
        engine = FastForwardEngine()
        assert engine.plan_step(0.0, 0.25, 1.0, stable=False) == 0.25
        assert engine.plan_step(0.0, 0.25, 1.0) == 0.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            FastForwardEngine(max_step_s=0.0)
        with pytest.raises(SimulationError):
            FastForwardEngine().plan_step(0.0, 10.0, 0.0)

    def test_min_horizon_helper(self):
        assert FastForwardEngine.min_horizon(5.0, [9.0, 7.0, math.inf]) == 7.0
        assert FastForwardEngine.min_horizon(5.0, []) == math.inf
        # never earlier than now
        assert FastForwardEngine.min_horizon(5.0, [3.0]) == 5.0


class TestStabilityTracker:
    def test_first_observation_is_unstable(self):
        tracker = StabilityTracker()
        assert not tracker.observe((1.0,))

    def test_repeat_observation_is_stable(self):
        tracker = StabilityTracker()
        tracker.observe((1.0,))
        assert tracker.observe((1.0,))

    def test_change_forces_one_stabilizing_observation(self):
        tracker = StabilityTracker()
        tracker.observe((1.0,))
        assert not tracker.observe((2.0,))
        assert tracker.observe((2.0,))

    def test_reset_forgets_history(self):
        tracker = StabilityTracker()
        tracker.observe((1.0,))
        tracker.reset()
        assert not tracker.observe((1.0,))


class TestKernelHelpers:
    def test_phase_horizon_tracks_bounded_workloads(self):
        m = Machine(seed=1, spawn_daemons=False)
        assert m.kernel.next_phase_boundary_s() == math.inf
        m.kernel.spawn("w", workload=constant("w", cpu_demand=1.0, duration=30.0))
        assert m.kernel.next_phase_boundary_s() == pytest.approx(30.0)
        m.run(10, dt=1.0)
        assert m.kernel.next_phase_boundary_s() == pytest.approx(20.0)

    def test_demand_fingerprint_moves_on_churn(self):
        m = Machine(seed=1, spawn_daemons=False)
        before = m.kernel.demand_fingerprint()
        task = m.kernel.spawn("w", workload=constant("w", cpu_demand=0.5))
        spawned = m.kernel.demand_fingerprint()
        assert spawned == pytest.approx(before + 0.5)
        m.kernel.kill(task)
        assert m.kernel.demand_fingerprint() == pytest.approx(before)


class TestMachineCoalescing:
    """Coalescing on one machine: the coalescing driver is the fleet's, so
    a one-server fleet runs two host workloads (one bounded at 120 s)."""

    def _sim(self):
        sim = DatacenterSimulation(servers=1, seed=42, sample_interval_s=300.0)
        kernel = sim.cloud.hosts[0].kernel
        kernel.spawn(
            "burst",
            workload=constant("burst", cpu_demand=1.0, ipc=2.0, duration=120.0),
        )
        kernel.spawn("steady", workload=constant("steady", cpu_demand=0.5, ipc=1.5))
        return sim

    def test_coalesced_run_matches_reference(self):
        ref, fast = self._sim(), self._sim()
        ref.run(600, dt=1.0)
        fast.run(600, dt=1.0, coalesce=True)
        ref_kernel = ref.cloud.hosts[0].kernel
        fast_kernel = fast.cloud.hosts[0].kernel
        assert fast.now == pytest.approx(ref.now)
        assert fast_kernel.host_package_watts() == pytest.approx(
            ref_kernel.host_package_watts(), rel=1e-9
        )
        assert fast_kernel.idle_seconds == pytest.approx(
            ref_kernel.idle_seconds, rel=1e-9
        )

    def test_coalesced_run_takes_far_fewer_ticks(self):
        fast = self._sim()
        fast.run(600, dt=1.0, coalesce=True)
        assert fast.cloud.hosts[0].kernel.ticks_taken * 5 <= 600
        assert fast.metrics.tick_reduction >= 5.0

    def test_phase_boundary_is_a_tick_boundary(self):
        fast = self._sim()
        boundaries = []
        fast.run(
            600,
            dt=1.0,
            coalesce=True,
            on_tick=lambda sim: boundaries.append(sim.now),
        )
        # the bounded workload's 120 s phase end must be hit exactly
        assert any(t == pytest.approx(120.0) for t in boundaries)
