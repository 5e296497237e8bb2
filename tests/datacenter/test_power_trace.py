"""PowerTrace edge cases: empty/gap-only traces, non-divisor sampling
grids, averaged-window placement across skipped windows, and the O(1)
incremental statistics staying equal to recomputed-from-scratch values.
"""

import math

import pytest

from repro.datacenter.simulation import PowerTrace
from repro.errors import SimulationError


class TestEmptyAndGapOnly:
    def test_stats_raise_on_empty(self):
        trace = PowerTrace()
        for prop in ("peak", "trough", "mean", "swing_fraction"):
            with pytest.raises(SimulationError, match="empty"):
                getattr(trace, prop)

    def test_window_and_averaged_on_empty(self):
        trace = PowerTrace()
        assert len(trace.window(0.0, 100.0)) == 0
        assert len(trace.averaged(30.0)) == 0

    def test_gap_only_trace(self):
        trace = PowerTrace()
        for t in (0.0, 1.0, 2.0):
            trace.note_gap(t)
        assert len(trace) == 0
        assert len(trace.averaged(2.0)) == 0
        sub = trace.window(0.5, 10.0)
        assert sub.gaps == [1.0, 2.0]
        with pytest.raises(SimulationError, match="3 gap"):
            trace.mean

    def test_error_message_counts_gaps(self):
        trace = PowerTrace()
        trace.note_gap(4.0)
        with pytest.raises(SimulationError, match="1 gap"):
            trace.peak


class TestAveragedPlacement:
    def test_non_divisor_dt_vs_window(self):
        # 0.7 s cadence against a 2 s window: windows hold 3,3,3,... samples
        trace = PowerTrace()
        times = [round(i * 0.7, 10) for i in range(10)]  # 0 .. 6.3
        for t in times:
            trace.append(t, 100.0 + t)
        avg = trace.averaged(2.0)
        assert list(avg.times) == [0.0, 2.0, 4.0, 6.0]
        # window [2, 4) holds t = 2.1, 2.8, 3.5
        expected = (102.1 + 102.8 + 103.5) / 3
        assert avg.watts[1] == pytest.approx(expected)
        assert avg.gaps == []

    def test_skipped_windows_keep_absolute_placement(self):
        # samples in window 0, then nothing until window 5: the late
        # sample must land at its own window's start, not slide earlier
        trace = PowerTrace()
        trace.append(0.0, 10.0)
        trace.append(1.0, 20.0)
        trace.append(50.0, 99.0)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [0.0, 50.0]
        assert list(avg.watts) == [15.0, 99.0]
        # the wholly-empty interior windows are recorded as gaps
        assert avg.gaps == [10.0, 20.0, 30.0, 40.0]

    def test_consecutive_skips_accumulate_gaps(self):
        trace = PowerTrace()
        trace.append(0.0, 1.0)
        trace.append(35.0, 2.0)
        trace.append(71.0, 3.0)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [0.0, 30.0, 70.0]
        assert list(avg.watts) == [1.0, 2.0, 3.0]
        assert avg.gaps == [10.0, 20.0, 40.0, 50.0, 60.0]

    def test_window_anchor_is_first_sample(self):
        trace = PowerTrace()
        trace.append(5.0, 1.0)
        trace.append(14.9, 3.0)
        trace.append(15.1, 5.0)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [5.0, 15.0]
        assert list(avg.watts) == [2.0, 5.0]


class TestAveragedDowntime:
    def test_fully_observed_windows_report_zero(self):
        trace = PowerTrace()
        for i in range(6):
            trace.append(float(i), 10.0)
        avg = trace.averaged(3.0)
        assert avg.downtime == [0.0, 0.0]

    def test_fractional_downtime_per_window(self):
        # window 0: 2 samples + 1 missed → 1/3 down; window 1: all seen
        trace = PowerTrace()
        trace.append(0.0, 10.0)
        trace.note_gap(1.0)
        trace.append(2.0, 20.0)
        for t in (3.0, 4.0, 5.0):
            trace.append(t, 30.0)
        avg = trace.averaged(3.0)
        assert list(avg.times) == [0.0, 3.0]
        assert list(avg.watts) == [15.0, 30.0]
        assert avg.downtime == [pytest.approx(1.0 / 3.0), 0.0]

    def test_gaps_do_not_shrink_the_divisor(self):
        # the missed sample must not drag the average: 27 live samples
        # of 100 W with 3 gaps average exactly 100 W at 0.1 downtime
        trace = PowerTrace()
        for i in range(30):
            t = float(i)
            if i in (5, 6, 7):
                trace.note_gap(t)
            else:
                trace.append(t, 100.0)
        avg = trace.averaged(30.0)
        assert list(avg.watts) == [100.0]
        assert avg.downtime == [pytest.approx(0.1)]

    def test_trailing_gap_only_windows_become_gaps(self):
        trace = PowerTrace()
        trace.append(0.0, 10.0)
        trace.append(1.0, 20.0)
        for t in (10.0, 11.0, 21.0):
            trace.note_gap(t)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [0.0]
        assert list(avg.watts) == [15.0]
        assert avg.gaps == [10.0, 20.0]
        assert avg.downtime == [0.0]

    def test_interior_gap_only_window_stays_single_marker(self):
        # a wholly-dark interior window stays one output gap marker even
        # when several source samples were missed inside it
        trace = PowerTrace()
        trace.append(0.0, 10.0)
        for t in (10.0, 12.0, 14.0):
            trace.note_gap(t)
        trace.append(20.0, 30.0)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [0.0, 20.0]
        assert avg.gaps == [10.0]
        assert avg.downtime == [0.0, 0.0]

    def test_markers_before_first_sample_dropped(self):
        trace = PowerTrace()
        trace.note_gap(0.0)
        trace.append(10.0, 5.0)
        avg = trace.averaged(10.0)
        assert list(avg.times) == [10.0]
        assert avg.gaps == []
        assert avg.downtime == [0.0]


class TestIncrementalStats:
    def test_matches_recompute_after_long_append_sequence(self):
        trace = PowerTrace()
        value = 750.0
        for i in range(5000):
            # deterministic wobble with spikes and dips
            value = 900.0 + 250.0 * math.sin(i * 0.37) + (i % 97) * 0.83
            trace.append(float(i), value)
        assert trace.peak == max(trace.watts)
        assert trace.trough == min(trace.watts)
        assert trace.mean == sum(trace.watts) / len(trace.watts)
        swing = (max(trace.watts) - min(trace.watts)) / min(trace.watts)
        assert trace.swing_fraction == swing

    def test_prefilled_trace_folds_existing_samples(self):
        trace = PowerTrace(times=[0.0, 1.0, 2.0], watts=[5.0, 1.0, 9.0])
        assert trace.peak == 9.0
        assert trace.trough == 1.0
        assert trace.mean == 5.0
        trace.append(3.0, 0.5)
        assert trace.trough == 0.5
        assert trace.mean == pytest.approx(15.5 / 4)

    def test_derived_traces_keep_stats_consistent(self):
        trace = PowerTrace()
        for i in range(100):
            trace.append(float(i), 100.0 + (i % 7))
        for derived in (trace.window(10.0, 60.0), trace.averaged(7.0)):
            assert derived.peak == max(derived.watts)
            assert derived.trough == min(derived.watts)
            assert derived.mean == sum(derived.watts) / len(derived.watts)

    def test_decreasing_timestamp_rejected(self):
        trace = PowerTrace()
        trace.append(10.0, 1.0)
        with pytest.raises(SimulationError, match="decrease"):
            trace.append(9.0, 1.0)
