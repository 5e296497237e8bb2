"""Figure 2: one week of power for 8 servers in a container cloud.

The attacker-side view: a container on each server samples the leaked RAPL
channel; the fleet's aggregate wall power is recorded for one simulated
week at 30-second averaging, then the highest-power region is re-examined
at 1-second resolution (the paper's two panels).

Shape targets: visible diurnal structure with high-demand days, a deep
trough-to-1s-peak swing (the paper reports 899 W → 1,199 W, a 34.72%
band), and 1 s peaks exceeding the 30 s average peaks.

The week runs at a 1 s base ``dt`` with tick coalescing: the fast-forward
engine skips phase-stable stretches between tenant adjustments while the
accuracy harness (``tests/sim/test_fastforward_accuracy.py``) pins the
result to the per-second reference. Both simulations run on columnar
hosts, which the host-engine golden suite pins bit for bit to the object
hosts. The output holds only simulated results, including the engine's
tick-economy counters, so a rerun reproduces it byte for byte.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.analysis.plotting import downtime_summary, render_power_timeline
from repro.datacenter.simulation import DatacenterSimulation

DAY_S = 86400.0


def run_week():
    sim = DatacenterSimulation(
        servers=8, seed=103, sample_interval_s=30.0, hosts="columnar"
    )
    sim.run(7 * DAY_S, dt=1.0, coalesce=True)
    trace30 = sim.aggregate_trace

    # find the hottest 30 s sample and re-examine it at 1 s resolution
    hottest_start = max(
        range(len(trace30)), key=lambda i: trace30.watts[i]
    )
    t_hot = trace30.times[hottest_start]

    zoom = DatacenterSimulation(
        servers=8, seed=103, sample_interval_s=30.0, hosts="columnar"
    )
    zoom.run(max(60.0, t_hot - 900.0), dt=1.0, coalesce=True)  # same seed
    zoom.set_sample_interval(1.0)
    zoom.run(1800.0, dt=1.0)  # the 1 s window around the peak
    trace1 = zoom.aggregate_trace.window(zoom.now - 1800.0, zoom.now + 1)
    return sim, trace30, trace1


def test_fig2(benchmark, results_dir):
    sim, trace30, trace1 = benchmark.pedantic(run_week, rounds=1, iterations=1)

    # a full week of 30 s samples (plus the t=0 baseline)
    assert len(trace30) >= 7 * 24 * 120 - 10

    trough = trace30.trough
    peak_30 = trace30.peak
    peak_1 = max(trace1.peak, peak_30)
    swing = (peak_1 - trough) / trough

    # the paper's ~35% band between trough and 1 s peak; we accept 15–80%
    assert 0.15 < swing < 0.8
    # 1 s sampling resolves spikes the 30 s average smooths away
    assert peak_1 >= peak_30
    # absolute regime comparable to the paper's 8 servers (hundreds of W)
    assert 700.0 < trough < 1100.0
    assert peak_1 < 2000.0
    # no benign week trips a breaker
    assert not sim.any_breaker_tripped()
    # the coalescing engine must actually pay for the 1 s base dt
    assert sim.metrics.tick_reduction >= 5.0

    daily_means = [
        trace30.window(d * DAY_S, (d + 1) * DAY_S).mean for d in range(7)
    ]
    spread = max(daily_means) - min(daily_means)
    assert spread > 10.0  # day-to-day demand variation is visible

    lines = [
        "Figure 2 reproduction: one week, 8 servers (aggregate wall W)",
        "  paper:   trough 899 W, 1 s peak 1199 W, swing 34.72%",
        f"  measured trough {trough:.0f} W, 30 s peak {peak_30:.0f} W, "
        f"1 s peak {peak_1:.0f} W, swing {swing * 100:.1f}%",
        "",
        "per-day mean wall power (W): "
        + " ".join(f"{m:.0f}" for m in daily_means),
        "",
        render_power_timeline(
            trace30, window_s=3600.0, width=84,
            label="week timeline (1 h windows)",
        ),
        f"  downtime: {downtime_summary(trace30, 3600.0)}"
        " (benign week: all-zero by construction)",
        "",
        "fast-forward tick economy:",
        sim.metrics.render(),
    ]
    # the benign week must not invent downtime: the Figure 2 plot layer
    # shades only what the fault path actually recorded
    summary = downtime_summary(trace30, 3600.0)
    assert summary["dark_windows"] == 0
    assert summary["downtime_fraction"] == 0.0
    write_result(results_dir, "fig2_power_week", "\n".join(lines))
