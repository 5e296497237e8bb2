"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in a fresh spawned
process, so ``peak_rss_mb`` is the workload's own and nothing leaks from
this launcher into it. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from a run whose ops
alternate between traced and untraced (the pairing gives the tracing
overhead). The lines above it are a human-readable report. See
``perfbench/README.md`` for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: the seed behind every recorded figure; seed 20261 is held out for
#: checking later claims (both have golden outputs, see README.md)
DEFAULT_SEED = 1

#: set-up rounds per run; ``setup_s`` is their median
SETUP_ROUNDS = 5

#: the launcher gives up on a workload process after this long
CHILD_TIMEOUT_S = 170.0

#: speed-probe kernel time the reported times are scaled to: the probe's
#: median on the reference box (2-vCPU Xeon VM) in its fast state
PROBE_REF_S = 1.5e-3

#: probe samples taken before each set-up round and after the last, on
#: the workloads whose set-up the probe follows (``SETUP_SCALED``)
SETUP_PROBES = 8

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values):
    """(percentile, value) of the highest ladder percentile that has at
    least ten samples beyond it; the maximum (p100) when none has."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) >= 1000.0 - 1e-6:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 100.0, ordered[-1]


def peak_rss_mb():
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def golden_check(workload, seed, outputs):
    """Compare recorded outputs: those under ``"*"`` hold for every seed,
    the others for the default and held-out seeds only."""
    recorded = json.loads((HERE / "golden.json").read_text()).get(workload, {})
    golden = {**recorded.get("*", {}), **recorded.get(str(seed), {})}
    return [
        f"golden {key}: {outputs.get(key)!r} != {want!r}"
        for key, want in golden.items()
        if outputs.get(key) != want
    ]


def _speed_kernel():
    d = {}
    acc = 0
    for i in range(6000):
        k = i & 511
        d[k] = d.get(k, 0) + i
        acc += len(str(i))
    return acc + sum(d.values())


class SpeedProbe:
    """Times a fixed pure-Python kernel, independent of the program, to
    follow the box's momentary speed (see README: speed scaling)."""

    INTERVAL_S = 0.05
    #: samples this far outside an interval still describe it
    WINDOW_S = 0.5

    def __init__(self):
        #: sample end times and kernel seconds, in time order
        self.times = []
        self.samples = []
        #: seconds spent sampling, for the harness to take out of op walls
        self.spent = 0.0
        #: set during traced ops, whose spans must not hold probe time
        self.paused = False

    def sample(self):
        t0 = perf_counter()
        _speed_kernel()
        end = perf_counter()
        self.times.append(end)
        self.samples.append(end - t0)
        self.spent += end - t0

    def between_calls(self):
        """Sample if the last sample is older than ``INTERVAL_S``."""
        if self.paused or (
            self.times and perf_counter() - self.times[-1] < self.INTERVAL_S
        ):
            return
        self.sample()

    def scale(self, start, end):
        """Reference kernel time over the kernel's median time around
        [start, end] (the nearest sample if none falls in the window)."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if lo == hi:
            near = min(max(lo, 1), len(self.times)) - 1
            if lo < len(self.times) and abs(self.times[lo] - end) < abs(
                self.times[near] - start
            ):
                near = lo
            return PROBE_REF_S / self.samples[near]
        return PROBE_REF_S / statistics.median(self.samples[lo:hi])


def run_workload(name, seed, seconds, trace):
    """Set up, run the closed loop for ``seconds``, check; return a dict."""
    from tracing import LayerTracer
    from workloads import WORKLOADS, per_layer_metrics, register_layers

    probe = SpeedProbe()
    wl = WORKLOADS[name](seed, probe.between_calls)
    tracer = LayerTracer()
    register_layers(tracer)

    # -- set-up rounds: the median is setup_s; the last one is kept. Where
    # the probe follows set-up, the median is scaled by the probe's median
    # over the whole set-up phase (README: speed scaling)
    setup_times = []
    for k in range(SETUP_ROUNDS):
        keep = k == SETUP_ROUNDS - 1
        if wl.SETUP_SCALED:
            for _ in range(SETUP_PROBES):
                probe.sample()
        if trace and keep:
            tracer.op = "setup"
            tracer.install()
        t0 = perf_counter()
        state = wl.setup()
        setup_times.append(perf_counter() - t0)
        if trace and keep:
            tracer.uninstall()
        if not keep:
            wl.spare(state, k)
            del state
            gc.collect()
    setup_scale = 1.0
    if wl.SETUP_SCALED:
        for _ in range(SETUP_PROBES):
            probe.sample()
        setup_scale = PROBE_REF_S / statistics.median(probe.samples)
    prime_s = None
    if hasattr(wl, "prime"):
        t0 = perf_counter()
        wl.prime(state)
        prime_s = perf_counter() - t0
    if trace and hasattr(wl, "register_hooks"):
        wl.register_hooks(tracer, state)

    # -- timed closed loop; odd ops are traced when --trace 1
    timed_from = len(probe.samples)
    ops = []
    counter_delta = {}
    count_sum = {}
    errors = []
    deadline = perf_counter() + seconds
    min_ops = 2 if trace else 1
    i = 0
    while i < min_ops or perf_counter() < deadline:
        probe.between_calls()
        traced = trace and i % 2 == 1
        probe.paused = traced
        if traced:
            before = wl.counters(state)
            tracer.op = i
            tracer.install()
        start, spent = perf_counter(), probe.spent
        try:
            res = wl.op(state, i)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
            res = None
        finally:
            end = perf_counter()
            if traced:
                tracer.uninstall()
        if res is not None:
            res.wall -= probe.spent - spent
        if traced and res is not None:
            for key, value in wl.counters(state).items():
                counter_delta[key] = (
                    counter_delta.get(key, 0) + value - before.get(key, 0)
                )
            for key, value in res.counts.items():
                count_sum[key] = count_sum.get(key, 0) + value
        ops.append((i, traced, res, start, end))
        i += 1
    probe.paused = False
    probe.between_calls()

    check_errors, outputs = wl.finish(state)
    errors += check_errors
    done = [r for _, _, r, *_ in ops if r is not None]
    if done:
        outputs = {**done[0].outputs, **outputs}
    errors += golden_check(name, seed, outputs)
    raised = len(ops) - len(done)
    attempted = sum(r.attempted for r in done) + raised
    failed = sum(r.failed for r in done) + raised
    if check_errors:
        # a failed end-of-run check condemns every op it covered
        failed = attempted
    elif errors and not failed:
        failed = 1

    scale = probe.scale
    untraced = [(r, s, e) for _, t, r, s, e in ops if r is not None and not t]

    def scaled_wall(r, start, end):
        # calls scaled one by one; the op's time between calls by the op
        calls_s = sum(w for _, w in r.calls)
        gaps = (r.wall - calls_s) * scale(start, end)
        return gaps + sum(w * scale(t, t + w) for t, w in r.calls)

    calls = [w for r, _, _ in untraced for _, w in r.calls]
    scaled = [w * scale(t, t + w) for r, _, _ in untraced for t, w in r.calls]
    wall = sum(r.wall for r, _, _ in untraced)
    wall_scaled = sum(scaled_wall(*op) for op in untraced)
    host_s = sum(r.host_s for r, _, _ in untraced)
    pct, tail_s = tail(calls)
    result = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outputs": outputs,
        "setup_times": setup_times,
        "prime_s": prime_s,
        "setup_raw_s": statistics.median(setup_times),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "calls": len(calls),
        "call_p50_raw_ms": statistics.median(calls) * 1e3,
        "call_p50_ms": statistics.median(scaled) * 1e3,
        "call_tail_pct": pct,
        "call_tail_raw_ms": tail_s * 1e3,
        "call_tail_ms": tail(scaled)[1] * 1e3,
        "host_s_per_s_raw": host_s / wall,
        "host_s_per_s": host_s / wall_scaled,
        "ops": len(untraced),
        "op_p50_raw_s": statistics.median(r.wall for r, _, _ in untraced),
        "op_p50_s": statistics.median(scaled_wall(*op) for op in untraced),
        "peak_rss_mb": peak_rss_mb(),
        "probe_ms": statistics.median(probe.samples[timed_from:]) * 1e3,
    }
    if trace:
        traced_ids = {i for i, t, r, *_ in ops if t and r is not None}
        traced = [r for _, t, r, *_ in ops if r is not None and t]
        t_wall = sum(r.wall for r in traced)
        t_host = sum(r.host_s for r in traced)
        # cost per host-second, traced against untraced ops of this run
        overhead = (t_wall / t_host) / (wall / host_s) - 1.0
        calls_, busy, self_s, measured, errs = tracer.summary(traced_ids)
        _, setup_busy, *_ = tracer.summary({"setup"})
        result["per_layer"] = per_layer_metrics(
            calls_, busy, self_s, measured, errs, t_wall, setup_busy,
            setup_times[-1], counter_delta, count_sum, overhead,
            len(tracer.spans), (pct, result["call_tail_ms"] / 1e3),
        )
        result["trace_overhead"] = overhead
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return result


def _child(conn, name, seed, seconds, trace):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_workload(name, seed, seconds, trace)
    except BaseException:
        conn.send({"fatal": traceback.format_exc()})
        raise
    finally:
        _stop_resource_tracker()
    conn.send(result)
    conn.close()


def _stop_resource_tracker():
    """Stop and reap the resource tracker this process may have started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def end_to_end(res):
    """The JSON metrics: host times scaled by the speed probe (set-up
    only where ``SETUP_SCALED``)."""
    return {
        "setup_s": {"value": res["setup_s"], "unit": "s"},
        "call_p50_ms": {"value": res["call_p50_ms"], "unit": "ms"},
        "host_s_per_s": {"value": res["host_s_per_s"], "unit": "host-s/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def report(res, trace):
    """Human-readable lines: every metric by its workload-specific name,
    raw host time first, probe-scaled value in brackets."""
    import numpy

    name = res["workload"]
    call = "call" if name == "recon" else "slice"

    def both(key, unit, fmt):
        return (f"{format(res[f'{key}_raw{unit}'], fmt)}"
                f" [{format(res[key + unit], fmt)}]")

    lines = [
        f"workload {name}  seed {res['seed']}  trace {int(trace)}",
        f"env: nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={numpy.__version__}",
        f"speed probe        {res['probe_ms']:.3f} ms"
        f" (scaled to {PROBE_REF_S * 1e3:g} ms)",
        f"setup_s            {both('setup', '_s', '.4f')} s"
        f"  (median of {[round(t, 3) for t in res['setup_times']]})",
    ]
    if res["prime_s"] is not None:
        lines.append(f"worker_start_s     {res['prime_s']:.4f} s"
                     "  (worker spawn, fleet shipping, warm-up slice;"
                     " not in setup_s)")
    lines += [
        f"host_s_per_s       {both('host_s_per_s', '', '.1f')} host-s/s",
        f"{call}_p50_ms       {both('call_p50', '_ms', '.3f')} ms"
        f"  ({res['calls']} calls)",
        f"{call}_tail_ms      {both('call_tail', '_ms', '.3f')} ms"
        f"  (p{res['call_tail_pct']:g}, n={res['calls']})",
    ]
    if name == "recon":
        lines.append(f"recon_sweep_s      {both('op_p50', '_s', '.4f')} s"
                     f"  (median of {res['ops']} sweeps)")
    lines += [
        f"peak_rss_mb        {res['peak_rss_mb']:.1f} MB",
        f"failed_frac        {res['failed'] / res['attempted']:.4f}"
        f"  ({res['failed']}/{res['attempted']})",
        f"outputs            {json.dumps(res['outputs'], sort_keys=True)}",
    ]
    if trace:
        lines.append(f"tracing overhead   {res['trace_overhead']:+.3f}"
                     " (traced vs untraced wall per host-second)")
    for err in res["errors"]:
        lines.append(f"ERROR {err.strip()}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-day", "attack-campaign", "recon",
                                 "fleet-sharded"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # fixed string hashing: dict and set layouts, and with them run times,
    # then do not vary from one workload process to the next
    os.environ["PYTHONHASHSEED"] = "0"
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_child,
        args=(send, args.workload, args.seed, args.seconds, bool(args.trace)),
    )
    child.start()
    send.close()
    res = None
    try:
        if recv.poll(CHILD_TIMEOUT_S):
            res = recv.recv()
    except EOFError:
        res = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()
        # spawning started a resource tracker in this process too
        _stop_resource_tracker()
    if res is None or "fatal" in res or child.exitcode != 0:
        detail = res.get("fatal") if res else f"exit code {child.exitcode}"
        print(f"workload process failed: {detail}", file=sys.stderr)
        return 1

    for line in report(res, args.trace):
        print(line)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = end_to_end(res)
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
