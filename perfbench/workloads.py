"""The benchmark's four workloads, their output checks and layer map.

Each workload is a closed loop with one caller. It builds its system in
``setup`` (timed as ``setup_s``), runs one op per ``op`` call and checks
what the op produced. ``spare`` receives the systems of the set-up rounds
that are not kept; some workloads compute their output reference on one.
Every simulated quantity here is virtual time; every timing is host wall
time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from time import perf_counter
from typing import Dict, List, Tuple

from repro.attack.monitor import CrestDetector, RaplPowerMonitor
from repro.attack.strategies import SynergisticAttack
from repro.coresidence import orchestrator as orchestrator_mod
from repro.coresidence.orchestrator import CoResidenceOrchestrator
from repro.datacenter.population import TenantPopulation
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.tenants import DiurnalProfile
from repro.datacenter.topology import Rack
from repro.defense.modeling import PowerModeler, TrainingHarness
from repro.defense.powerns import PowerNamespaceDriver
from repro.detection.crossvalidate import CrossValidator
from repro.detection.inspector import CloudInspector
from repro.kernel.columnar import ColumnarHostEngine
from repro.kernel.kernel import Kernel
from repro.procfs.vfs import PseudoVFS
from repro.runtime import cloud as cloud_mod
from repro.runtime.cloud import PROVIDER_PROFILES, ContainerCloud
from repro.runtime.engine import ContainerEngine
from repro.sim.fastforward import FastForwardEngine


@dataclass
class OpResult:
    """What one op did, as the harness accounts it."""

    #: wall seconds of the op as a whole (the throughput denominator)
    wall: float
    #: (start, wall seconds) of each timed call into the system in the op
    calls: List[Tuple[float, float]]
    #: simulated host-seconds the op advanced (hosts x virtual seconds)
    host_s: float
    #: units of work in the op (slices, campaigns, sweeps) and failures
    attempted: int = 1
    failed: int = 0
    #: per-op counts feeding the per-layer ratios
    counts: Dict[str, float] = field(default_factory=dict)
    #: checked outputs, printed in the report
    outputs: Dict[str, object] = field(default_factory=dict)


class _Workload:
    #: scale set-up by the speed probe: set where set-up is interpreter
    #: work the probe follows; fleet builds and worker spawns are not
    #: (README: speed scaling)
    SETUP_SCALED = False

    def __init__(self, seed, between_calls):
        self.seed = seed
        #: called after timed calls inside an op, only inside the op's
        #: wall: the speed probe samples there, and the harness takes the
        #: time it spends out of the op's wall (README: speed scaling)
        self.between_calls = between_calls
        self.reference = None


def _timed(fn, *args, **kwargs):
    """``fn``'s result, start time and wall seconds."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, t0, perf_counter() - t0


def trace_digest(times, watts) -> str:
    """Digest of power-trace samples, rounded to a milliwatt.

    The rounding keeps a golden value stable against last-bit float
    differences; exact-bit checks compare the raw tuples instead.
    """
    h = hashlib.sha256()
    for t, w in zip(times, watts):
        h.update(f"{t:.3f}:{w:.3f};".encode())
    return h.hexdigest()[:16]


def _trace_key(sim):
    """Tick count and exact aggregate trace so far."""
    trace = sim.aggregate_trace
    return sim.metrics.ticks, (tuple(trace.times), tuple(trace.watts))


# ----------------------------------------------------------------------
# fleet-day and fleet-sharded

#: the fleets' benign load peaks two virtual hours in, so a run's slices
#: (a few virtual hours) sit on the flat top of the daily curve and cost
#: the same whether the code covers two hours or six; the per-day demand
#: factor is pinned so the load level does not depend on the seed
FLEET_TENANTS = DiurnalProfile(peak_hour=2.0, day_factor_range=(1.0, 1.0))

#: rack breakers provisioned for that benign peak: at the stock rating
#: the morning peak trips every rack and leaves a dark fleet to simulate
FLEET_BREAKER_W = 4000.0


def _fleet_counters(sim):
    m = sim.metrics
    out = {"ticks": m.ticks, "reference_ticks": m.reference_ticks}
    if sim.population is not None:
        out["tenant_ticks"] = sim.population.tenant_ticks
    if sim.host_engine is not None:
        stats = sim.host_engine.stats()
        out["cold_host_ticks"] = stats["cold_host_ticks"]
        out["materializations"] = stats["materializations"]
    ipc = m.ipc
    if ipc is not None:
        out["barrier_wait_s"] = ipc.barrier_wait_total_s
        out["shm_control_frames"] = ipc.shm_control_frames
        out["pipe_control_frames"] = ipc.pipe_control_frames
        out["ipc_bytes"] = ipc.control_bytes + ipc.shm_control_bytes + ipc.shm_bytes
    return out


class _SlicedFleet(_Workload):
    """A columnar fleet driven in ``run()`` slices of one sample interval.

    After ``CHECK_SLICES`` timed slices the tick count and aggregate trace
    are compared, bit for bit, with ``self.reference``, which a subclass
    computes in :meth:`spare` from an identically seeded fleet.
    """

    RACK, TENANTS = 8, 4
    SLICE_S = 60.0
    COALESCE = False

    def _build(self):
        return DatacenterSimulation(
            servers=self.SERVERS, rack_size=self.RACK, seed=self.seed,
            tenants_per_host=self.TENANTS, sample_interval_s=self.SLICE_S,
            hosts="columnar", tenant_profile=FLEET_TENANTS,
            breaker_rated_watts=FLEET_BREAKER_W,
        )

    def _slice(self, state):
        sim = state["sim"]
        _, t0, wall = _timed(sim.run, self.SLICE_S, dt=1.0, coalesce=self.COALESCE)
        state["slices"] += 1
        if state["slices"] == self.CHECK_SLICES:
            state["at_check"] = _trace_key(sim)
        return t0, wall

    def op(self, state, i):
        t0, wall = self._slice(state)
        # every slice ends on a sample: present, finite, positive
        trace = state["sim"].aggregate_trace
        w = trace.watts[-1]
        ok = (abs(trace.times[-1] - state["sim"].now) < 1e-6
              and math.isfinite(w) and w > 0)
        return OpResult(wall=wall, calls=[(t0, wall)],
                        host_s=self.SERVERS * self.SLICE_S, failed=int(not ok))

    def _check(self, state):
        """Reach the check point (untimed if the run stopped short) and
        compare it with the reference."""
        while "at_check" not in state:
            self._slice(state)
        ticks, trace = state["at_check"]
        errors = []
        if state["at_check"] != self.reference:
            errors.append(f"{self.name}: ticks/trace after {self.CHECK_SLICES}"
                          f" slices differ from the reference (ticks {ticks}"
                          f" vs {self.reference[0]})")
        outputs = {"ticks_at_check": ticks, "samples_at_check": len(trace[0]),
                   "digest_at_check": trace_digest(*trace)}
        return errors, outputs

    def counters(self, state):
        return _fleet_counters(state["sim"])


class FleetDay(_SlicedFleet):
    """512 hosts, coalesced ticks; reference: one unsliced ``run()``."""

    name = "fleet-day"
    SERVERS = 512
    COALESCE = True
    CHECK_SLICES = 60

    def setup(self):
        sim = self._build()
        # warm-up slice: first-call costs land here, not in the timed loop
        sim.run(self.SLICE_S, dt=1.0, coalesce=True)
        return {"sim": sim, "slices": 0}

    def spare(self, state, k):
        sim = state["sim"]
        if k == 0:
            sim.run(self.CHECK_SLICES * self.SLICE_S, dt=1.0, coalesce=True)
            self.reference = _trace_key(sim)
        sim.close()

    def finish(self, state):
        errors, outputs = self._check(state)
        sim = state["sim"]
        outputs["tick_reduction"] = round(sim.metrics.tick_reduction, 3)
        sim.close()
        return errors, outputs


class FleetSharded(_SlicedFleet):
    """128 hosts, 1-s ticks, one shard worker over the shm control plane;
    reference: the same span run serially."""

    name = "fleet-sharded"
    SERVERS = 128
    CHECK_SLICES = 30

    def setup(self):
        # the worker's spawn is left to prime(), out of setup_s: its time
        # does not follow the box's speed (README: speed scaling)
        return {"sim": self._build(), "slices": 0}

    def prime(self, state):
        """Spawn the worker and ship the fleet with the first parallel
        run, which doubles as the warm-up slice."""
        state["sim"].run(self.SLICE_S, dt=1.0, parallel=1, control_plane="shm")

    def spare(self, state, k):
        state["sim"].close()
        if k == 0:
            ref = self._build()
            ref.run(self.SLICE_S * (1 + self.CHECK_SLICES), dt=1.0)
            self.reference = _trace_key(ref)
            ref.close()

    def finish(self, state):
        errors, outputs = self._check(state)
        sim = state["sim"]
        outputs["round_trip_p50_us"] = round(sim.metrics.ipc.round_trip_p50 * 1e6, 2)
        errors += _close_sharded(sim)
        return errors, outputs


def _close_sharded(sim):
    """Close a sharded sim and check its shm segments are gone."""
    engine = sim._parallel
    names = [p.name for p in (engine.plane, engine.cplane) if p is not None]
    sim.close()
    errors = []
    for name in names:
        try:
            leftover = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        leftover.close()
        leftover.unlink()
        errors.append(f"shm segment {name} survived close()")
    return errors


# ----------------------------------------------------------------------
# attack-campaign

#: benign load with crests and troughs for the attacker to find (the
#: per-day demand factor is pinned, as on fleet-day)
ATTACK_TENANTS = DiurnalProfile(
    base_cores=1.0, peak_cores=1.5, bursts_per_day=200.0, burst_cores=5.0,
    burst_duration_s=45.0, noise=0.05, day_factor_range=(1.0, 1.0),
)


class AttackCampaign(_Workload):
    """Fig 3 synergistic attack on 8 object hosts, vanilla and defended."""

    name = "attack-campaign"
    SETUP_SCALED = True
    SERVERS = 8
    WARMUP_S = 60.0
    #: campaign window, crest-learning prefix and detector window; the
    #: detector arms after a tenth of its window, so it must fit the
    #: campaign
    CAMPAIGN_S = 180.0
    LEARN_S = 60.0
    DETECTOR_WINDOW = 300

    def _fleet(self, model):
        sim = DatacenterSimulation(
            servers=self.SERVERS, seed=self.seed, sample_interval_s=1.0,
            tenant_profile=ATTACK_TENANTS,
        )
        if model is not None:
            for host in sim.cloud.hosts:
                PowerNamespaceDriver(host.kernel, model).watch_engine(host.engine)
        cloud, instances, covered = sim.cloud, [], set()
        while len(covered) < self.SERVERS:  # one attacker per server
            inst = cloud.launch_instance("attacker")
            if inst.host_index in covered:
                cloud.terminate_instance(inst)
            else:
                covered.add(inst.host_index)
                instances.append(inst)
        sim.run(self.WARMUP_S, dt=1.0)
        return sim, instances

    def setup(self):
        harness = TrainingHarness(seed=self.seed, window_s=5.0,
                                  windows_per_benchmark=8)
        harness.run_all()
        model = PowerModeler(form="paper").fit(harness)
        return {"vanilla": self._fleet(None), "defended": self._fleet(model)}

    def spare(self, state, k):
        for sim, _ in (state["vanilla"], state["defended"]):
            sim.close()

    def register_hooks(self, tracer, state):
        """The namespace's hooked RAPL read path, one per defended kernel."""
        sim, _ = state["defended"]
        for host in sim.cloud.hosts:
            tracer.wrap(host.kernel, "rapl_read_hook", "defense.ns_read", "defense")

    def _campaign(self, sim, instances, calls):
        strategy = SynergisticAttack(
            sim, instances, burst_s=30.0, cooldown_s=120.0, max_trials=2,
            learn_s=self.LEARN_S,
            detector_factory=lambda: CrestDetector(
                window=self.DETECTOR_WINDOW, threshold_fraction=0.8,
                min_band_watts=15.0,
            ),
        )
        run = sim.run

        def timed_run(*args, **kwargs):
            t0 = perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                calls.append((t0, perf_counter() - t0))
                self.between_calls()

        sim.run = timed_run
        try:
            t0 = sim.now
            outcome, _, wall = _timed(strategy.run, self.CAMPAIGN_S)
        finally:
            del sim.run
        series = next(iter(strategy.monitors.values())).watts
        band = max(series) - min(series) if series else 0.0
        strategy.release_monitors()
        return outcome, wall, self.SERVERS * (sim.now - t0), band

    def op(self, state, i):
        calls: List[Tuple[float, float]] = []
        van, w_v, hs_v, band_v = self._campaign(*state["vanilla"], calls)
        dfd, w_d, hs_d, band_d = self._campaign(*state["defended"], calls)
        failed = 0
        spikes = van.spike_watts
        if not (van.trials == len(spikes) <= 2 and van.peak_watts > 0
                and all(s <= van.peak_watts + 1e-9 for s in spikes)):
            failed += 1
        # the namespace blinds the monitor: a flat reading, no strikes
        if dfd.trials or dfd.spike_watts or dfd.breaker_tripped or band_d > 5.0:
            failed += 1
        return OpResult(
            wall=w_v + w_d, calls=calls,
            host_s=hs_v + hs_d, attempted=2,
            failed=failed, counts={"trials": van.trials + dfd.trials},
            outputs={"vanilla_trials": van.trials,
                     "vanilla_peak_w": round(van.peak_watts, 3),
                     "vanilla_band_w": round(band_v, 3),
                     "defended_trials": dfd.trials,
                     "defended_band_w": round(band_d, 3)},
        )

    def finish(self, state):
        for sim, _ in (state["vanilla"], state["defended"]):
            sim.close()
        return [], {}

    def counters(self, state):
        out = {}
        for key in ("vanilla", "defended"):
            for name, value in _fleet_counters(state[key][0]).items():
                out[name] = out.get(name, 0) + value
        return out


# ----------------------------------------------------------------------
# recon

class Recon(_Workload):
    """Table I inspection, co-residence and cross-validation on CC1-CC5."""

    name = "recon"
    SETUP_SCALED = True
    SERVERS = 8
    TARGET = 3

    def _clouds(self, sweep):
        # every (sweep, provider) gets its own placement stream, so a run
        # averages over many co-residence searches instead of repeating one
        return {
            name: ContainerCloud(
                profile, seed=self.seed * 1_000_003 + sweep * 101 + k,
                servers=self.SERVERS,
            )
            for k, (name, profile) in enumerate(sorted(PROVIDER_PROFILES.items()))
        }

    def _inspect(self, cloud, calls):
        report, t0, wall = _timed(CloudInspector().inspect, cloud)
        calls.append((t0, wall))
        self.between_calls()
        return tuple(sorted((cid, a.value) for cid, a in report.cells.items()))

    def _leaks(self, cloud, inst, calls, counts):
        vfs = cloud.host_of(inst).engine.vfs
        report, t0, wall = _timed(CrossValidator(vfs, inst.container).run)
        calls.append((t0, wall))
        self.between_calls()
        counts["paths"] += len(report.verdicts)
        counts["leak_paths"] += len(report.leaks)
        return len(report.leaks)

    def setup(self):
        # warm-up: every provider's inspection and one cross-validation,
        # so first-call costs land in set-up; the co-residence search is
        # left out because its launch count depends on placement
        clouds = self._clouds(-1)
        calls: List[Tuple[float, float]] = []
        counts = {"paths": 0, "leak_paths": 0}
        table1, leaks = {}, {}
        for name, cloud in clouds.items():
            table1[name] = self._inspect(cloud, calls)
            inst = cloud.launch_instance("attacker")
            cloud.run(1.0)
            leaks[name] = self._leaks(cloud, inst, calls, counts)
            cloud.terminate_instance(inst)
        return {"warm": {"table1": table1, "leaks": leaks}}

    def spare(self, state, k):
        if self.reference is None:
            self.reference = state["warm"]
        elif state["warm"] != self.reference:
            raise RuntimeError("warm-up outputs differ between set-up rounds")

    def op(self, state, i):
        """One CC1-CC5 sweep; its calls are the inspections, searches and
        cross-validations it makes."""
        clouds = self._clouds(i)
        before = {n: c.clock.now for n, c in clouds.items()}
        warm = state["warm"]
        calls: List[Tuple[float, float]] = []
        counts = {"launches": 0, "kept": 0, "paths": 0, "leak_paths": 0}
        launches = {}
        ok = True
        t0 = perf_counter()
        for name, cloud in clouds.items():
            # Table I and the leak counts are properties of the provider,
            # not of placement: each sweep must reproduce the warm-up's
            ok &= self._inspect(cloud, calls) == warm["table1"][name]
            result, t1, wall = _timed(
                CoResidenceOrchestrator(cloud).aggregate, target=self.TARGET
            )
            calls.append((t1, wall))
            self.between_calls()
            for inst in result.instances:
                ok &= self._leaks(cloud, inst, calls, counts) == warm["leaks"][name]
                cloud.terminate_instance(inst)
            launches[name] = result.launches
            counts["launches"] += result.launches
            counts["kept"] += result.achieved
            ok &= (result.achieved == self.TARGET
                   and result.launches == result.achieved + result.terminations)
        wall = perf_counter() - t0
        host_s = sum(self.SERVERS * (c.clock.now - before[n])
                     for n, c in clouds.items())
        return OpResult(wall=wall, calls=calls, host_s=host_s, failed=int(not ok), counts=counts,
                        outputs={"launches": launches})

    def finish(self, state):
        warm = state["warm"]
        errors = []
        if warm != self.reference:
            errors.append("warm-up outputs differ between set-up rounds")
        digest = hashlib.sha256(
            repr(sorted(warm["table1"].items())).encode()
        ).hexdigest()[:16]
        return errors, {"table1_digest": digest, "leaks": warm["leaks"]}

    def counters(self, state):
        return {}


WORKLOADS = {
    w.name: w for w in (FleetDay, AttackCampaign, Recon, FleetSharded)
}


# ----------------------------------------------------------------------
# layer map: which public functions the traced run wraps


def register_layers(tracer):
    """Wrap every layer's public entry points (class-level)."""
    t = tracer.wrap
    t(DatacenterSimulation, "run", "simulation.run", "simulation")
    t(TenantPopulation, "for_hosts", "population.build", "population")
    t(TenantPopulation, "step", "population.step", "population")
    t(ColumnarHostEngine, "adopt_all", "columnar.adopt", "columnar")
    t(ColumnarHostEngine, "tick_all", "columnar.tick_all", "columnar")
    t(Kernel, "tick", "kernel.tick", "kernel")
    t(FastForwardEngine, "plan_step", "fastforward.plan_step", "fastforward")
    t(Rack, "wall_power", "topology.wall_power", "topology")
    t(PseudoVFS, "read", "procfs.read", "procfs", measure=len)
    t(PseudoVFS, "lookup", "procfs.lookup", "procfs")
    t(PseudoVFS, "walk", "procfs.walk", "procfs", materialize=True)
    t(cloud_mod, "build_cloud_host", "runtime.cloud_build", "runtime")
    t(ContainerEngine, "create", "runtime.create", "runtime")
    t(ContainerEngine, "remove", "runtime.remove", "runtime")
    t(CloudInspector, "inspect", "detection.inspect", "detection")
    t(CrossValidator, "run", "detection.crossvalidate", "detection")
    t(CoResidenceOrchestrator, "aggregate", "coresidence.aggregate", "coresidence")
    t(orchestrator_mod, "fingerprint_verifier", "coresidence.verify", "coresidence")
    t(RaplPowerMonitor, "sample", "attack.monitor", "attack")
    t(CrestDetector, "observe", "attack.detector", "attack", measure=bool)
    t(SynergisticAttack, "run", "attack.campaign", "attack")
    t(TrainingHarness, "run_all", "defense.train", "defense")
    t(PowerModeler, "fit", "defense.train", "defense")


LAYERS = ("simulation", "population", "columnar", "kernel", "fastforward",
          "topology", "procfs", "runtime", "detection", "coresidence",
          "attack", "defense")


def per_layer_metrics(calls, busy, self_s, measured, errors, wall,
                      setup_busy, setup_wall, counters, counts, overhead, spans, tail):
    """Every per-layer metric, zero where a layer idles.

    ``calls``/``busy``/``self_s``/``measured``/``errors`` cover the traced
    ops, whose wall seconds sum to ``wall``; ``setup_busy`` covers the
    traced set-up round of ``setup_wall`` seconds. ``counters`` are deltas
    of the program's own counters over the traced ops, ``counts`` sums of
    the ops' own counts. Layer times are reported as shares of wall time,
    so an idle layer reads 0 rather than a constant time. ``tail`` is the
    (percentile, seconds) call tail of the run's untraced ops.
    """
    def share(name):
        return busy.get(name, 0.0) / wall if wall > 0 else 0.0

    def ratio(num, den, empty=0.0):
        return num / den if den else empty

    c = counters
    n = counts
    m = {
        "simulation.run.calls": (calls.get("simulation.run", 0), "count"),
        "population.step.calls": (calls.get("population.step", 0), "count"),
        "population.step.share": (share("population.step"), "frac"),
        "population.tenant_ticks": (c.get("tenant_ticks", 0), "count"),
        "columnar.tick_all.calls": (calls.get("columnar.tick_all", 0), "count"),
        "columnar.tick_all.share": (share("columnar.tick_all"), "frac"),
        "columnar.cold_host_ticks": (c.get("cold_host_ticks", 0), "count"),
        "columnar.materializations": (c.get("materializations", 0), "count"),
        "kernel.tick.calls": (calls.get("kernel.tick", 0), "count"),
        "kernel.tick.share": (share("kernel.tick"), "frac"),
        "fastforward.ticks": (c.get("ticks", 0), "count"),
        "fastforward.tick_reduction": (
            ratio(c.get("reference_ticks", 0), c.get("ticks", 0), 1.0), "ratio"),
        "topology.wall_power.calls": (calls.get("topology.wall_power", 0), "count"),
        "topology.wall_power.share": (share("topology.wall_power"), "frac"),
        "ipc.barrier_share": (ratio(c.get("barrier_wait_s", 0.0), wall), "frac"),
        "ipc.shm_control_frames": (c.get("shm_control_frames", 0), "count"),
        "ipc.pipe_control_frames": (c.get("pipe_control_frames", 0), "count"),
        "ipc.bytes_per_tick": (ratio(c.get("ipc_bytes", 0), c.get("ticks", 0)), "B"),
        "procfs.read.calls": (calls.get("procfs.read", 0), "count"),
        "procfs.read.share": (share("procfs.read"), "frac"),
        "procfs.read.bytes": (measured.get("procfs.read", 0), "B"),
        "procfs.read.errors": (errors.get("procfs.read", 0), "count"),
        "runtime.create.calls": (calls.get("runtime.create", 0), "count"),
        "runtime.create.share": (share("runtime.create"), "frac"),
        "runtime.create.setup_share": (
            ratio(setup_busy.get("runtime.create", 0.0), setup_wall), "frac"),
        "runtime.cloud_build.setup_share": (
            ratio(setup_busy.get("runtime.cloud_build", 0.0), setup_wall), "frac"),
        "population.build.setup_share": (
            ratio(setup_busy.get("population.build", 0.0), setup_wall), "frac"),
        "columnar.adopt.setup_share": (
            ratio(setup_busy.get("columnar.adopt", 0.0), setup_wall), "frac"),
        "runtime.remove.share": (share("runtime.remove"), "frac"),
        "detection.inspect.share": (share("detection.inspect"), "frac"),
        "detection.crossvalidate.share": (share("detection.crossvalidate"), "frac"),
        "detection.leak_yield": (
            ratio(n.get("leak_paths", 0), n.get("paths", 0)), "ratio"),
        "coresidence.launches": (n.get("launches", 0), "count"),
        "coresidence.hit_ratio": (
            ratio(n.get("kept", 0), n.get("launches", 0)), "ratio"),
        "coresidence.verify.share": (share("coresidence.verify"), "frac"),
        "attack.monitor.samples": (calls.get("attack.monitor", 0), "count"),
        "attack.monitor.share": (share("attack.monitor"), "frac"),
        "attack.detector.share": (share("attack.detector"), "frac"),
        "attack.trials": (n.get("trials", 0), "count"),
        "attack.aimed_ratio": (
            ratio(n.get("trials", 0), measured.get("attack.detector", 0)), "ratio"),
        "defense.train.setup_share": (
            ratio(setup_busy.get("defense.train", 0.0), setup_wall), "frac"),
        "defense.ns_read.share": (share("defense.ns_read"), "frac"),
        "call.tail_ms": (tail[1] * 1e3, "ms"),
        "call.tail_pct": (tail[0], "pct"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.spans": (spans, "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (ratio(self_s.get(layer, 0.0), wall), "frac")
    return m
