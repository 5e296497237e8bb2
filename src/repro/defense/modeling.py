"""Power modelling (Section V-B-2): Formula 2 and its training harness.

The model attributes *active* energy from perf counters:

    M_core = F(CM/C, BM/C) · I + α        (paper form)
    M_dram = β · CM + γ
    M_package = M_core + M_dram + λ

F is a polynomial in the two miss rates fitted by least squares over
windows of the modelling benchmarks (idle loop, prime, libquantum, stress
variants — Figures 6/7). A "full" form regressing on (C, CM, BM) directly
is also provided for the ablation on model terms: the paper form carries
structural error (it folds cycle-proportional energy into the
per-instruction slope), which is precisely what makes the Formula 3
calibration step earn its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.regression import LinearModel, fit_linear, polynomial_features
from repro.defense.collection import ContainerPerfCollector, PerfWindow
from repro.errors import DefenseError, ReproError
from repro.kernel.kernel import Machine
from repro.kernel.rapl import unwrap_delta
from repro.runtime.benchmarks import MODELING_BENCHMARKS, BenchmarkProfile


@dataclass(frozen=True)
class WindowSample:
    """One training window: counters + measured energy."""

    benchmark: str
    duration_s: float
    window: PerfWindow
    e_core_active_j: float
    e_dram_active_j: float
    e_package_total_j: float


@dataclass
class TrainedPowerModel:
    """The fitted Formula 2 model plus the idle baseline."""

    form: str
    core_model: LinearModel
    dram_model: LinearModel
    lambda_watts: float
    idle_core_watts: float
    idle_dram_watts: float
    degree: int = 2

    def _core_features(self, window: PerfWindow) -> List[float]:
        if self.form == "paper":
            poly = polynomial_features(
                window.cache_miss_rate, window.branch_miss_rate, self.degree
            )
            return [f * window.instructions for f in poly]
        if self.form == "full":
            return [
                float(window.cycles),
                float(window.cache_misses),
                float(window.branch_misses),
            ]
        raise DefenseError(f"unknown model form: {self.form}")

    def core_active_j(self, window: PerfWindow) -> float:
        """M_core: modelled active core energy for one window."""
        return max(0.0, self.core_model.predict(self._core_features(window)))

    def dram_active_j(self, window: PerfWindow) -> float:
        """M_dram: modelled active DRAM energy for one window."""
        return max(0.0, self.dram_model.predict([float(window.cache_misses)]))

    def active_j(self, window: PerfWindow) -> float:
        """Modelled active core+DRAM energy for one window."""
        return self.core_active_j(window) + self.dram_active_j(window)


class TrainingHarness:
    """Runs the modelling benchmarks and records (counters, energy) windows.

    Everything is measured the way a real defender would: host-wide perf
    counters and the RAPL sysfs counters, never the simulator's hidden
    power parameters.
    """

    def __init__(
        self,
        seed: int = 0,
        window_s: float = 5.0,
        windows_per_benchmark: int = 24,
        machine: Optional[Machine] = None,
        sensor_retries: int = 6,
        max_plausible_watts: float = 2000.0,
        tracer=None,
    ):
        self.window_s = window_s
        self.windows_per_benchmark = windows_per_benchmark
        self.machine = machine or Machine(seed=seed)
        #: optional :class:`repro.obs.SpanTracer`; when enabled the harness
        #: records defense.idle / defense.benchmark spans on the "defense"
        #: track using this machine's virtual clock for sim-time
        self.tracer = tracer
        #: retries per RAPL read before giving up (each waits out virtual
        #: time, doubling, so a transient drop window usually clears)
        self.sensor_retries = sensor_retries
        #: package-power ceiling above which a window is garbage, not data
        self.max_plausible_watts = max_plausible_watts
        #: training windows discarded because a counter read was implausible
        self.degraded_windows = 0
        kernel = self.machine.kernel
        if not kernel.rapl.present:
            raise DefenseError("training needs RAPL hardware")
        self.collector = ContainerPerfCollector(kernel)
        self.samples: List[WindowSample] = []
        self.samples_by_benchmark: Dict[str, List[WindowSample]] = {}
        self.idle_core_watts = 0.0
        self.idle_dram_watts = 0.0
        self._measure_idle()

    # ------------------------------------------------------------------

    def _trace(self):
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def _read_domain_uj(self, domain) -> int:
        """One driver-path RAPL read, waiting out transient faults.

        Reads go through :meth:`Kernel.read_energy_uj` — the same seam a
        fault injector corrupts — and retry with doubling virtual-time
        waits; a fault window that outlives every retry is a
        :class:`DefenseError` (training cannot proceed blind).
        """
        kernel = self.machine.kernel
        wait_s = 1.0
        for attempt in range(self.sensor_retries + 1):
            try:
                return kernel.read_energy_uj(domain)
            except ReproError:
                if attempt == self.sensor_retries:
                    break
                self.machine.run(wait_s, dt=1.0)
                wait_s *= 2.0
        raise DefenseError(
            f"RAPL domain {domain.sysfs_name} unreadable after "
            f"{self.sensor_retries} retries"
        )

    def _rapl_marks(self):
        pkg = self.machine.kernel.rapl.package(0)
        return tuple(
            self._read_domain_uj(d) for d in (pkg.core, pkg.dram, pkg.package)
        )

    def _rapl_deltas_j(self, marks) -> tuple:
        now = self._rapl_marks()
        return tuple(
            unwrap_delta(b, a) / 1e6 for a, b in zip(marks, now)
        )

    def _plausible(self, pkg_j: float, seconds: float) -> bool:
        watts = pkg_j / seconds
        return 0.0 < watts <= self.max_plausible_watts

    def _measure_idle(self, seconds: float = 30.0, attempts: int = 3) -> None:
        tracer = self._trace()
        if tracer is not None:
            i_t0, i_w0 = self.machine.clock.now, perf_counter()
        for _ in range(attempts):
            marks = self._rapl_marks()
            self.machine.run(seconds, dt=1.0)
            core_j, dram_j, pkg_j = self._rapl_deltas_j(marks)
            if self._plausible(pkg_j, seconds):
                break
            # a stuck/garbage counter poisoned the baseline: measure again
            self.degraded_windows += 1
        else:
            raise DefenseError(
                f"no plausible idle baseline in {attempts} attempts"
            )
        self.idle_core_watts = core_j / seconds
        self.idle_dram_watts = dram_j / seconds
        self.collector.collect_host()  # reset the host perf mark
        if tracer is not None:
            tracer.add_span(
                "defense.idle",
                i_t0,
                self.machine.clock.now,
                perf_counter() - i_w0,
                track="defense",
                idle_watts=self.idle_core_watts + self.idle_dram_watts,
            )

    def run_benchmark(self, profile: BenchmarkProfile, cores: int = 4) -> List[WindowSample]:
        """Run one benchmark and collect its training windows."""
        tracer = self._trace()
        if tracer is not None:
            b_t0, b_w0 = self.machine.clock.now, perf_counter()
        kernel = self.machine.kernel
        tasks = [
            kernel.spawn(f"{profile.name}-{i}", workload=profile.workload())
            for i in range(cores)
        ]
        # warm-up window, discarded
        self.machine.run(self.window_s, dt=1.0)
        self.collector.collect_host()
        marks = self._rapl_marks()

        collected: List[WindowSample] = []
        for _ in range(self.windows_per_benchmark):
            self.machine.run(self.window_s, dt=1.0)
            window = self.collector.collect_host()
            core_j, dram_j, pkg_j = self._rapl_deltas_j(marks)
            marks = self._rapl_marks()
            if not self._plausible(pkg_j, self.window_s):
                # corrupted counter (stuck/garbage/spurious wrap): the
                # window would poison the fit — drop it, keep training
                self.degraded_windows += 1
                continue
            collected.append(
                WindowSample(
                    benchmark=profile.name,
                    duration_s=self.window_s,
                    window=window,
                    e_core_active_j=max(
                        0.0, core_j - self.idle_core_watts * self.window_s
                    ),
                    e_dram_active_j=max(
                        0.0, dram_j - self.idle_dram_watts * self.window_s
                    ),
                    e_package_total_j=pkg_j,
                )
            )
        for task in tasks:
            kernel.kill(task)
        self.machine.run(2.0, dt=1.0)  # drain
        self.collector.collect_host()
        self.samples.extend(collected)
        self.samples_by_benchmark.setdefault(profile.name, []).extend(collected)
        if tracer is not None:
            tracer.add_span(
                "defense.benchmark",
                b_t0,
                self.machine.clock.now,
                perf_counter() - b_w0,
                track="defense",
                benchmark=profile.name,
                cores=cores,
                windows=len(collected),
            )
        return collected

    def run_all(
        self,
        benchmarks: Optional[Dict[str, BenchmarkProfile]] = None,
        core_counts: tuple = (1, 2, 4),
    ) -> None:
        """Run the full modelling set (Figures 6/7's workloads).

        Each benchmark runs at several degrees of parallelism so the
        instruction counts per window span a wide range — that spread is
        what makes the per-benchmark energy-vs-instructions lines of
        Figure 6 (and the regression behind Formula 2) well-conditioned.
        """
        for profile in (benchmarks or MODELING_BENCHMARKS).values():
            for cores in core_counts:
                self.run_benchmark(profile, cores=cores)


class PowerModeler:
    """Fits :class:`TrainedPowerModel` from harness samples."""

    def __init__(self, form: str = "paper", degree: int = 2):
        if form not in ("paper", "full"):
            raise DefenseError(f"unknown model form: {form}")
        self.form = form
        self.degree = degree

    def fit(self, harness: TrainingHarness) -> TrainedPowerModel:
        """Least-squares fit of Formula 2 over the harness samples."""
        samples = harness.samples
        if len(samples) < 8:
            raise DefenseError(f"too few training windows: {len(samples)}")

        if self.form == "paper":
            core_features = [
                [
                    f * s.window.instructions
                    for f in polynomial_features(
                        s.window.cache_miss_rate,
                        s.window.branch_miss_rate,
                        self.degree,
                    )
                ]
                for s in samples
            ]
        else:
            core_features = [
                [
                    float(s.window.cycles),
                    float(s.window.cache_misses),
                    float(s.window.branch_misses),
                ]
                for s in samples
            ]
        core_model = fit_linear(core_features, [s.e_core_active_j for s in samples])

        dram_model = fit_linear(
            [[float(s.window.cache_misses)] for s in samples],
            [s.e_dram_active_j for s in samples],
        )

        # λ: package power not explained by core + DRAM + their idle floors
        residuals = [
            (
                s.e_package_total_j
                - (s.e_core_active_j + harness.idle_core_watts * s.duration_s)
                - (s.e_dram_active_j + harness.idle_dram_watts * s.duration_s)
            )
            / s.duration_s
            for s in samples
        ]
        lambda_watts = max(0.0, sum(residuals) / len(residuals))

        return TrainedPowerModel(
            form=self.form,
            core_model=core_model,
            dram_model=dram_model,
            lambda_watts=lambda_watts,
            idle_core_watts=harness.idle_core_watts,
            idle_dram_watts=harness.idle_dram_watts,
            degree=self.degree,
        )
