"""The pipeline runner: one execution path for every flow.

:class:`PipelineRunner` strings the four stages together —

.. code-block:: text

    load ──▶ schedule ──▶ simulate ──▶ metrics
      │          │            │            │
      ▼          ▼            ▼            ▼
  LoadedMatrix ScheduledMatrix CycleResult SpMVReport

— resolving scheme names through the registry, fingerprinting each
artifact, consulting the :class:`~repro.pipeline.store.ArtifactStore`
(when one is attached) before recomputing, and wrapping every stage in a
``pipeline.<stage>`` telemetry span.

Two operating modes:

* ``PipelineRunner()`` — no store; every stage recomputes.  This is what
  the accelerator façades use: ``ChasonAccelerator.analyze`` must always
  rebuild the schedule so its :class:`MigrationReport` side-channel is
  populated.
* ``PipelineRunner(global_artifact_store())`` — whole-flow caching; used
  by the experiment workers, the corpus runner and the benchmark harness
  where the same (matrix, scheme, config) triple recurs.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..config import AcceleratorConfig
from ..errors import ConfigError, EstimationError, ShapeError
from ..estimator.calibration import DEFAULT_CALIBRATION, CalibrationTable
from ..estimator.fidelity import resolve_fidelity
from ..scheduling.base import TiledSchedule
from ..scheduling.registry import SchedulerSpec, get_scheme
from ..sim.engine import ENGINE_VERSION, SpMVExecution
from .artifacts import (
    CycleResult,
    EstimateResult,
    LoadedMatrix,
    PipelineResult,
    ReportArtifact,
    ScheduledMatrix,
    SpMVReport,
)
from .fingerprint import fingerprint, fingerprint_config
from .stages import (
    EstimateStage,
    LoadStage,
    MetricsStage,
    ScheduleStage,
    SimulateStage,
)
from .store import ArtifactStore

_LOAD = LoadStage()
_SCHEDULE = ScheduleStage()
_SIMULATE = SimulateStage()
_METRICS = MetricsStage()
_ESTIMATE = EstimateStage()

#: Result of either tier: both expose ``.report`` and ``.fidelity``.
AnalysisResult = Union[PipelineResult, EstimateResult]

#: Tile snapshots a runner keeps for :meth:`PipelineRunner.reschedule`
#: (one segmented LRU; see :mod:`repro.pipeline.store`).
RESCHEDULE_CAPACITY = 128


class PreparedSpMV:
    """A matrix held ready for repeated functional execution.

    The load + schedule stages (including their fingerprint chains and
    cache lookups) ran exactly once, at :meth:`PipelineRunner.prepare`
    time; :meth:`execute` then re-runs only the execute stage against a
    new iterate vector — a replay of the schedule's plan, compiled on
    the first execution.  This is the iteration re-execute path
    the session subsystem keeps device-resident: the schedule identity
    is the pass-signature fingerprint chain (``fingerprint``), so two
    prepared handles for the same (matrix, scheme, config) are
    interchangeable by construction.

    ``runner`` stays an attribute (not a closure) so a device's
    fault-injecting runner wrapper can substitute itself after
    ``prepare`` and keep injected faults on the per-iteration path.
    """

    __slots__ = ("runner", "loaded", "scheduled", "executions")

    def __init__(self, runner: "PipelineRunner", loaded: LoadedMatrix,
                 scheduled: ScheduledMatrix):
        self.runner = runner
        self.loaded = loaded
        self.scheduled = scheduled
        self.executions = 0

    @property
    def fingerprint(self) -> str:
        """The schedule's pass-signature fingerprint chain digest."""
        return self.scheduled.fingerprint

    @property
    def n_cols(self) -> int:
        return self.loaded.matrix.n_cols

    def execute(self, x: np.ndarray) -> SpMVExecution:
        """One functional ``y = A x`` against the resident schedule."""
        x = np.asarray(x, dtype=np.float32)
        if x.shape != (self.n_cols,):
            raise ShapeError(
                f"x of shape {x.shape} incompatible with "
                f"{self.loaded.matrix.shape}"
            )
        t = telemetry.get()
        with t.span(
            "pipeline.reexecute",
            scheme=self.scheduled.scheme,
            schedule=self.scheduled.fingerprint[:12],
        ):
            execution = self.runner.execute(self.scheduled, x)
        self.executions += 1
        return execution


class PipelineRunner:
    """Drives the load → schedule → simulate → metrics flow."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = store
        # The pass snapshots :meth:`reschedule` resumes from, the only
        # ones any store keeps (made on first use).
        self._reschedule_store: Optional[ArtifactStore] = None
        #: Pass execution counts of the last :meth:`reschedule` call.
        self.last_reschedule_stats = None

    # -- stage 1: load ---------------------------------------------------

    def load(
        self,
        source: Any,
        described: Optional[Tuple[str, str, str]] = None,
    ) -> LoadedMatrix:
        """Materialise a matrix source into a :class:`LoadedMatrix`.

        ``source`` may be a named-matrix string, a
        :class:`~repro.matrices.named.MatrixSpec`, a
        :class:`~repro.matrices.collection.CorpusSpec`, or an in-memory
        matrix (COO/CSR/CSC/ELL).  Spec-backed sources are served from
        the store when attached; in-memory matrices are wrapped directly
        (they are already materialised, caching them would only pin
        memory).  ``described`` is the caller's
        :meth:`LoadStage.describe` of ``source`` when it already hashed
        it (a serving layer keys on the same digest), so the matrix is
        not hashed twice.
        """
        if isinstance(source, LoadedMatrix):
            return source
        if described is None:
            described = _LOAD.describe(source)
        kind, label, digest = described
        t = telemetry.get()
        with t.span("pipeline.load", source=label, kind=kind):
            if self.store is not None and kind == "spec":
                return self.store.get_or_build(
                    _LOAD.name, digest, lambda: _LOAD.run(source, described)
                )
            return _LOAD.run(source, described)

    # -- stage 2: schedule -----------------------------------------------

    def schedule(
        self,
        source: Any,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        **scheduler_kwargs: Any,
    ) -> ScheduledMatrix:
        """Schedule a matrix under a registered scheme.

        ``scheme`` is a registry name or a :class:`SchedulerSpec`;
        ``config`` defaults to the spec's ``default_config``.  Extra
        keyword arguments go to the scheduler verbatim and participate in
        the fingerprint.

        With a store attached there is one path: a memory hit, else the
        §3.2 disk image, else a cold build that the store then keeps.
        No tile resumes from a pass snapshot here; only
        :meth:`reschedule` does that.
        """
        loaded = self.load(source)
        spec = scheme if isinstance(scheme, SchedulerSpec) else get_scheme(scheme)
        if config is None:
            config = spec.default_config
        digest = _SCHEDULE.fingerprint_for(
            loaded.fingerprint, spec, config, scheduler_kwargs
        )
        t = telemetry.get()
        with t.span(
            "pipeline.schedule", scheme=spec.name, source=loaded.label
        ):
            if self.store is None:
                return _SCHEDULE.run(
                    loaded, spec, config, scheduler_kwargs, digest
                )
            store = self.store

            def build() -> ScheduledMatrix:
                # A memory miss reads the §3.2 disk image when there is
                # one, else builds cold on the pass manager's
                # snapshot-free hot path.
                schedule = store.read_schedule(digest, config)
                if schedule is not None:
                    return ScheduledMatrix(
                        schedule=schedule,
                        scheme=spec.name,
                        config=config,
                        matrix_fingerprint=loaded.fingerprint,
                        fingerprint=digest,
                    )
                artifact = _SCHEDULE.run(
                    loaded, spec, config, scheduler_kwargs, digest
                )
                store.write_schedule(digest, artifact.schedule)
                return artifact

            return store.get_or_build(_SCHEDULE.name, digest, build)

    def reschedule(
        self,
        source: Any,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        **scheduler_kwargs: Any,
    ) -> ScheduledMatrix:
        """Incrementally reschedule an (edited) matrix.

        Schedules through a pass-only store the runner keeps for these
        calls (:data:`RESCHEDULE_CAPACITY` tile snapshots): the first call
        is a cold schedule that warms it, and every later call diffs
        per-pass input fingerprints against it and re-runs only the
        invalidated passes — an in-place edit to the matrix rebuilds
        only the tiles it touched.  The result is byte-identical to a
        cold :meth:`schedule` of the same matrix.

        Pass execution counts land in :attr:`last_reschedule_stats`
        (a :class:`~repro.scheduling.passes.PassRunStats`).

        Raises :class:`~repro.errors.ConfigError` for schemes that do
        not declare a pass pipeline.
        """
        loaded = self.load(source)
        spec = scheme if isinstance(scheme, SchedulerSpec) else get_scheme(scheme)
        if config is None:
            config = spec.default_config
        if spec.plan is None:
            raise ConfigError(
                f"scheme {spec.name!r} declares no pass pipeline; "
                f"reschedule only works for pass-based schemes"
            )
        passes = self._reschedule_store
        if passes is None:
            passes = self._reschedule_store = ArtifactStore(
                capacity=RESCHEDULE_CAPACITY
            )
        digest = _SCHEDULE.fingerprint_for(
            loaded.fingerprint, spec, config, scheduler_kwargs
        )
        t = telemetry.get()
        with t.span(
            "pipeline.reschedule",
            scheme=spec.name,
            source=loaded.label,
            cold=len(passes) == 0,
        ):
            artifact = _SCHEDULE.run(
                loaded, spec, config, scheduler_kwargs, digest,
                pass_cache=passes,
            )
        self.last_reschedule_stats = passes.last_pass_stats
        return artifact

    def adopt(
        self, source: Any, schedule: TiledSchedule
    ) -> ScheduledMatrix:
        """Wrap an externally built schedule as a pipeline artifact.

        Used by façades that accept a precomputed schedule
        (``analyze(..., schedule=...)``).  The fingerprint matches what
        :meth:`schedule` would produce for the same (matrix, scheme,
        config) with no extra kwargs, so downstream simulate/metrics
        artifacts are shared either way; unregistered scheme names get an
        empty version tag.
        """
        loaded = self.load(source)
        try:
            spec: Optional[SchedulerSpec] = get_scheme(schedule.scheme)
        except ConfigError:
            spec = None
        if spec is not None:
            digest = _SCHEDULE.fingerprint_for(
                loaded.fingerprint, spec, schedule.config, {}
            )
        else:
            digest = fingerprint(
                "schedule",
                loaded.fingerprint,
                schedule.scheme,
                "",
                fingerprint_config(schedule.config),
                {},
            )
        return ScheduledMatrix(
            schedule=schedule,
            scheme=schedule.scheme,
            config=schedule.config,
            matrix_fingerprint=loaded.fingerprint,
            fingerprint=digest,
            migration=None,
        )

    # -- stage 3: simulate -----------------------------------------------

    def simulate(self, scheduled: ScheduledMatrix) -> CycleResult:
        """Analytic cycle accounting of a scheduled matrix."""
        digest = _SIMULATE.fingerprint_for(scheduled.fingerprint)
        t = telemetry.get()
        with t.span("pipeline.simulate", scheme=scheduled.scheme):
            if self.store is not None:
                return self.store.get_or_build(
                    _SIMULATE.name,
                    digest,
                    lambda: _SIMULATE.run(scheduled, digest),
                )
            return _SIMULATE.run(scheduled, digest)

    def execute(
        self, scheduled: ScheduledMatrix, x: np.ndarray
    ) -> SpMVExecution:
        """Functional execution (never cached: y depends on ``x``).

        Runs the artifact's replay plan, compiling it on the first call
        for this artifact; later calls only replay it.
        """
        return scheduled.replay_plan().run(x)

    # -- stage 4: metrics ------------------------------------------------

    def metrics(
        self,
        scheduled: ScheduledMatrix,
        cycles: CycleResult,
        accelerator: Optional[str] = None,
        power_watts: Optional[float] = None,
    ) -> ReportArtifact:
        """Assemble the §5.3 report; defaults come from the registry."""
        if accelerator is None or power_watts is None:
            spec = get_scheme(scheduled.scheme)
            if accelerator is None:
                accelerator = spec.accelerator_name
            if power_watts is None:
                power_watts = spec.power_watts()
        digest = _METRICS.fingerprint_for(
            cycles.fingerprint, accelerator, power_watts
        )
        t = telemetry.get()
        with t.span(
            "pipeline.metrics",
            scheme=scheduled.scheme,
            accelerator=accelerator,
        ):
            if self.store is not None:
                return self.store.get_or_build(
                    _METRICS.name,
                    digest,
                    lambda: _METRICS.run(
                        scheduled, cycles, accelerator, power_watts, digest
                    ),
                )
            return _METRICS.run(
                scheduled, cycles, accelerator, power_watts, digest
            )

    # -- the estimate tier -----------------------------------------------

    def estimate(
        self,
        source: Any,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        accelerator: Optional[str] = None,
        power_watts: Optional[float] = None,
        calibration: Optional[CalibrationTable] = None,
        described: Optional[Tuple[str, str, str]] = None,
    ) -> EstimateResult:
        """The estimate tier: load → analytical prediction, no schedule.

        Raises :class:`~repro.errors.EstimationError` when the scheme
        has no predictor or no calibration entry — the ``auto`` tier
        catches that and falls back to :meth:`analyze`.
        """
        loaded = self.load(source, described)
        spec = scheme if isinstance(scheme, SchedulerSpec) else get_scheme(scheme)
        if config is None:
            config = spec.default_config
        if accelerator is None:
            accelerator = spec.accelerator_name
        if power_watts is None:
            power_watts = spec.power_watts()
        if calibration is None:
            calibration = DEFAULT_CALIBRATION
        digest = _ESTIMATE.fingerprint_for(
            loaded.fingerprint, spec, config, calibration, accelerator,
            power_watts,
        )
        t = telemetry.get()
        with t.span(
            "pipeline.estimate", scheme=spec.name, source=loaded.label
        ):
            if self.store is not None:
                artifact = self.store.get_or_build(
                    _ESTIMATE.name,
                    digest,
                    lambda: _ESTIMATE.run(
                        loaded, spec, config, calibration, accelerator,
                        power_watts, digest,
                    ),
                )
            else:
                artifact = _ESTIMATE.run(
                    loaded, spec, config, calibration, accelerator,
                    power_watts, digest,
                )
        return EstimateResult(loaded=loaded, estimate_artifact=artifact)

    # -- whole-flow conveniences ----------------------------------------

    def analyze(
        self,
        source: Any,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        accelerator: Optional[str] = None,
        power_watts: Optional[float] = None,
        schedule: Optional[TiledSchedule] = None,
        fidelity: Optional[str] = None,
        calibration: Optional[CalibrationTable] = None,
        described: Optional[Tuple[str, str, str]] = None,
        **scheduler_kwargs: Any,
    ) -> AnalysisResult:
        """The full analytic flow: load → schedule → simulate → metrics.

        ``fidelity`` selects the tier (explicit > ``REPRO_FIDELITY`` >
        ``exact``): ``estimate`` routes through :meth:`estimate`,
        ``auto`` tries the estimator and falls back to exact when the
        scheme is not covered.  An adopted ``schedule`` or extra
        scheduler kwargs always force the exact tier — the analytical
        model knows nothing about either.  ``described`` is as for
        :meth:`load`.
        """
        tier = resolve_fidelity(fidelity, default="exact")
        if tier != "exact" and schedule is None and not scheduler_kwargs:
            try:
                return self.estimate(
                    source, scheme, config, accelerator, power_watts,
                    calibration, described,
                )
            except EstimationError:
                if tier == "estimate":
                    raise
        loaded = self.load(source, described)
        if schedule is not None:
            scheduled = self.adopt(loaded, schedule)
        else:
            scheduled = self.schedule(
                loaded, scheme, config, **scheduler_kwargs
            )
        cycles = self.simulate(scheduled)
        report = self.metrics(scheduled, cycles, accelerator, power_watts)
        return PipelineResult(
            loaded=loaded,
            scheduled=scheduled,
            cycles=cycles,
            report_artifact=report,
        )

    def prepare(
        self,
        source: Any,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        **scheduler_kwargs: Any,
    ) -> PreparedSpMV:
        """Load + schedule once, for repeated functional execution.

        The returned :class:`PreparedSpMV` holds the loaded matrix and
        its scheduled artifact (a schedule-cache hit when one is warm);
        every subsequent ``execute(x)`` skips load, schedule and all
        fingerprint hashing — the per-iteration path of an iterative
        solver session.
        """
        loaded = self.load(source)
        scheduled = self.schedule(loaded, scheme, config,
                                  **scheduler_kwargs)
        return PreparedSpMV(self, loaded, scheduled)

    def run(
        self,
        source: Any,
        x: np.ndarray,
        scheme: Any,
        config: Optional[AcceleratorConfig] = None,
        accelerator: Optional[str] = None,
        power_watts: Optional[float] = None,
        schedule: Optional[TiledSchedule] = None,
        **scheduler_kwargs: Any,
    ) -> Tuple[SpMVExecution, SpMVReport]:
        """The functional flow: execute the datapath, then report.

        The report is assembled from the *executed* cycle breakdown
        (identical to the analytic one — ``estimate_cycles`` mirrors the
        replay plan's accounting exactly), so the execution is never
        wasted.
        """
        loaded = self.load(source)
        if schedule is not None:
            scheduled = self.adopt(loaded, schedule)
        else:
            scheduled = self.schedule(
                loaded, scheme, config, **scheduler_kwargs
            )
        execution = self.execute(scheduled, x)
        cycles = CycleResult(
            cycles=execution.cycles,
            schedule_fingerprint=scheduled.fingerprint,
            fingerprint=fingerprint(
                "cycles", scheduled.fingerprint, ENGINE_VERSION
            ),
        )
        report = self.metrics(scheduled, cycles, accelerator, power_watts)
        return execution, report.report
