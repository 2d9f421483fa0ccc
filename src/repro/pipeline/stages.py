"""The four built-in pipeline stages.

Each stage is a tiny object satisfying the
:class:`~repro.pipeline.artifacts.Stage` protocol: a ``name`` (telemetry
span suffix and store partition) plus a pure ``run``.  Stages also know
how to **fingerprint** their output from the fingerprints of their
inputs, which is what the runner uses to decide cached-vs-recompute —
``run`` is only ever called on a miss.

The metrics math here is the reference implementation of the §5.3
report; :meth:`repro.core.accelerator.StreamingAccelerator.report_from_cycles`
delegates to it, and the golden differential test in
``tests/test_pipeline.py`` pins it against the pre-pipeline façade
formulas field by field.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from ..config import AcceleratorConfig
from ..errors import DatasetError
from ..estimator.calibration import (
    CALIBRATION_VERSION,
    CalibrationTable,
)
from ..estimator.model import ESTIMATOR_VERSION, predict_schedule
from ..matrices.collection import CorpusSpec
from ..matrices.named import NAMED_MATRICES, MatrixSpec, generate_named
from ..metrics import (
    bandwidth_efficiency,
    energy_efficiency,
    pe_underutilization_percent,
    throughput_gflops,
)
from ..scheduling.base import TiledSchedule
from ..scheduling.crhcs import MigrationReport
from ..scheduling.registry import SchedulerSpec, get_scheme
from ..sim.engine import ENGINE_VERSION, CycleBreakdown, estimate_cycles
from .artifacts import (
    CycleResult,
    EstimateArtifact,
    LoadedMatrix,
    ReportArtifact,
    ScheduledMatrix,
    SpMVReport,
)
from .fingerprint import (
    fingerprint,
    fingerprint_config,
    fingerprint_matrix,
    fingerprint_source,
)

#: Metrics-assembly revision (fingerprint component).
METRICS_VERSION = "1"


class LoadStage:
    """matrix source → :class:`LoadedMatrix`."""

    name = "load"

    @staticmethod
    def describe(source: Any) -> Tuple[str, str, str]:
        """(source_kind, label, fingerprint) without materialising."""
        if isinstance(source, str):
            if source not in NAMED_MATRICES:
                known = ", ".join(sorted(NAMED_MATRICES))
                raise DatasetError(
                    f"unknown matrix {source!r}; known: {known}"
                )
            spec = NAMED_MATRICES[source]
            return "spec", spec.name, fingerprint_source(spec)
        if isinstance(source, MatrixSpec):
            return "spec", source.name, fingerprint_source(source)
        if isinstance(source, CorpusSpec):
            return "spec", f"corpus#{source.index}", fingerprint_source(source)
        return "memory", f"{type(source).__name__}", fingerprint_matrix(source)

    def run(
        self,
        source: Any,
        described: Optional[Tuple[str, str, str]] = None,
    ) -> LoadedMatrix:
        """Materialise ``source``; ``described`` is its :meth:`describe`
        result when the caller already has it (an in-memory matrix is
        then hashed once)."""
        kind, label, digest = described or self.describe(source)
        if isinstance(source, str):
            matrix = generate_named(source)
        elif isinstance(source, MatrixSpec):
            matrix = generate_named(source.name)
        elif isinstance(source, CorpusSpec):
            matrix = source.generate()
        else:
            matrix = source
        return LoadedMatrix(
            matrix=matrix, source_kind=kind, label=label, fingerprint=digest
        )


class ScheduleStage:
    """:class:`LoadedMatrix` → :class:`ScheduledMatrix` via the registry."""

    name = "schedule"

    @staticmethod
    def fingerprint_for(
        loaded_fingerprint: str,
        spec: SchedulerSpec,
        config: AcceleratorConfig,
        scheduler_kwargs: dict,
    ) -> str:
        # Private (``_``-prefixed) kwargs are side channels — the pass
        # cache handle, not scheduling parameters — and never shape the
        # output, so they stay out of the key.  For pass-based schemes
        # the per-pass signature chain folds in each pass's resolved
        # parameters and version: a single revised pass is a new key.
        # The spec keeps that tail encoded; only the matrix is new.
        return fingerprint(
            "schedule",
            loaded_fingerprint,
            tail=spec.schedule_key_tail(config, scheduler_kwargs),
        )

    def run(
        self,
        loaded: LoadedMatrix,
        spec: SchedulerSpec,
        config: AcceleratorConfig,
        scheduler_kwargs: dict,
        digest: str,
        pass_cache=None,
    ) -> ScheduledMatrix:
        kwargs = dict(scheduler_kwargs)
        migration: Optional[MigrationReport] = None
        if spec.report_kwarg and "report" not in kwargs:
            migration = MigrationReport()
            kwargs["report"] = migration
        elif "report" in kwargs:
            migration = kwargs["report"]
        if pass_cache is not None and spec.plan is not None:
            kwargs.setdefault("_pass_cache", pass_cache)
        schedule = spec.scheduler(loaded.matrix, config, **kwargs)
        # ``scheme`` is the *registry* name (e.g. ``crhcs_rebuild``), the
        # schedule's own tag stays the algorithm family it reports.
        return ScheduledMatrix(
            schedule=schedule,
            scheme=spec.name,
            config=config,
            matrix_fingerprint=loaded.fingerprint,
            fingerprint=digest,
            migration=migration,
        )


class SimulateStage:
    """:class:`ScheduledMatrix` → :class:`CycleResult` (analytic model)."""

    name = "simulate"

    @staticmethod
    def fingerprint_for(schedule_fingerprint: str) -> str:
        return fingerprint("cycles", schedule_fingerprint, ENGINE_VERSION)

    def run(self, scheduled: ScheduledMatrix, digest: str) -> CycleResult:
        cycles = estimate_cycles(scheduled.schedule, scheduled.config)
        return CycleResult(
            cycles=cycles,
            schedule_fingerprint=scheduled.fingerprint,
            fingerprint=digest,
        )


class MetricsStage:
    """schedule + cycles → :class:`SpMVReport` (§5.3, Table 3)."""

    name = "metrics"

    @staticmethod
    def fingerprint_for(
        cycles_fingerprint: str, accelerator: str, power_watts: float
    ) -> str:
        return fingerprint(
            "report", cycles_fingerprint, METRICS_VERSION, accelerator,
            power_watts,
        )

    @staticmethod
    def assemble(
        schedule: TiledSchedule,
        cycles: CycleBreakdown,
        config: AcceleratorConfig,
        accelerator: str,
        power_watts: float,
    ) -> SpMVReport:
        """The Eqs. 4–7 metrics from a schedule and its cycle count."""
        latency_seconds = cycles.total / config.frequency_hz
        gflops = throughput_gflops(
            schedule.nnz, schedule.n_cols, latency_seconds
        )
        bandwidth = config.streaming_bandwidth_gbps
        return SpMVReport(
            accelerator=accelerator,
            scheme=schedule.scheme,
            n_rows=schedule.n_rows,
            n_cols=schedule.n_cols,
            nnz=schedule.nnz,
            stream_cycles=cycles.stream,
            total_cycles=cycles.total,
            latency_ms=latency_seconds * 1e3,
            throughput_gflops=gflops,
            underutilization_pct=pe_underutilization_percent(
                schedule.total_stalls, schedule.nnz
            ),
            traffic_bytes=schedule.traffic_bytes,
            bandwidth_gbps=bandwidth,
            bandwidth_efficiency=bandwidth_efficiency(gflops, bandwidth),
            power_watts=power_watts,
            energy_efficiency=energy_efficiency(gflops, power_watts),
            migrated=schedule.migrated_count,
        )

    def run(
        self,
        scheduled: ScheduledMatrix,
        cycles: CycleResult,
        accelerator: str,
        power_watts: float,
        digest: str,
    ) -> ReportArtifact:
        report = self.assemble(
            scheduled.schedule,
            cycles.cycles,
            scheduled.config,
            accelerator,
            power_watts,
        )
        return ReportArtifact(report=report, fingerprint=digest)


class EstimateStage:
    """:class:`LoadedMatrix` → :class:`EstimateArtifact` (estimate tier).

    Replaces schedule + simulate + metrics with one analytical step: the
    per-scheme closed-form model predicts the schedule shape and cycle
    breakdown, and the §5.3 report is assembled from the prediction with
    the same formulas :class:`MetricsStage` applies to a real schedule.
    """

    name = "estimate"

    @staticmethod
    def fingerprint_for(
        loaded_fingerprint: str,
        spec: SchedulerSpec,
        config: AcceleratorConfig,
        calibration: CalibrationTable,
        accelerator: str,
        power_watts: float,
    ) -> str:
        return fingerprint(
            "estimate",
            loaded_fingerprint,
            spec.name,
            spec.version,
            fingerprint_config(config),
            ESTIMATOR_VERSION,
            CALIBRATION_VERSION,
            calibration.digest(),
            accelerator,
            power_watts,
        )

    def run(
        self,
        loaded: LoadedMatrix,
        spec: SchedulerSpec,
        config: AcceleratorConfig,
        calibration: CalibrationTable,
        accelerator: str,
        power_watts: float,
        digest: str,
    ) -> EstimateArtifact:
        entry = calibration.for_scheme(spec.name)
        predicted = predict_schedule(
            loaded.matrix, spec.name, config, scale=entry.scale
        )
        cycles = predicted.cycles
        latency_seconds = cycles.total / config.frequency_hz
        gflops = throughput_gflops(
            predicted.nnz, predicted.n_cols, latency_seconds
        )
        bandwidth = config.streaming_bandwidth_gbps
        report = SpMVReport(
            accelerator=accelerator,
            scheme=spec.name,
            n_rows=predicted.n_rows,
            n_cols=predicted.n_cols,
            nnz=predicted.nnz,
            stream_cycles=cycles.stream,
            total_cycles=cycles.total,
            latency_ms=latency_seconds * 1e3,
            throughput_gflops=gflops,
            underutilization_pct=pe_underutilization_percent(
                predicted.total_stalls, predicted.nnz
            ),
            traffic_bytes=predicted.traffic_bytes,
            bandwidth_gbps=bandwidth,
            bandwidth_efficiency=bandwidth_efficiency(gflops, bandwidth),
            power_watts=power_watts,
            energy_efficiency=energy_efficiency(gflops, power_watts),
            migrated=predicted.migrated,
        )
        return EstimateArtifact(
            report=report,
            predicted=predicted,
            tolerance=entry.tolerance,
            fingerprint=digest,
        )
