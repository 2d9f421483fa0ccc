"""Typed artifacts flowing between pipeline stages.

Every Chasoň experiment is the same four-stage flow::

    LoadedMatrix → ScheduledMatrix → CycleResult → SpMVReport

Each artifact is a frozen dataclass carrying a stable content
**fingerprint** (:mod:`repro.pipeline.fingerprint`): the digest of
everything that determines its contents — upstream fingerprints plus this
stage's own parameters and version tags.  Equal fingerprints mean equal
artifacts, which is what lets the artifact store skip recomputation of
any stage whose inputs did not change.

:class:`SpMVReport` (the Table 3 row) lives here — the report *is* the
final pipeline artifact — and is re-exported from
:mod:`repro.core.accelerator` for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Union, runtime_checkable

from ..config import AcceleratorConfig
from ..estimator.model import PredictedSchedule
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..scheduling.base import TiledSchedule
from ..scheduling.crhcs import MigrationReport
from ..sim.engine import CycleBreakdown
from ..sim.plan import ReplayPlan, compile_plan

Matrix = Union[COOMatrix, CSRMatrix]


@runtime_checkable
class Artifact(Protocol):
    """Anything a stage produces: content plus a stable fingerprint."""

    fingerprint: str


@runtime_checkable
class Stage(Protocol):
    """One pipeline stage: a named, versioned artifact transformer.

    ``name`` labels the telemetry span (``pipeline.<name>``) and the
    artifact-store partition; ``run`` computes the artifact from its
    upstream inputs.  Stages are pure with respect to their fingerprinted
    inputs — the runner decides whether to call ``run`` or serve a cached
    artifact with the same fingerprint.
    """

    name: str

    def run(self, *args, **kwargs):  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class LoadedMatrix:
    """Stage 1 output: a materialised matrix plus its identity."""

    matrix: Matrix
    #: ``"spec"`` for seeded named/corpus specs, ``"memory"`` for raw
    #: payloads fingerprinted by content.
    source_kind: str
    label: str
    fingerprint: str

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


@dataclass(frozen=True)
class ScheduledMatrix:
    """Stage 2 output: the HBM channel data lists for one scheme."""

    schedule: TiledSchedule
    scheme: str
    config: AcceleratorConfig
    matrix_fingerprint: str
    fingerprint: str
    #: CrHCS bookkeeping; ``None`` for schemes without migration.  A
    #: store memory hit returns the built artifact, report included; a
    #: schedule read from the disk tier carries ``None`` (the wire
    #: format holds the schedule, not the build's side-channel report).
    migration: Optional[MigrationReport] = None

    def replay_plan(self) -> ReplayPlan:
        """The schedule compiled for functional execution.

        Compiled on first use and kept on the artifact, outside the
        dataclass fields, so equality and fingerprints never see it.
        """
        plan = self.cached_plan
        if plan is None:
            plan = compile_plan(self.schedule, self.config)
            object.__setattr__(self, "_replay_plan", plan)
        return plan

    @property
    def cached_plan(self) -> Optional[ReplayPlan]:
        """The plan :meth:`replay_plan` compiled, if it has run."""
        return self.__dict__.get("_replay_plan")


@dataclass(frozen=True)
class CycleResult:
    """Stage 3 output: the analytic cycle accounting of a schedule."""

    cycles: CycleBreakdown
    schedule_fingerprint: str
    fingerprint: str

    @property
    def total(self) -> int:
        return self.cycles.total


@dataclass(frozen=True)
class SpMVReport:
    """Everything Table 3 reports for one (matrix, accelerator) pair."""

    accelerator: str
    scheme: str
    n_rows: int
    n_cols: int
    nnz: int
    stream_cycles: int
    total_cycles: int
    latency_ms: float
    throughput_gflops: float
    underutilization_pct: float
    traffic_bytes: int
    bandwidth_gbps: float
    bandwidth_efficiency: float
    power_watts: float
    energy_efficiency: float
    migrated: int

    @property
    def latency_seconds(self) -> float:
        return self.latency_ms * 1e-3

    def as_table_row(self) -> str:
        """One formatted Table 3 row."""
        return (
            f"{self.accelerator:<8s} lat={self.latency_ms:9.3f} ms  "
            f"thr={self.throughput_gflops:7.3f} GFLOPS  "
            f"bw-eff={self.bandwidth_efficiency:7.3f}  "
            f"e-eff={self.energy_efficiency:6.3f} GFLOPS/W  "
            f"underutil={self.underutilization_pct:5.1f}%"
        )


@dataclass(frozen=True)
class ReportArtifact:
    """Stage 4 output: the metrics report plus its fingerprint."""

    report: SpMVReport
    fingerprint: str


@dataclass(frozen=True)
class PipelineResult:
    """All four artifacts of one analysis flow, for callers that want
    more than the final report (per-PEG stats, cache forensics, …)."""

    loaded: LoadedMatrix
    scheduled: ScheduledMatrix
    cycles: CycleResult
    report_artifact: ReportArtifact

    #: Which tier produced the report (``exact`` built a schedule and
    #: ran the cycle accounting; see :class:`EstimateResult`).
    fidelity = "exact"

    @property
    def report(self) -> SpMVReport:
        return self.report_artifact.report

    @property
    def schedule(self) -> TiledSchedule:
        return self.scheduled.schedule


@dataclass(frozen=True)
class EstimateArtifact:
    """Estimate-tier output: a predicted report, no schedule behind it.

    ``predicted`` carries the estimator's schedule-shape numbers
    (including the uncalibrated stream for audit forensics) and
    ``tolerance`` the calibrated error bound the audit gate enforces.
    """

    report: SpMVReport
    predicted: PredictedSchedule
    tolerance: float
    fingerprint: str


@dataclass(frozen=True)
class EstimateResult:
    """The estimate-tier analogue of :class:`PipelineResult`.

    Exposes the same ``.report`` surface so serving and CLI callers are
    tier-agnostic; there is no ``.schedule`` — nothing was scheduled,
    which is the whole point of the tier.
    """

    loaded: LoadedMatrix
    estimate_artifact: EstimateArtifact

    fidelity = "estimate"

    @property
    def report(self) -> SpMVReport:
        return self.estimate_artifact.report

    @property
    def predicted(self) -> PredictedSchedule:
        return self.estimate_artifact.predicted
