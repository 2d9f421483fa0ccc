"""Shared experiment runners behind the benchmark harness.

Each evaluation figure/table reduces to one of three sweeps:

* :func:`compare_on_named` — Chasoň vs Serpens on the 20 Table 2 matrices
  (Figs. 12/13/15, Table 3);
* :func:`compare_on_corpus` — both schedulers over the 800-matrix corpus
  (Figs. 3/11);
* :func:`gpu_cpu_comparison` — Chasoň vs the GPU/CPU models (Fig. 14).

The corpus sweeps honour three environment variables so the benchmark
suite stays tractable by default but can reproduce the full-scale
evaluation:

* ``REPRO_FULL_CORPUS=1`` runs all 800 matrices at full size;
* ``REPRO_CORPUS_COUNT=<n>`` / ``REPRO_CORPUS_NNZ_CAP=<m>`` override the
  defaults (96 matrices, 40 000 non-zero cap) individually;
* ``REPRO_CORPUS_WORKERS=<w>`` fans the per-matrix work out over ``w``
  processes (default serial; results are ordered by spec index either
  way, so the two modes are bit-identical).

Every worker drives a :class:`~repro.pipeline.PipelineRunner` backed by
the global artifact store, so sweeps that share matrices (Figs. 11/14,
Fig. 15/Table 3) load and schedule each input once per scheme, and a
repeated sweep recomputes only stages whose fingerprints changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..baselines.cpu import MklCpuModel
from ..baselines.gpu import CusparseGpuModel, RTX_4090, RTX_A6000
from ..formats.coo import COOMatrix
from ..knobs import knob
from ..matrices.collection import CORPUS_SIZE, CorpusSpec, corpus_specs
from ..matrices.named import MatrixSpec, named_specs
from ..metrics import (
    energy_efficiency,
    geometric_mean,
    pe_underutilization_percent_batch,
    speedup,
)
from ..pipeline import PipelineRunner, SpMVReport, global_artifact_store
from .runner import run_over_specs

_FULL_CORPUS = knob("REPRO_FULL_CORPUS")
_CORPUS_COUNT = knob("REPRO_CORPUS_COUNT")
_CORPUS_NNZ_CAP = knob("REPRO_CORPUS_NNZ_CAP")


def default_corpus_size() -> Tuple[int, Optional[int]]:
    """The (count, nnz_cap) the benchmarks use, after env overrides."""
    if _FULL_CORPUS.current is not None:
        return CORPUS_SIZE, None
    count = _CORPUS_COUNT.read()
    cap = _CORPUS_NNZ_CAP.read()
    return count, cap if cap > 0 else None


def _resolve_corpus_specs(
    count: Optional[int], nnz_cap: Optional[int]
) -> List[CorpusSpec]:
    """The spec list of one corpus sweep, after env-default resolution."""
    if count is None:
        count, default_cap = default_corpus_size()
        if nnz_cap is None:
            nnz_cap = default_cap
    return list(corpus_specs(count, nnz_cap))


def corpus_matrices(
    count: Optional[int] = None,
    nnz_cap: Optional[int] = None,
) -> Iterator[Tuple[CorpusSpec, COOMatrix]]:
    """Yield (spec, matrix) pairs of the evaluation corpus."""
    for spec in _resolve_corpus_specs(count, nnz_cap):
        yield spec, spec.generate()


@dataclass(frozen=True)
class MatrixComparison:
    """Chasoň vs Serpens on one matrix (a Table 3 / Fig. 15 row)."""

    matrix_id: str
    name: str
    collection: str
    nnz: int
    chason: SpMVReport
    serpens: SpMVReport
    #: Per-PEG underutilization % (Figs. 12/13); filled when the sweep is
    #: run with ``include_channel_stats=True``.
    chason_peg_underutilization: Tuple[float, ...] = ()
    serpens_peg_underutilization: Tuple[float, ...] = ()

    @property
    def speedup(self) -> float:
        return speedup(self.serpens.latency_ms, self.chason.latency_ms)

    @property
    def transfer_reduction(self) -> float:
        """Fig. 15 bottom: HBM transfer reduction factor."""
        return self.serpens.traffic_bytes / max(self.chason.traffic_bytes, 1)

    @property
    def bandwidth_efficiency_improvement(self) -> float:
        return (
            self.chason.bandwidth_efficiency
            / self.serpens.bandwidth_efficiency
        )

    @property
    def energy_efficiency_improvement(self) -> float:
        return self.chason.energy_efficiency / self.serpens.energy_efficiency


def _named_comparison_worker(
    task: Tuple[MatrixSpec, bool]
) -> MatrixComparison:
    """One Table 2 matrix through both schemes (picklable worker)."""
    from ..scheduling.stats import channel_underutilization

    spec, include_channel_stats = task
    runner = PipelineRunner(global_artifact_store())
    chason = runner.analyze(spec, "crhcs")
    serpens = runner.analyze(spec, "pe_aware")
    chason_pegs: Tuple[float, ...] = ()
    serpens_pegs: Tuple[float, ...] = ()
    if include_channel_stats:
        chason_pegs = tuple(channel_underutilization(chason.schedule))
        serpens_pegs = tuple(channel_underutilization(serpens.schedule))
    return MatrixComparison(
        matrix_id=spec.matrix_id,
        name=spec.name,
        collection=spec.collection,
        nnz=chason.loaded.nnz,
        chason=chason.report,
        serpens=serpens.report,
        chason_peg_underutilization=chason_pegs,
        serpens_peg_underutilization=serpens_pegs,
    )


def compare_on_named(
    names: Optional[Sequence[str]] = None,
    collection: Optional[str] = None,
    include_channel_stats: bool = False,
) -> List[MatrixComparison]:
    """Run Chasoň and Serpens on (a subset of) the Table 2 matrices.

    Each matrix is scheduled once per accelerator (memoised across calls
    by the schedule cache); with ``include_channel_stats=True`` the
    per-PEG underutilization of Figs. 12/13 is extracted from the
    schedules before they are dropped.
    """
    if names is None:
        specs = named_specs(collection)
    else:
        all_specs = {spec.name: spec for spec in named_specs()}
        specs = [all_specs[name] for name in names]
    return run_over_specs(
        _named_comparison_worker,
        [(spec, include_channel_stats) for spec in specs],
    )


@dataclass
class CorpusResult:
    """Both schedulers over the corpus (Figs. 3/11 raw data)."""

    count: int
    serpens_underutilization: List[float] = field(default_factory=list)
    chason_underutilization: List[float] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)
    transfer_reductions: List[float] = field(default_factory=list)
    chason_throughputs: List[float] = field(default_factory=list)
    serpens_throughputs: List[float] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        return geometric_mean(self.speedups)

    @property
    def peak_chason_gflops(self) -> float:
        return max(self.chason_throughputs)


def _corpus_comparison_worker(
    spec: CorpusSpec,
) -> Tuple[float, float, float, float, float, float]:
    """Both schedulers on one corpus spec (picklable worker).

    The matrix is regenerated from the seeded spec inside the worker, so
    a parallel task ships a few integers, not the COO payload.
    """
    runner = PipelineRunner(global_artifact_store())
    chason_report = runner.analyze(spec, "crhcs").report
    serpens_report = runner.analyze(spec, "pe_aware").report
    return (
        serpens_report.underutilization_pct,
        chason_report.underutilization_pct,
        speedup(serpens_report.latency_ms, chason_report.latency_ms),
        serpens_report.traffic_bytes / max(chason_report.traffic_bytes, 1),
        chason_report.throughput_gflops,
        serpens_report.throughput_gflops,
    )


def compare_on_corpus(
    count: Optional[int] = None,
    nnz_cap: Optional[int] = None,
) -> CorpusResult:
    """Chasoň vs Serpens over the evaluation corpus."""
    specs = _resolve_corpus_specs(count, nnz_cap)
    rows = run_over_specs(_corpus_comparison_worker, specs)
    result = CorpusResult(count=len(rows))
    for (serpens_pct, chason_pct, ratio, transfer, chason_gflops,
         serpens_gflops) in rows:
        result.serpens_underutilization.append(serpens_pct)
        result.chason_underutilization.append(chason_pct)
        result.speedups.append(ratio)
        result.transfer_reductions.append(transfer)
        result.chason_throughputs.append(chason_gflops)
        result.serpens_throughputs.append(serpens_gflops)
    return result


def _stall_survey_worker(spec: CorpusSpec) -> Tuple[int, int]:
    """(stalls, nnz) of the PE-aware schedule of one corpus spec."""
    runner = PipelineRunner(global_artifact_store())
    schedule = runner.schedule(spec, "pe_aware").schedule
    return schedule.total_stalls, schedule.nnz


def pe_aware_stall_survey(
    count: Optional[int] = None,
    nnz_cap: Optional[int] = None,
) -> List[float]:
    """The Fig. 3 distribution: per-matrix Eq. 4 under PE-aware scheduling.

    Only the Serpens baseline is scheduled, making this the cheapest (and
    most parallel) of the corpus sweeps — the survey honours
    ``REPRO_CORPUS_WORKERS`` like the full comparisons.
    """
    specs = _resolve_corpus_specs(count, nnz_cap)
    counts = run_over_specs(_stall_survey_worker, specs)
    return pe_underutilization_percent_batch(
        [stalls for stalls, _ in counts],
        [nnz for _, nnz in counts],
    )


@dataclass(frozen=True)
class BaselineComparison:
    """Chasoň vs one GPU/CPU baseline on one matrix (Fig. 14 raw data)."""

    baseline: str
    matrix_label: str
    chason_latency_ms: float
    baseline_latency_ms: float
    chason_gflops: float
    baseline_gflops: float
    chason_eff: float
    baseline_eff: float

    @property
    def speedup(self) -> float:
        return self.baseline_latency_ms / self.chason_latency_ms

    @property
    def energy_gain(self) -> float:
        return self.chason_eff / self.baseline_eff


def _gpu_cpu_worker(spec: CorpusSpec) -> List[BaselineComparison]:
    """Chasoň vs every GPU/CPU baseline on one spec (picklable worker)."""
    runner = PipelineRunner(global_artifact_store())
    result = runner.analyze(spec, "crhcs")
    matrix = result.loaded.matrix
    chason_report = result.report
    rows: List[BaselineComparison] = []
    for key, model in (
        ("rtx4090", CusparseGpuModel(RTX_4090)),
        ("rtxa6000", CusparseGpuModel(RTX_A6000)),
        ("i9", MklCpuModel()),
    ):
        latency = model.latency_seconds(matrix)
        gflops = model.throughput_gflops(matrix)
        rows.append(
            BaselineComparison(
                baseline=key,
                matrix_label=f"corpus#{spec.index}",
                chason_latency_ms=chason_report.latency_ms,
                baseline_latency_ms=latency * 1e3,
                chason_gflops=chason_report.throughput_gflops,
                baseline_gflops=gflops,
                chason_eff=chason_report.energy_efficiency,
                baseline_eff=energy_efficiency(gflops, model.power_watts),
            )
        )
    return rows


def gpu_cpu_comparison(
    count: Optional[int] = None,
    nnz_cap: Optional[int] = None,
) -> List[BaselineComparison]:
    """Chasoň vs RTX 4090 / RTX A6000 / Core i9 over the corpus."""
    specs = _resolve_corpus_specs(count, nnz_cap)
    per_spec = run_over_specs(_gpu_cpu_worker, specs)
    return [row for rows in per_spec for row in rows]
