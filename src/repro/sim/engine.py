"""End-to-end execution of a schedule on the modelled datapath.

The engine plays a :class:`~repro.scheduling.base.TiledSchedule` through
PEGs, Reduction Units and the Rearrange Unit — compiled once into a
replay plan (:mod:`repro.sim.plan`) — producing both the output vector y
(functional correctness, verified against a float64 reference — the
§5.1 end-to-end check) and a cycle breakdown (the latency model):

======================  ====================================================
component               cycles
======================  ====================================================
x window load           ``ceil(window_cols / 16)`` per tile — one 512-bit
                        beat carries 16 FP32 x values
streaming               the tile's equalised data-list length (channels
                        stream in lockstep, one word per cycle at II=1)
pipeline drain          multiplier + accumulator latency per tile
Reduction-Unit sweep    ``rows_per_pe + tree levels + accumulator latency``
                        per row window (Chasoň only; §6.2.2 explains how
                        deeper URAMs grow this term for tall windows)
output merge            ``ceil(window_rows / 16)`` per row window — the
                        merged ``stream_Ax`` carries 16 FP32 per cycle
======================  ====================================================

Streaming dominates for every matrix in the evaluation; the fixed terms
keep small matrices honest and reproduce the paper's C5-vs-MY observation
that reduction latency can offset transfer savings (§6.2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..config import AcceleratorConfig
from ..errors import ShapeError
from ..scheduling.base import TiledSchedule
from .. import telemetry

#: FP32 lanes of one 512-bit beat (x loading and y output).
DENSE_LANES = 16

#: Cycle-model revision (pipeline cache fingerprint component): bump when
#: the accounting in this module changes so cached CycleResults cannot be
#: served across model revisions.
ENGINE_VERSION = "1"


@dataclass
class CycleBreakdown:
    """Cycle counts of one SpMV iteration."""

    stream: int = 0
    x_load: int = 0
    drain: int = 0
    reduction: int = 0
    output: int = 0
    #: Fixed per-invocation cost (instruction fetch, kernel start, flush).
    overhead: int = 0

    @property
    def total(self) -> int:
        return (
            self.stream + self.x_load + self.drain + self.reduction
            + self.output + self.overhead
        )

    def merge(self, other: "CycleBreakdown") -> None:
        self.stream += other.stream
        self.x_load += other.x_load
        self.drain += other.drain
        self.reduction += other.reduction
        self.output += other.output
        self.overhead += other.overhead


@dataclass
class SpMVExecution:
    """Result of executing one schedule."""

    y: np.ndarray
    cycles: CycleBreakdown
    config: AcceleratorConfig
    scheme: str
    nnz: int
    total_macs: int = 0
    shared_macs: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_seconds(self) -> float:
        return self.cycles.total / self.config.frequency_hz

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    def verify(self, reference: np.ndarray, rtol: float = 1e-4) -> bool:
        """End-to-end functional check against a reference y (§5.1)."""
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != self.y.shape:
            raise ShapeError(
                f"reference of shape {reference.shape} vs y {self.y.shape}"
            )
        scale = np.maximum(np.abs(reference), 1.0)
        return bool(np.all(np.abs(self.y - reference) <= rtol * scale))


def has_reduction_unit(config: AcceleratorConfig) -> bool:
    return getattr(config, "reduction_tree_levels", 0) > 0


def estimate_cycles(
    schedule: TiledSchedule,
    config: Optional[AcceleratorConfig] = None,
) -> CycleBreakdown:
    """The engine's cycle accounting without executing the datapath.

    Produces exactly the :class:`CycleBreakdown` that
    :func:`execute_schedule` reports, from schedule shape alone — used by
    the benchmark harness where only latency (not the output vector) is
    needed.
    """
    config = config or schedule.config
    cycles = CycleBreakdown(
        overhead=getattr(config, "invocation_overhead_cycles", 0)
    )
    windows: Dict[int, List] = {}
    for tile in schedule.tiles:
        windows.setdefault(tile.row_base, []).append(tile)
    for row_base, tiles in windows.items():
        window_rows = min(
            config.row_window, max(schedule.n_rows - row_base, 1)
        )
        any_shared = False
        for tile in tiles:
            tile_cols = min(
                config.column_window, max(schedule.n_cols - tile.col_base, 1)
            )
            cycles.x_load += math.ceil(tile_cols / DENSE_LANES)
            cycles.stream += tile.stream_cycles
            cycles.drain += (
                config.multiplier_latency + config.accumulator_latency
            )
            if tile.migrated_count:
                any_shared = True
        if has_reduction_unit(config) and any_shared:
            rows_per_pe = math.ceil(window_rows / config.total_pes)
            cycles.reduction += (
                rows_per_pe
                + getattr(config, "reduction_tree_levels", 3)
                + config.accumulator_latency
            )
        cycles.output += math.ceil(window_rows / DENSE_LANES)
    return cycles


def check_x(x: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """``x`` as float32, or :class:`ShapeError` if it is not ``n_cols`` long
    (a schedule with no columns takes any x)."""
    x = np.asarray(x, dtype=np.float32)
    if n_cols and x.shape != (n_cols,):
        raise ShapeError(
            f"x of length {x.shape} incompatible with "
            f"{n_rows}x{n_cols} schedule"
        )
    return x


def execute_schedule(
    schedule: TiledSchedule,
    x: np.ndarray,
    config: Optional[AcceleratorConfig] = None,
) -> SpMVExecution:
    """Run one SpMV iteration of ``schedule`` over input vector ``x``.

    Compiles the schedule into a replay plan (:mod:`repro.sim.plan`) and
    runs it once; callers that execute one schedule repeatedly keep the
    plan instead (``ScheduledMatrix.replay_plan``).
    """
    from .plan import compile_plan

    t = telemetry.get()
    with t.span(
        "sim.execute", scheme=schedule.scheme, nnz=schedule.nnz
    ):
        x = check_x(x, schedule.n_rows, schedule.n_cols)
        return compile_plan(schedule, config).replay(x, t)
