"""The unit-by-unit datapath walk: the replay plan's test reference.

Plays a :class:`~repro.scheduling.base.TiledSchedule` through freshly
built PEGs (:mod:`repro.sim.peg`, :mod:`repro.sim.pe`,
:mod:`repro.sim.memory`), one Reduction Unit per PEG
(:mod:`repro.sim.reduction`) and the Rearrange Unit
(:mod:`repro.sim.rearrange`), row window by row window.  Production code
runs :mod:`repro.sim.plan` instead; the tests hold the plan to this walk
bit for bit (y, cycles, counters, telemetry and raised errors).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .. import telemetry
from ..config import AcceleratorConfig
from ..errors import ShapeError, SimulationError
from ..scheduling.base import TiledSchedule
from .engine import (
    DENSE_LANES,
    CycleBreakdown,
    SpMVExecution,
    has_reduction_unit,
)
from .peg import ProcessingElementGroup
from .rearrange import RearrangeUnit
from .reduction import ReductionUnit


def execute_reference(
    schedule: TiledSchedule,
    x: np.ndarray,
    config: Optional[AcceleratorConfig] = None,
) -> SpMVExecution:
    """Run one SpMV iteration of ``schedule`` through the unit models."""
    t = telemetry.get()
    config = config or schedule.config
    x = np.asarray(x, dtype=np.float32)
    if schedule.n_cols and x.shape != (schedule.n_cols,):
        raise ShapeError(
            f"x of length {x.shape} incompatible with "
            f"{schedule.n_rows}x{schedule.n_cols} schedule"
        )

    y = np.zeros(schedule.n_rows, dtype=np.float64)
    cycles = CycleBreakdown(
        overhead=getattr(config, "invocation_overhead_cycles", 0)
    )
    rearrange = RearrangeUnit(config)
    total_macs = 0
    shared_macs = 0
    # Per-channel busy (MAC) and stall (idle) cycle totals across all
    # row windows — the per-PEG occupancy Figs. 12/13 report, surfaced
    # through telemetry counters.
    channel_busy = [0] * config.sparse_channels
    channel_idle = [0] * config.sparse_channels

    # Group tiles by row window, preserving column order within each.
    windows: Dict[int, List] = {}
    for tile in schedule.tiles:
        windows.setdefault(tile.row_base, []).append(tile)

    for row_base in sorted(windows):
        tiles = sorted(windows[row_base], key=lambda t: t.col_base)
        pegs = [
            ProcessingElementGroup(channel, config)
            for channel in range(config.sparse_channels)
        ]
        window_rows = 0
        for tile in tiles:
            n_cols = min(config.column_window, x.size - tile.col_base)
            if n_cols < 0:
                raise SimulationError(
                    f"tile at column base {tile.col_base} beyond x"
                )
            window = x[tile.col_base : tile.col_base + n_cols]
            for peg in pegs:
                peg.load_x_window(window)
            cycles.x_load += math.ceil(max(n_cols, 1) / DENSE_LANES)
            for channel, grid in enumerate(tile.grids):
                pegs[channel].consume_grid(grid)
            cycles.stream += tile.stream_cycles
            cycles.drain += (
                config.multiplier_latency + config.accumulator_latency
            )
            window_rows = max(
                window_rows,
                min(config.row_window, schedule.n_rows - row_base),
            )

        reductions = {}
        if has_reduction_unit(config):
            rows_per_pe = math.ceil(max(window_rows, 1) / config.total_pes)
            any_shared = False
            for channel, peg in enumerate(pegs):
                reduced = ReductionUnit(peg).reduce()
                if reduced.sums:
                    any_shared = True
                reductions[channel] = reduced
            if any_shared:
                cycles.reduction += (
                    rows_per_pe
                    + getattr(config, "reduction_tree_levels", 3)
                    + config.accumulator_latency
                )

        rearrange.merge(pegs, reductions, row_base, window_rows, y)
        cycles.output += math.ceil(max(window_rows, 1) / DENSE_LANES)

        for channel, peg in enumerate(pegs):
            total_macs += peg.total_macs
            shared_macs += sum(
                pe.stats.shared_accumulations for pe in peg.pes
            )
            channel_busy[channel] += peg.total_macs
            channel_idle[channel] += peg.total_idle

    if total_macs != schedule.nnz:
        raise SimulationError(
            f"executed {total_macs} MACs for a schedule of "
            f"{schedule.nnz} non-zeros"
        )

    if t.enabled:
        for channel in range(config.sparse_channels):
            t.counter(
                "sim.peg.busy_cycles", channel_busy[channel],
                channel=channel,
            )
            t.counter(
                "sim.peg.stall_cycles", channel_idle[channel],
                channel=channel,
            )
        t.gauge(
            "sim.fifo.high_water", rearrange.stream_ax.high_water,
            fifo=rearrange.stream_ax.name,
        )

    return SpMVExecution(
        y=y,
        cycles=cycles,
        config=config,
        scheme=schedule.scheme,
        nnz=schedule.nnz,
        total_macs=total_macs,
        shared_macs=shared_macs,
        stats={
            "shared_fraction": shared_macs / total_macs if total_macs else 0.0,
            "private_values": rearrange.stats.private_values,
            "shared_values": rearrange.stats.shared_values,
        },
    )
