"""Replay plans: a schedule compiled into flat arrays (§4.2–4.3).

The schedule fixes every non-zero's route.  Each streamed element
carries its ``(row, pvt, PE_src)`` flags into a static Router, the
Reduction Unit folds the ScUG banks PE by PE, and the Rearrange Unit
merges private and reduced shared sums onto the output rows.  None of
that depends on x, so :func:`compile_plan` walks the grids once and
records it:

* per element, in each PE lane's stream order: the global x column to
  gather, the float64 value, and the partial-sum bank slot (one
  ``URAM_pvt`` address, or one ``URAM_sh`` address of a ScUG) it
  accumulates into;
* the reduction map: bank slot → output slot, contributing PEs in
  ascending order (a private bank slot is its own output slot);
* the merge map: output slot → y row, per row window the private slots
  first, then the reduced shared slots in channel order;
* everything else the datapath reports: the :class:`CycleBreakdown`,
  MAC counts, Rearrange-Unit traffic, per-channel busy/stall cycles and
  the ``stream_Ax`` high-water mark.

:meth:`ReplayPlan.run` is then one gather plus three ordered
scatter-adds.  ``np.add.at`` applies updates in array order, so every
bank, reduced sum and y row sees the same float64 addition chain as the
unit-by-unit walk in :mod:`repro.sim.reference`, bit for bit.  Every
check that walk makes depends only on the schedule, so compilation
makes it, and raises the exception class the walk would raise first.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..config import AcceleratorConfig
from ..errors import CapacityError, ReproError, SimulationError
from ..scheduling.base import TiledSchedule
from .engine import (
    DENSE_LANES,
    CycleBreakdown,
    SpMVExecution,
    check_x,
    has_reduction_unit,
)
from .memory import URAM_PARTIAL_SUMS


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ReplayPlan:
    """One schedule's datapath, flattened for replay against any x.

    Read-only: frozen, with arrays that are not writeable, and
    :meth:`run` mutates nothing, so one plan serves any number of
    concurrent executions.
    """

    scheme: str
    config: AcceleratorConfig
    nnz: int
    n_rows: int
    n_cols: int
    #: Per element, in stream order: the x column it multiplies, its
    #: value, and the bank slot the product accumulates into.
    cols: np.ndarray
    values: np.ndarray
    banks: np.ndarray
    #: The reduction map: bank slot → output slot.
    outputs: np.ndarray
    #: The merge map: output slot → y row.
    rows: np.ndarray
    cycles: CycleBreakdown
    total_macs: int
    shared_macs: int
    #: Rearrange-Unit traffic: private and reduced shared sums merged.
    private_values: int
    shared_values: int
    #: Per channel: MACs issued, and PE slots that stalled.
    channel_busy: Tuple[int, ...]
    channel_stalls: Tuple[int, ...]
    #: Deepest ``stream_Ax`` occupancy (one row window's merged sums).
    stream_high_water: int

    @property
    def nbytes(self) -> int:
        """Bytes held by the plan's arrays."""
        return (self.cols.nbytes + self.values.nbytes + self.banks.nbytes
                + self.outputs.nbytes + self.rows.nbytes)

    def run(self, x: np.ndarray) -> SpMVExecution:
        """One SpMV iteration over ``x``, in a ``sim.execute`` span."""
        t = telemetry.get()
        with t.span("sim.execute", scheme=self.scheme, nnz=self.nnz):
            return self.replay(check_x(x, self.n_rows, self.n_cols), t)

    def replay(self, x: np.ndarray,
               t: "telemetry.Telemetry") -> SpMVExecution:
        """:meth:`run` on an already checked float32 ``x``, no span."""
        products = self.values * x.astype(np.float64)[self.cols]
        banks = np.zeros(self.outputs.size, dtype=np.float64)
        np.add.at(banks, self.banks, products)
        outputs = np.zeros(self.rows.size, dtype=np.float64)
        np.add.at(outputs, self.outputs, banks)
        y = np.zeros(self.n_rows, dtype=np.float64)
        np.add.at(y, self.rows, outputs)

        if t.enabled:
            for channel, busy in enumerate(self.channel_busy):
                t.counter("sim.peg.busy_cycles", busy, channel=channel)
                t.counter("sim.peg.stall_cycles",
                          self.channel_stalls[channel], channel=channel)
            t.gauge("sim.fifo.high_water", self.stream_high_water,
                    fifo="stream_Ax")

        total = self.total_macs
        return SpMVExecution(
            y=y,
            cycles=dataclasses.replace(self.cycles),
            config=self.config,
            scheme=self.scheme,
            nnz=self.nnz,
            total_macs=total,
            shared_macs=self.shared_macs,
            stats={
                "shared_fraction": self.shared_macs / total if total else 0.0,
                "private_values": self.private_values,
                "shared_values": self.shared_values,
            },
        )


def compile_plan(
    schedule: TiledSchedule,
    config: Optional[AcceleratorConfig] = None,
) -> ReplayPlan:
    """Compile ``schedule`` into a :class:`ReplayPlan`.

    Raises the :class:`~repro.errors.SimulationError` or
    :class:`~repro.errors.CapacityError` executing the schedule would
    raise, on any x.  The plan gathers from an x of ``schedule.n_cols``
    values.
    """
    config = config or schedule.config
    channels = config.sparse_channels
    pes = config.pes_per_channel
    total_pes = config.total_pes
    reduction_unit = has_reduction_unit(config)
    cycles = CycleBreakdown(
        overhead=getattr(config, "invocation_overhead_cycles", 0)
    )
    #: ``(walk position, error or error factory)``; the earliest wins.
    faults: List[tuple] = []

    windows: Dict[int, List] = {}
    for tile in schedule.tiles:
        windows.setdefault(tile.row_base, []).append(tile)

    # Per tile in walk order: row windows ascending, then column bases.
    tile_window: List[int] = []
    tile_col_base: List[int] = []
    tile_width: List[int] = []
    window_base: List[int] = []
    window_rows: List[int] = []
    # Per streamed grid: its tile, channel and element arrays.
    chunks: List[tuple] = []
    stalls = [0] * channels
    for w, row_base in enumerate(sorted(windows)):
        rows_in_window = 0
        for tile in sorted(windows[row_base], key=lambda t: t.col_base):
            seq = len(tile_window)
            width = min(config.column_window,
                        schedule.n_cols - tile.col_base)
            tile_window.append(w)
            tile_col_base.append(tile.col_base)
            tile_width.append(width)
            if width < 0:
                faults.append(((w, 0, seq, -1, -1), SimulationError(
                    f"tile at column base {tile.col_base} beyond x"
                )))
                continue
            cycles.x_load += math.ceil(max(width, 1) / DENSE_LANES)
            for channel, grid in enumerate(tile.grids):
                if channel >= channels or grid.channel_id != channel:
                    faults.append(((w, 0, seq, channel, -1), SimulationError(
                        f"grid of channel {grid.channel_id} streamed into "
                        f"PEG {channel} of {channels}"
                    )))
                    continue
                _, lanes, rows, cols, values, origins, origin_pes = (
                    grid.element_arrays()
                )
                # (Lanes past the PEG's width end in the MAC-count fault.)
                stalls[channel] += pes * grid.length - lanes.size
                if lanes.size:
                    chunks.append((seq, channel, lanes, rows, cols, values,
                                   origins, origin_pes))
            cycles.stream += tile.stream_cycles
            cycles.drain += (
                config.multiplier_latency + config.accumulator_latency
            )
            rows_in_window = max(
                rows_in_window,
                min(config.row_window, schedule.n_rows - row_base),
            )
        window_base.append(row_base)
        window_rows.append(rows_in_window)

    if chunks:
        sizes = [chunk[2].size for chunk in chunks]
        seq = np.repeat([chunk[0] for chunk in chunks], sizes)
        channel = np.repeat([chunk[1] for chunk in chunks], sizes)
        lane, row, local_col, value, origin, origin_pe = (
            np.concatenate([chunk[k] for chunk in chunks])
            for k in range(2, 8)
        )
    else:
        seq = channel = lane = row = local_col = origin = origin_pe = (
            np.zeros(0, dtype=np.int64)
        )
        value = np.zeros(0, dtype=np.float64)
    # Lanes past the PEG's width never reach a MAC (the MAC-count check
    # catches them).  The rest stay in stream order, which keeps each
    # lane's own order: a bank only ever accumulates from one lane.
    streamed = lane < pes
    if not streamed.all():
        seq, channel, lane, row, local_col, value, origin, origin_pe = (
            a[streamed] for a in (seq, channel, lane, row, local_col, value,
                                  origin, origin_pe)
        )
    window = np.asarray(tile_window, dtype=np.int64)[seq]
    width = np.asarray(tile_width, dtype=np.int64)[seq]
    private = origin == channel
    shared = ~private
    address = row // total_pes

    # -- streaming checks: x window, Router, URAM_pvt and ScUG banks ---
    bad = (local_col < 0) | (local_col >= width)
    bad |= private & (
        (origin_pe != lane) | (address < 0) | (address >= URAM_PARTIAL_SUMS)
    )
    scug_size = getattr(config, "scug_size", 0)
    span = getattr(config, "migration_span", 0)
    if shared.any():
        if scug_size == 0 or span == 0 or not 1 <= scug_size <= pes:
            bad |= shared
        else:
            bad |= shared & (
                (origin_pe < 0) | (origin_pe >= pes) | (address < 0)
                | (address >= _shared_capacity(pes, scug_size))
            )
            bad |= _excess_donors(window, channel, lane, origin, shared,
                                  channels, pes, span)
    if bad.any():
        # The walk stops in the first faulty lane batch (PE of one grid).
        block = (seq * channels + channel) * pes + lane
        faulty = np.flatnonzero(bad)
        first = int(faulty[np.argmin(block[faulty])])
        faults.append((
            (int(window[first]), 0, int(seq[first]), int(channel[first]),
             int(lane[first])),
            functools.partial(
                _lane_fault, first, block, local_col, width, channel, lane,
                origin, origin_pe, address, window, config,
            ),
        ))

    # -- merge checks: every merged sum lands inside its row window ----
    # Without a Reduction Unit shared sums never reach y: their MACs
    # run, the merge drops them.
    merged = private | reduction_unit
    lane_row = origin * pes + origin_pe
    local_row = lane_row + address * total_pes
    outside = merged & (
        local_row >= np.asarray(window_rows, dtype=np.int64)[window]
    )
    if outside.any():
        first = int(np.argmax(outside))
        kind = "private" if private[first] else "shared"
        faults.append(((int(window[first]), 1), SimulationError(
            f"{kind} sum for row "
            f"{window_base[int(window[first])] + int(local_row[first])} "
            f"outside window"
        )))

    total_macs = int(row.size)
    if total_macs != schedule.nnz:
        faults.append(((math.inf,), SimulationError(
            f"executed {total_macs} MACs for a schedule of "
            f"{schedule.nnz} non-zeros"
        )))
    if faults:
        _, fault = min(faults, key=lambda item: item[0])
        raise fault if isinstance(fault, ReproError) else fault()

    # -- the plan ------------------------------------------------------
    shared_windows = np.bincount(window[shared], minlength=len(window_rows))
    for w, rows_in_window in enumerate(window_rows):
        rows_in_window = max(rows_in_window, 1)
        if reduction_unit and shared_windows[w]:
            cycles.reduction += (
                math.ceil(rows_in_window / total_pes)
                + getattr(config, "reduction_tree_levels", 3)
                + config.accumulator_latency
            )
        cycles.output += math.ceil(rows_in_window / DENSE_LANES)

    shared_macs = int(np.count_nonzero(shared))
    busy = np.bincount(channel, minlength=channels)
    keep = slice(None) if merged.all() else np.flatnonzero(merged)
    window, shared, channel, lane = (
        window[keep], shared[keep], channel[keep], lane[keep]
    )
    # Output slots numbered by (window, private|shared, channel, origin
    # lane, address): the walk's merge order.  Bank slots numbered by
    # (output slot, PE): within a reduced sum, its PEs ascending.
    output, n_outputs = _dense_ids(_ravel((
        window, shared.astype(np.int64), channel, lane_row[keep],
        address[keep],
    )))
    banks, n_banks = _dense_ids(output * pes + lane)
    outputs = np.empty(n_banks, dtype=np.int64)
    outputs[banks] = output
    rows = np.empty(n_outputs, dtype=np.int64)
    rows[output] = (np.asarray(window_base, dtype=np.int64)[window]
                    + local_row[keep])
    out_window = np.zeros(n_outputs, dtype=np.int64)
    out_window[output] = window
    out_shared = np.zeros(n_outputs, dtype=bool)
    out_shared[output] = shared
    shared_values = int(np.count_nonzero(out_shared))

    return ReplayPlan(
        scheme=schedule.scheme,
        config=config,
        nnz=schedule.nnz,
        n_rows=schedule.n_rows,
        n_cols=schedule.n_cols,
        cols=_frozen(
            np.asarray(tile_col_base, dtype=np.int64)[seq[keep]]
            + local_col[keep]
        ),
        values=_frozen(value[keep]),
        banks=_frozen(banks),
        outputs=_frozen(outputs),
        rows=_frozen(rows),
        cycles=cycles,
        total_macs=total_macs,
        shared_macs=shared_macs,
        private_values=n_outputs - shared_values,
        shared_values=shared_values,
        channel_busy=tuple(busy.tolist()),
        channel_stalls=tuple(stalls),
        stream_high_water=int(np.bincount(out_window, minlength=1).max()),
    )


def _shared_capacity(pes: int, scug_size: int) -> int:
    """Partial sums per source PE in a ScUG: source PEs share
    ``ceil(pes / scug_size)`` to a URAM (the §4.5 down-sizing)."""
    return URAM_PARTIAL_SUMS // -(-pes // scug_size)


def _ravel(fields) -> np.ndarray:
    """One int64 key per element, ordered like the tuple of ``fields``
    (non-negative integer arrays, most significant first)."""
    key = np.zeros(fields[0].size, dtype=np.int64)
    for field in fields:
        if not field.size:
            break
        radix = int(field.max()) + 1
        if (int(key.max()) + 1) * radix >= 2 ** 62:
            # Re-number the prefix densely before it could overflow.
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = key * radix + field
    return key


def _dense_ids(key: np.ndarray):
    """``(ids, count)``: each key's rank among the distinct keys."""
    if not key.size:
        return key, 0
    top = int(key.max()) + 1
    if top <= 8 * key.size + 4096:
        present = np.zeros(top, dtype=bool)
        present[key] = True
        rank = np.cumsum(present) - 1
        return rank[key], int(rank[-1]) + 1
    distinct, ids = np.unique(key, return_inverse=True)
    return ids.reshape(-1), int(distinct.size)


def _excess_donors(window, channel, lane, origin, shared, channels, pes,
                   span) -> np.ndarray:
    """Shared elements whose donor would be a PE's ``span + 1``-th ScUG
    in their row window (donors counted in order of first use)."""
    picked = np.flatnonzero(shared)
    owner = (window[picked] * channels + channel[picked]) * pes + lane[picked]
    donor = origin[picked]
    pair, pairs = _dense_ids(_ravel((owner, donor)))
    pair_owner = np.empty(pairs, dtype=np.int64)
    pair_owner[pair] = owner
    excess = np.zeros(shared.size, dtype=bool)
    for crowded in np.flatnonzero(np.bincount(pair_owner) > span).tolist():
        mine = np.flatnonzero(owner == crowded)
        donors, first_use = np.unique(donor[mine], return_index=True)
        late = donors[np.argsort(first_use)][span:]
        excess[picked[mine[np.isin(donor[mine], late)]]] = True
    return excess


def _lane_fault(first, block, local_col, width, channel, lane, origin,
                origin_pe, address, window, config) -> ReproError:
    """The error the walk raises in the lane batch of element ``first``
    (the earliest batch holding a faulty element), checked in the order
    a PE checks (§4.2.1)."""
    pes = config.pes_per_channel
    scug_size = getattr(config, "scug_size", 0)
    span = getattr(config, "migration_span", 0)
    in_block = np.flatnonzero(block == block[first])
    ch, pe = int(channel[first]), int(lane[first])
    cols = local_col[in_block]
    window_size = int(width[first])
    outside = (cols < 0) | (cols >= window_size)
    if outside.any():
        return SimulationError(
            f"x[{int(cols[outside][0])}] outside loaded window of "
            f"{window_size} in ch{ch}.xbuf"
        )
    origins, origin_pes = origin[in_block], origin_pe[in_block]
    addresses = address[in_block]
    private = origins == ch
    if private.any():
        misrouted = private & (origin_pes != pe)
        if misrouted.any():
            return SimulationError(
                f"private element of PE {int(origin_pes[misrouted][0])} "
                f"routed to PE {pe} of channel {ch}"
            )
        fault = _bank_fault(addresses[private], URAM_PARTIAL_SUMS,
                            f"ch{ch}.pe{pe}.pvt")
        if fault is not None:
            return fault
    # Donors whose ScUG the PE allocated earlier in this row window.
    earlier = (
        (window == window[first]) & (channel == ch) & (lane == pe)
        & (block < block[first]) & (origin != ch)
    )
    allocated = set(origin[earlier].tolist())
    shared = ~private
    donors, seen = np.unique(origins[shared], return_index=True)
    for donor in donors[np.argsort(seen)].tolist():
        if donor not in allocated:
            if scug_size == 0 or span == 0:
                return SimulationError(
                    f"channel {ch} PE {pe} received a migrated element "
                    "but has no ScUG (Serpens datapath)"
                )
            if len(allocated) >= span:
                return SimulationError(
                    f"channel {ch} PE {pe} would need "
                    f"{len(allocated) + 1} ScUGs but the configuration "
                    f"provisions {span} (§6.1)"
                )
            if not 1 <= scug_size <= pes:
                return CapacityError(
                    f"ScUG size {scug_size} must be in 1..{pes}"
                )
            allocated.add(donor)
        from_donor = shared & (origins == donor)
        name = f"ch{ch}.pe{pe}.scug{donor}"
        for source_pe in np.unique(origin_pes[from_donor]).tolist():
            if not 0 <= source_pe < pes:
                return SimulationError(
                    f"source PE {source_pe} out of range in {name}"
                )
            fault = _bank_fault(
                addresses[from_donor & (origin_pes == source_pe)],
                _shared_capacity(pes, scug_size), f"{name}.sh{source_pe}",
            )
            if fault is not None:
                return fault
    raise AssertionError("compile flagged a lane the PE checks accept")


def _bank_fault(addresses, capacity: int, name: str) -> Optional[ReproError]:
    """A URAM bank's checks on one batch of addresses (§4.2.1)."""
    if int(addresses.min()) < 0:
        return SimulationError(f"negative URAM address in {name}")
    top = int(addresses.max())
    if top >= capacity:
        return CapacityError(
            f"URAM {name!r}: address {top} exceeds capacity {capacity}"
        )
    return None
