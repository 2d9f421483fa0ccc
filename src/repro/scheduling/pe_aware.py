"""PE-aware non-zero OoO scheduling — the Serpens baseline (§2.2, Fig. 2b).

Rows map to PEs via Eq. 1 (``row % total_pes``).  Within a PE the scheduler
walks the PE's rows in fixed *round-robin windows*: it takes the next
``distance`` rows assigned to the PE (10 on the U55c — "PE-aware non-zero
scheduling maps at least 10 rows per PE", §2.2) and emits one slot per row
per rotation, cycling until the longest row in the window drains.  A
rotation slot whose row has no non-zero left becomes an **explicit zero**
in the channel data list — the pseudo-stall that keeps the HLS pipeline at
II=1 (§2.2).

The window width equals the accumulator latency by construction, so the
same row recurs exactly ``distance`` cycles later and the RAW constraint
holds with no further checks — this is exactly the Fig. 2b interleave
(rows 0, 4, 8, …, 36 rotating through PE0, stalling on the empty rows
20–36).

Its weakness, and the paper's motivation: the scheduler can only fill a
rotation slot with non-zeros *from the same window of the same channel*,
so imbalanced row lengths turn directly into stalls (≈70 % of slots across
the 800-matrix corpus, Fig. 3).  Scheme name: ``"pe_aware"``.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..config import DEFAULT_SERPENS, AcceleratorConfig
from ..errors import SchedulingError
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from .. import telemetry
from .base import (
    ChannelGrid, Schedule, TiledSchedule, TileElements, pe_for_row,
)
from .passes import PassManager, register_builder, resolve_passes
from . import walk_kernel
from .registry import register_scheme
from .window import Tile, tile_matrix

#: Algorithm revision (cache fingerprint component); "2" is the
#: whole-tile vectorized builder that replaced the slot-at-a-time walk.
PE_AWARE_VERSION = "2"

Matrix = Union[COOMatrix, CSRMatrix]

#: A per-PE row group: (row id, element indices in column order).
RowGroup = Tuple[int, np.ndarray]


def group_rows_by_pe(
    tile: Tile, config: AcceleratorConfig
) -> List[List[List[RowGroup]]]:
    """Partition a tile's non-zeros into ``groups[channel][pe]`` row lists.

    Element indices refer to the tile's ``rows``/``cols``/``values`` arrays;
    each row's indices are sorted by column, matching the CSR streaming
    order of the preprocessing step.  Rows without non-zeros do not appear;
    schedulers that need them (the round-robin window) re-insert them from
    the row id gaps.
    """
    groups: List[List[List[RowGroup]]] = [
        [[] for _ in range(config.pes_per_channel)]
        for _ in range(config.sparse_channels)
    ]
    if tile.nnz == 0:
        return groups
    order = np.lexsort((tile.cols, tile.rows))
    rows_sorted = tile.rows[order]
    boundaries = np.flatnonzero(np.diff(rows_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [rows_sorted.size]])
    for start, end in zip(starts, ends):
        row = int(rows_sorted[start])
        channel, pe = pe_for_row(row, config)
        groups[channel][pe].append((row, order[start:end]))
    return groups


def round_robin_arrays(
    rows: List[RowGroup], distance: int, total_pes: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized windowed round-robin schedule of one PE's rows.

    Same contract as :func:`schedule_single_pe_round_robin` but returning
    NumPy index arrays — the cycle assignment is pure arithmetic over the
    row groups (window base + rotation × distance + lane), so the whole
    lane schedules without a per-element Python loop.
    """
    if distance < 1:
        raise SchedulingError("dependency distance must be >= 1")
    if not rows:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            0,
        )
    row_ids = np.fromiter(
        (row for row, _ in rows), dtype=np.int64, count=len(rows)
    )
    lengths = np.fromiter(
        (len(indices) for _, indices in rows),
        dtype=np.int64,
        count=len(rows),
    )
    positions = row_ids // total_pes
    windows = positions // distance
    lanes = positions % distance

    # Windows flush on change of window id (consecutive runs), exactly as
    # the incremental builder did.
    run_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(windows)) + 1]
    )
    rotations = np.maximum.reduceat(lengths, run_starts)
    spans = rotations * distance
    bases = np.concatenate([[0], np.cumsum(spans)[:-1]])
    run_lengths = np.diff(np.concatenate([run_starts, [len(rows)]]))
    row_bases = np.repeat(bases, run_lengths)

    starts = row_bases + lanes
    total = int(lengths.sum())
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    rotation_index = np.arange(total, dtype=np.int64) - np.repeat(
        offsets, lengths
    )
    out_cycles = np.repeat(starts, lengths) + distance * rotation_index
    out_elements = np.concatenate(
        [np.asarray(indices, dtype=np.int64) for _, indices in rows]
    )
    return out_cycles, out_elements, int(bases[-1] + spans[-1])


def schedule_single_pe_round_robin(
    rows: List[RowGroup], distance: int, total_pes: int
) -> Tuple[List[int], List[int], int]:
    """Windowed round-robin schedule of one PE's rows.

    The window walks the PE's assigned rows *in row-id order, including
    empty rows* — Fig. 2b shows the empty rows 20–36 stalling PE0's
    rotation.  A row's position within its PE is ``row // total_pes``
    (Eq. 1 strides rows across PEs), its window is ``position //
    distance`` and its lane within the window ``position % distance``.
    Each window rotates until its longest row drains, emitting one slot
    per lane per rotation; lanes whose row has run out (or never had
    non-zeros) are the explicit zeros of §2.2.  Windows that contain no
    non-zeros at all contribute no rotations — the preprocessing simply
    skips them.

    Returns ``(cycles, element_indices, length)``.
    """
    cycles, elements, length = round_robin_arrays(rows, distance, total_pes)
    return cycles.tolist(), elements.tolist(), length


def _stable_order(*keys: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort(keys)`` for non-negative integer keys:
    by the last key, then the one before, ties in input order.

    An LSD radix sort: each pass stably sorts 16 bits of one key, least
    significant key and bits first, with NumPy's O(n) radix sort of
    ``uint16``.  No key is combined with another, so no key can
    overflow, and the cost does not depend on the input's order.
    """
    order = None
    for key in keys:
        for shift in range(0, max(int(key.max()).bit_length(), 1), 16):
            digit = (key >> shift).astype(np.uint16)
            if order is not None:
                digit = digit[order]
            step = np.argsort(digit, kind="stable")
            order = step if order is None else order[step]
    return order


def pe_aware_elements(tile: Tile, config: AcceleratorConfig) -> TileElements:
    """The unequalised PE-aware schedule of one tile, as its element table.

    This is the intermediate CrHCS starts from: each channel is as long as
    its own slowest PE, before the global resize of §3.1.

    Elements go in (global PE, row, column) order with ties in input
    order; each round-robin window's rotation count and base cycle give
    every element's slot (``base + lane + rotation × distance``), and the
    table holds the elements in channel-major stream order.  No plane is
    laid out (:func:`pe_aware_grids` does that).  The build is one call
    per tile to the compiled kernel (``pe_aware_build`` in
    ``crhcs_walk.c``; see :mod:`repro.scheduling.walk_kernel`) or, on a
    host that cannot build it, to :func:`_numpy_build`, which is also the
    reference the kernel is tested against.  Both give the same table
    and refuse a negative coordinate with the same error.
    """
    distance = config.accumulator_latency
    if distance < 1:
        raise SchedulingError("dependency distance must be >= 1")
    if tile.nnz == 0:
        empty = np.empty(0, dtype=np.int64)
        return TileElements(
            config.pes_per_channel, (0,) * config.sparse_channels, empty,
            empty, empty, empty, np.empty(0, dtype=np.float64), empty, empty,
        )
    build = walk_kernel.compiled_build() or _numpy_build
    return build(
        config.sparse_channels, config.pes_per_channel, distance,
        np.asarray(tile.rows, dtype=np.int64),
        np.asarray(tile.cols, dtype=np.int64),
        np.asarray(tile.values, dtype=np.float64),
    )


def _numpy_build(
    channels_n: int, ppc: int, distance: int, rows: np.ndarray,
    cols: np.ndarray, values: np.ndarray,
) -> TileElements:
    """:func:`pe_aware_elements` in NumPy, for a tile of at least one
    element (``rows``/``cols`` int64, ``values`` float64).

    The whole tile is scheduled in one vectorized pass: one stable radix
    sort (:func:`_stable_order`, one 16-bit pass per key for the tile
    coordinates of the U55c windows) puts elements in (global PE, row,
    column) order with ties in input order, segmented reductions compute
    each round-robin window's rotation count and base cycle, and every
    element's slot follows from ``base + rotation × distance + lane`` —
    no per-element (or per-lane) Python loop.  One more sort puts the
    elements in channel-major stream order.  The compiled kernel
    (:func:`repro.scheduling.walk_kernel.run_build`) returns the same.
    """
    if rows.min() < 0 or cols.min() < 0:
        raise SchedulingError(walk_kernel.NEGATIVE_COORDINATE)
    total_pes = channels_n * ppc
    nnz = rows.size
    gpe = rows % total_pes
    # (global PE, row, column) order: each PE's rows ascend, matching the
    # flush-on-window-change walk of schedule_single_pe_round_robin, and
    # each row streams in CSR column order.
    order = _stable_order(cols, rows, gpe)
    elem_row = rows[order]
    elem_gpe = gpe[order]

    # Row groups (contiguous runs — a row maps to exactly one PE).
    first_of_row = np.empty(nnz, dtype=bool)
    first_of_row[0] = True
    np.not_equal(elem_row[1:], elem_row[:-1], out=first_of_row[1:])
    row_starts = np.flatnonzero(first_of_row)
    row_lens = np.diff(np.append(row_starts, nnz))
    row_ids = elem_row[row_starts]
    row_gpe = elem_gpe[row_starts]

    positions = row_ids // total_pes
    windows = positions // distance
    lanes = positions % distance

    # Window groups: runs of equal (PE, window id) among the row groups.
    n_rows = row_ids.size
    first_of_window = np.empty(n_rows, dtype=bool)
    first_of_window[0] = True
    first_of_window[1:] = (row_gpe[1:] != row_gpe[:-1]) | (
        windows[1:] != windows[:-1]
    )
    window_starts = np.flatnonzero(first_of_window)
    rotations = np.maximum.reduceat(row_lens, window_starts)
    spans = rotations * distance

    # Base cycle of each window = cumulative span of the PREVIOUS windows
    # of the same PE lane (a segmented exclusive cumsum over PE runs).
    cumulative = np.concatenate([[0], np.cumsum(spans)])
    window_gpe = row_gpe[window_starts]
    first_of_lane = np.empty(window_starts.size, dtype=bool)
    first_of_lane[0] = True
    first_of_lane[1:] = window_gpe[1:] != window_gpe[:-1]
    lane_of_window = np.cumsum(first_of_lane) - 1
    lane_offsets = cumulative[np.flatnonzero(first_of_lane)]
    window_bases = cumulative[:-1] - lane_offsets[lane_of_window]

    window_rows = np.diff(np.append(window_starts, n_rows))
    row_base = np.repeat(window_bases, window_rows) + lanes
    rotation_index = np.arange(nnz, dtype=np.int64) - np.repeat(
        row_starts, row_lens
    )
    elem_cycle = np.repeat(row_base, row_lens) + distance * rotation_index
    elem_pe = elem_gpe % ppc
    elem_channel = elem_gpe // ppc
    elem_slot = elem_cycle * ppc + elem_pe

    # Channel-major stream order (the slots are distinct per channel, so
    # every sort gives this order; the stable one is the fastest on keys
    # already in channel-major runs).  A data list ends at its last
    # non-zero; the trailing rotation stalls of the final window carry
    # no information.
    stream = np.argsort(
        elem_channel * (int(elem_slot.max()) + 1) + elem_slot,
        kind="stable",
    )
    channels = elem_channel[stream]
    slots = elem_slot[stream]
    ends = np.searchsorted(channels, np.arange(1, channels_n + 1))
    starts = np.concatenate([[0], ends[:-1]])
    lengths = np.where(ends > starts, slots[ends - 1] // ppc + 1, 0)
    taken = order[stream]
    return TileElements(
        ppc, tuple(lengths.tolist()), channels, slots, elem_row[stream],
        cols[taken], values[taken], channels, elem_pe[stream],
    )


def pe_aware_grids(tile: Tile, config: AcceleratorConfig) -> List[ChannelGrid]:
    """Unequalised per-channel PE-aware grids for one tile: the element
    table of :func:`pe_aware_elements`, laid out in one buffer
    (:meth:`ChannelGrid.tile_grids`)."""
    return pe_aware_elements(tile, config).grids()


def _pe_aware_builder(tile, config, options, report):
    """Kernel adapter for the pass pipeline (``build:pe_aware``): hands
    on the element table, not grids."""
    return pe_aware_elements(tile, config)


register_builder("pe_aware", _pe_aware_builder, version=PE_AWARE_VERSION)

#: The scheme's pass composition (declared on the registry spec).
PE_AWARE_PASSES = ("build:pe_aware", "compact", "trim", "verify")


def _pe_aware_plan(config: AcceleratorConfig, kwargs: dict):
    return resolve_passes(PE_AWARE_PASSES)


def schedule_pe_aware_tile(tile: Tile, config: AcceleratorConfig) -> Schedule:
    """Schedule one tile with PE-aware OoO scheduling and equalise lists."""
    schedule = Schedule(
        config=config,
        grids=pe_aware_grids(tile, config),
        scheme="pe_aware",
        row_base=tile.row_base,
        col_base=tile.col_base,
    )
    schedule.equalise()
    return schedule


@register_scheme(
    name="pe_aware",
    version=PE_AWARE_VERSION,
    default_config=DEFAULT_SERPENS,
    power_key="serpens",
    accelerator_name="serpens",
    description="intra-channel PE-aware OoO (Serpens/Sextans, Fig. 2b)",
    passes=PE_AWARE_PASSES,
    plan=_pe_aware_plan,
)
def schedule_pe_aware(
    matrix: Matrix,
    config: AcceleratorConfig,
    max_rows_per_pass: int = 0,
    _pass_cache=None,
) -> TiledSchedule:
    """Schedule a whole matrix with the PE-aware (Serpens) scheme."""
    t = telemetry.get()
    manager = PassManager(_pe_aware_plan(config, {}), scheme="pe_aware")
    with t.span("schedule.pe_aware", nnz=matrix.nnz) as span:
        schedule = manager.run(
            matrix, config,
            max_rows_per_pass=max_rows_per_pass, cache=_pass_cache,
        )
        span.annotate(tiles=len(schedule.tiles))
    if t.enabled:
        t.counter("scheduler.pe_aware.matrices", 1)
        t.counter("scheduler.pe_aware.tiles", len(schedule.tiles))
        t.counter("scheduler.pe_aware.nnz", matrix.nnz)
    return schedule
