"""The structural passes: compact, trim, verify — plus byte-identity helpers.

These are scheme-independent: every registered scheme ends its pass list
with ``compact → trim → verify``.

``CompactPass``
    Drops trailing all-stall cycles from each channel grid — the
    leftovers migration (or a conservative builder) leaves at the tail.
    O(1) per grid thanks to the incrementally tracked maximum occupied
    cycle.
``TrimPass``
    The §3.1 resize: equalises every channel list of the tile to the
    longest one so the tile streams as one rectangular block.  Purely
    logical — implicit-stall padding allocates no storage.
``VerifyPass``
    Cheap structural invariants on the finished tile: every non-zero is
    scheduled exactly once (element conservation) and the lists are
    rectangular.  Deliberately *not* the full
    :meth:`~repro.scheduling.base.Schedule.validate` — that is O(nnz)
    dict probing and assumes the Eq. 1 lane rule, which ``row_split``
    legally relaxes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...errors import SchedulingError
from .base import SchedulePass, ScheduleIR, TileState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..base import ChannelGrid, Schedule, TiledSchedule


class CompactPass(SchedulePass):
    """Trim trailing all-stall cycles from every channel grid."""

    name = "compact"
    token = "compact"

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        grids = state.grids
        if grids is None:
            raise SchedulingError("compact needs built grids")
        for grid in grids:
            grid.trim_trailing_stalls()
        # The lengths changed: a table the state kept is stale.
        state.grids = grids


class TrimPass(SchedulePass):
    """Equalise the tile's channel lists to the longest one (§3.1)."""

    name = "trim"
    token = "trim"

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        grids = state.grids
        if grids is None:
            raise SchedulingError("trim needs built grids")
        length = max((len(g) for g in grids), default=0)
        for grid in grids:
            grid.ensure_length(length)
        state.grids = grids  # as in compact: drop a stale table


class VerifyPass(SchedulePass):
    """Check element conservation and rectangular lists per tile."""

    name = "verify"
    token = "verify"

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        grids = state.grids
        if grids is None:
            raise SchedulingError("verify needs built grids")
        scheduled = sum(g.element_count for g in grids)
        if scheduled != state.tile.nnz:
            raise SchedulingError(
                f"{ir.scheme}: tile at ({state.tile.row_base}, "
                f"{state.tile.col_base}) scheduled {scheduled} of "
                f"{state.tile.nnz} non-zeros"
            )
        lengths = {len(g) for g in grids}
        if len(lengths) > 1:
            raise SchedulingError(
                f"{ir.scheme}: unequalised channel lists "
                f"(lengths {sorted(lengths)}) after trim"
            )


# ---------------------------------------------------------------------------
# byte-identity helpers (differential tests, the reschedule CLI, benches)
# ---------------------------------------------------------------------------


def grids_identical(a: "ChannelGrid", b: "ChannelGrid") -> bool:
    """True when two grids are byte-identical (length + every slot)."""
    if a.channel_id != b.channel_id or a.pes != b.pes or len(a) != len(b):
        return False
    if a.element_count != b.element_count:
        return False
    arrays_a = a.element_arrays()
    arrays_b = b.element_arrays()
    return all(
        np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b)
    )


def tiles_identical(a: "Schedule", b: "Schedule") -> bool:
    """True when two tile schedules are byte-identical."""
    if (
        a.scheme != b.scheme
        or a.row_base != b.row_base
        or a.col_base != b.col_base
        or a.migrated_count != b.migrated_count
        or a.migration_span != b.migration_span
        or len(a.grids) != len(b.grids)
    ):
        return False
    return all(grids_identical(x, y) for x, y in zip(a.grids, b.grids))


def schedules_identical(a: "TiledSchedule", b: "TiledSchedule") -> bool:
    """True when two tiled schedules are byte-identical, tile by tile."""
    if (
        a.scheme != b.scheme
        or a.n_rows != b.n_rows
        or a.n_cols != b.n_cols
        or len(a.tiles) != len(b.tiles)
    ):
        return False
    return all(tiles_identical(x, y) for x, y in zip(a.tiles, b.tiles))
