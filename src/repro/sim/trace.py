"""Pipeline tracing: the Fig. 2-style per-PE timeline.

For small schedules the trace renders what Figs. 1/2 of the paper draw by
hand — which instruction (row accumulation) occupies each PE at each
cycle, with stalls visible — and collects per-PE occupancy statistics.
Intended for debugging schedulers and for teaching examples; tracing a
million-element schedule would produce a million-line timeline, so the
renderer enforces a size limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..scheduling.base import ChannelGrid, Schedule

#: Render guard: timelines beyond this many cycles are refused by default.
MAX_RENDER_CYCLES = 512


@dataclass
class PETimeline:
    """Occupancy of one PE, cycle by cycle."""

    channel_id: int
    pe_id: int
    #: ``slots[cycle]`` is ``None`` (stall) or (row, is_migrated).
    slots: List = field(default_factory=list)

    @property
    def busy_cycles(self) -> int:
        return sum(1 for slot in self.slots if slot is not None)

    @property
    def occupancy(self) -> float:
        return self.busy_cycles / len(self.slots) if self.slots else 0.0

    def render(self) -> str:
        cells = []
        for slot in self.slots:
            if slot is None:
                cells.append("....")
            else:
                row, migrated = slot
                marker = "*" if migrated else " "
                cells.append(f"r{row % 100:02d}{marker}")
        return (
            f"ch{self.channel_id}.pe{self.pe_id}: " + "|".join(cells)
        )


@dataclass
class ScheduleTrace:
    """Timelines of every PE of one tile schedule."""

    timelines: Dict[Tuple[int, int], PETimeline]
    cycles: int

    def timeline(self, channel: int, pe: int) -> PETimeline:
        key = (channel, pe)
        if key not in self.timelines:
            raise SimulationError(f"no timeline for channel {channel} "
                                  f"PE {pe}")
        return self.timelines[key]

    @property
    def mean_occupancy(self) -> float:
        values = [t.occupancy for t in self.timelines.values()]
        return sum(values) / len(values) if values else 0.0

    def busiest_pe(self) -> PETimeline:
        if not self.timelines:
            raise SimulationError("empty trace")
        return max(self.timelines.values(), key=lambda t: t.busy_cycles)

    def render(self, max_cycles: Optional[int] = None) -> str:
        limit = MAX_RENDER_CYCLES if max_cycles is None else max_cycles
        if self.cycles > limit:
            raise SimulationError(
                f"timeline of {self.cycles} cycles exceeds the render "
                f"limit of {limit}; pass render(max_cycles=...) to raise it"
            )
        return "\n".join(
            self.timelines[key].render()
            for key in sorted(self.timelines)
        )


def trace_grid(grid: ChannelGrid) -> Dict[Tuple[int, int], PETimeline]:
    """Timelines of one channel grid."""
    timelines = {
        (grid.channel_id, pe): PETimeline(
            channel_id=grid.channel_id,
            pe_id=pe,
            slots=[None] * grid.length,
        )
        for pe in range(grid.pes)
    }
    for (cycle, pe), element in grid.occupied.items():
        migrated = element.origin_channel != grid.channel_id
        timelines[(grid.channel_id, pe)].slots[cycle] = (
            element.row, migrated,
        )
    return timelines


def trace_schedule(schedule: Schedule) -> ScheduleTrace:
    """Trace every PE of a (single-tile) schedule."""
    timelines: Dict[Tuple[int, int], PETimeline] = {}
    for grid in schedule.grids:
        timelines.update(trace_grid(grid))
    return ScheduleTrace(
        timelines=timelines, cycles=schedule.stream_cycles
    )
