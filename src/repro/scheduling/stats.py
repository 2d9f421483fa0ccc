"""Schedule-level statistics (Eq. 4 and the Fig. 11–13 quantities).

Also home of :class:`MigrationReport`, the CrHCS bookkeeping record: it
sits here (below the scheme modules and the pass pipeline) so the
migrate/build passes can fill one per tile without importing the scheme
modules; :mod:`repro.scheduling.crhcs` re-exports it at its historical
location.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Union

from .base import Schedule, TiledSchedule

AnySchedule = Union[Schedule, TiledSchedule]


@dataclass
class MigrationReport:
    """Bookkeeping of one CrHCS run (aggregated over tiles)."""

    migrated: int = 0
    own_issues: int = 0
    raw_skips: int = 0
    #: migrated counts keyed by (destination, donor) channel pair.
    pair_counts: Counter = field(default_factory=Counter)

    def record_migration(self, dest: int, donor: int) -> None:
        self.migrated += 1
        self.pair_counts[(dest, donor)] += 1

    def merge(self, other: "MigrationReport") -> None:
        self.migrated += other.migrated
        self.own_issues += other.own_issues
        self.raw_skips += other.raw_skips
        # Counter.update adds counts, so overlapping pairs accumulate.
        self.pair_counts.update(other.pair_counts)

    @property
    def migration_fraction(self) -> float:
        total = self.migrated + self.own_issues
        return self.migrated / total if total else 0.0


@dataclass(frozen=True)
class ScheduleStats:
    """Everything the evaluation reads off one schedule."""

    scheme: str
    nnz: int
    stalls: int
    stream_cycles: int
    words_per_channel: int
    traffic_bytes: int
    underutilization_pct: float
    migrated: int
    per_channel_underutilization_pct: List[float]

    @property
    def utilization_pct(self) -> float:
        return 100.0 - self.underutilization_pct


def underutilization_percent(schedule: AnySchedule) -> float:
    """Eq. 4: ``stalls / (NNZ + stalls) × 100`` over all channels."""
    return 100.0 * schedule.underutilization


def channel_underutilization(schedule: AnySchedule) -> List[float]:
    """Eq. 4 evaluated per channel data list (the Fig. 12 per-PEG view)."""
    stalls = schedule.channel_stalls()
    elements = schedule.channel_elements()
    result = []
    for stall_count, element_count in zip(stalls, elements):
        denominator = stall_count + element_count
        result.append(
            100.0 * stall_count / denominator if denominator else 0.0
        )
    return result


def peg_underutilization(schedule: AnySchedule) -> List[float]:
    """Alias of :func:`channel_underutilization`: one PEG per channel."""
    return channel_underutilization(schedule)


def schedule_stats(schedule: AnySchedule) -> ScheduleStats:
    """Collect :class:`ScheduleStats` from any schedule object."""
    return ScheduleStats(
        scheme=schedule.scheme,
        nnz=schedule.nnz,
        stalls=schedule.total_stalls,
        stream_cycles=schedule.stream_cycles,
        words_per_channel=schedule.words_per_channel,
        traffic_bytes=schedule.traffic_bytes,
        underutilization_pct=underutilization_percent(schedule),
        migrated=getattr(schedule, "migrated_count", 0),
        per_channel_underutilization_pct=channel_underutilization(schedule),
    )
