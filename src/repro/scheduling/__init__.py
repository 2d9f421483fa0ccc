"""Non-zero scheduling schemes (§2.2, §3).

Three schedulers, in increasing sophistication:

* :func:`~repro.scheduling.row_based.schedule_row_based` — naive row-based
  parallelization (Fig. 2a);
* :func:`~repro.scheduling.pe_aware.schedule_pe_aware` — the intra-channel
  PE-aware OoO scheme used by Serpens/Sextans/LevelST (Fig. 2b);
* :func:`~repro.scheduling.crhcs.schedule_crhcs` — CrHCS, the paper's
  cross-HBM-channel OoO scheme with data migration (Fig. 2c, §3).

Every registered scheme runs as an ordered pass list over a shared
Schedule-IR (:mod:`repro.scheduling.passes`), with per-pass
fingerprints enabling incremental rescheduling; see
``docs/architecture.md``.
"""

from .base import (
    ChannelGrid,
    ScheduledElement,
    Schedule,
    TiledSchedule,
    pe_for_row,
)
from .raw_tracker import RawTracker
from .reorder import RowPermutation, balancing_permutation, reorder_rows
from .row_based import schedule_row_based
from .pe_aware import schedule_pe_aware
from .greedy import schedule_greedy_ooo
from .row_split import schedule_row_split
from .crhcs import MigrationReport, schedule_crhcs, schedule_crhcs_rebuild
from .registry import (
    SchedulerSpec,
    get_scheme,
    iter_schemes,
    register_scheme,
    registered_schemes,
)
from .passes import (
    PassManager,
    SchedulePass,
    known_pass_names,
    resolve_passes,
    schedules_identical,
)
from .serialize import deserialize_schedule, serialize_schedule
from .window import Tile, tile_matrix
from .stats import (
    ScheduleStats,
    channel_underutilization,
    peg_underutilization,
    schedule_stats,
    underutilization_percent,
)

__all__ = [
    "ChannelGrid",
    "ScheduledElement",
    "Schedule",
    "TiledSchedule",
    "pe_for_row",
    "RawTracker",
    "RowPermutation",
    "balancing_permutation",
    "reorder_rows",
    "schedule_row_based",
    "schedule_pe_aware",
    "schedule_greedy_ooo",
    "schedule_row_split",
    "schedule_crhcs",
    "schedule_crhcs_rebuild",
    "SchedulerSpec",
    "get_scheme",
    "iter_schemes",
    "register_scheme",
    "registered_schemes",
    "MigrationReport",
    "PassManager",
    "SchedulePass",
    "known_pass_names",
    "resolve_passes",
    "schedules_identical",
    "deserialize_schedule",
    "serialize_schedule",
    "Tile",
    "tile_matrix",
    "ScheduleStats",
    "channel_underutilization",
    "peg_underutilization",
    "schedule_stats",
    "underutilization_percent",
]
