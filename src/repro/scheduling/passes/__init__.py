"""Schedule-IR pass pipeline (build → migrate → compact → trim → verify).

Scheduling used to be five monolithic builder functions; this package
restructures it as an explicit pass pipeline over the array-backed
grids, with a :class:`PassManager` that chains a per-pass fingerprint
(upstream digest + pass config + pass version) through the list.  The
registry declares every scheme as a pass list, and the pipeline's
schedule stage hands the manager its artifact store, whose per-tile
pass snapshots turn the digest chains into incremental rescheduling for
in-place matrix updates.

Layering: this package may import ``scheduling.base``/``stats``/
``window`` but never the registry or the scheme modules — the scheme
modules register their grid/migration kernels *into* the pass registries
at import time (enforced by ``scripts/check_layering.py``).
"""

from .base import SchedulePass, ScheduleIR, TileState
from .build import (
    BuildGridPass,
    builder_variants,
    register_builder,
)
from .fingerprint import (
    fingerprint,
    fingerprint_config,
    fingerprint_tile,
)
from .migrate import (
    MigratePass,
    migrator_variants,
    register_migrator,
)
from .manager import (
    PassManager,
    PassRunStats,
    known_pass_names,
    resolve_passes,
    validate_pass_name,
)
from .structural import (
    CompactPass,
    TrimPass,
    VerifyPass,
    grids_identical,
    schedules_identical,
    tiles_identical,
)

__all__ = [
    "SchedulePass",
    "ScheduleIR",
    "TileState",
    "BuildGridPass",
    "MigratePass",
    "CompactPass",
    "TrimPass",
    "VerifyPass",
    "PassManager",
    "PassRunStats",
    "register_builder",
    "register_migrator",
    "builder_variants",
    "migrator_variants",
    "known_pass_names",
    "validate_pass_name",
    "resolve_passes",
    "fingerprint",
    "fingerprint_config",
    "fingerprint_tile",
    "grids_identical",
    "schedules_identical",
    "tiles_identical",
]
