"""``MigratePass`` — cross-channel hole filling over a built tile.

Like the build kernels, the migration kernels stay in their scheme
modules (CrHCS's ring migration today; PE-aware-variant strategies can
register beside it for A/B runs) and register here by variant name, so
the pass layer never reaches up into the scheme modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from ...errors import ConfigError, SchedulingError
from ..base import ChannelGrid
from ..stats import MigrationReport
from .base import SchedulePass, ScheduleIR, TileState

#: ``migrator(elements, config, options, report) -> List[ChannelGrid]``:
#: reads the tile's element table and returns new, read-only grids
#: (the CrHCS kernel's are laid out on their first plane read).
MigratorFn = Callable[..., List[ChannelGrid]]


@dataclass(frozen=True)
class MigratorEntry:
    """One registered migration kernel."""

    name: str
    fn: MigratorFn
    option_keys: Tuple[str, ...] = ()
    version: str = "1"


_MIGRATORS: Dict[str, MigratorEntry] = {}


def register_migrator(
    name: str,
    fn: MigratorFn,
    *,
    option_keys: Tuple[str, ...] = (),
    version: str = "1",
) -> None:
    """Register a migration kernel under ``migrate:<name>``."""
    if name in _MIGRATORS:
        raise ConfigError(f"migrator {name!r} is already registered")
    _MIGRATORS[name] = MigratorEntry(
        name=name, fn=fn, option_keys=tuple(option_keys), version=version
    )


def _ensure_kernels() -> None:
    from .. import crhcs  # noqa: F401


def migrator_entry(name: str) -> MigratorEntry:
    entry = _MIGRATORS.get(name)
    if entry is None:
        _ensure_kernels()
        entry = _MIGRATORS.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown migrator {name!r}; "
            f"registered: {', '.join(sorted(_MIGRATORS))}"
        )
    return entry


def migrator_variants() -> Tuple[str, ...]:
    """All registered migration kernel variants, sorted."""
    _ensure_kernels()
    return tuple(sorted(_MIGRATORS))


class MigratePass(SchedulePass):
    """Fill one tile's stalls with a registered migration kernel."""

    name = "migrate"
    cacheable = True

    def __init__(self, variant: str, options: Mapping[str, object] = ()):
        entry = migrator_entry(variant)
        self.variant = variant
        self.token = f"migrate:{variant}"
        self.version = entry.version
        self._entry = entry
        options = dict(options or {})
        self._options = {
            key: options[key] for key in entry.option_keys if key in options
        }

    def params(self) -> Tuple[Tuple[str, object], ...]:
        return tuple(sorted(self._options.items()))

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        # The build's table as it came, or grids (a slot-at-a-time
        # builder's, or a build snapshot's) read into one.
        elements = state.elements
        if elements is None:
            raise SchedulingError(
                f"{self.token} needs built grids; "
                f"run a build pass before it"
            )
        # Always account per tile — Schedule.migrated_count comes from
        # here whether or not the caller asked for a report.
        report = MigrationReport()
        state.grids = self._entry.fn(
            elements, ir.config, self._options, report
        )
        state.report = report
        state.migrated = report.migrated
