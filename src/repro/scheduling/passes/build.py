"""``BuildGridPass`` — tile non-zeros → per-channel grids.

The grid *kernels* (the vectorized PE-aware builder, the greedy cooldown
walk, the joint CrHCS rebuild, …) stay in their scheme modules; each
registers itself here under a variant name at import time, so the pass
pipeline never imports a scheme module at module level (the layering
rule: ``scheduling.passes`` may import ``base``/``stats``/``window``
only).  Resolving an unregistered variant falls back to importing the
built-in scheme modules function-locally — the sanctioned escape hatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple, Union

from ...errors import ConfigError
from ..base import ChannelGrid, TileElements
from ..stats import MigrationReport
from .base import SchedulePass, ScheduleIR, TileState

#: ``builder(tile, config, options, report)``: the vectorized PE-aware
#: kernel returns the tile's element table, the kernels that place
#: elements one slot at a time return their grids.
BuilderFn = Callable[..., Union[TileElements, List[ChannelGrid]]]


@dataclass(frozen=True)
class BuilderEntry:
    """One registered grid kernel."""

    name: str
    fn: BuilderFn
    #: Option keys (from the scheme's resolved options) that change the
    #: kernel's output — they join the pass digest as parameters.
    option_keys: Tuple[str, ...] = ()
    #: Whether the kernel fills a per-tile MigrationReport (rebuild mode).
    uses_report: bool = False
    #: Kernel algorithm revision (digest component).
    version: str = "1"


_BUILDERS: Dict[str, BuilderEntry] = {}


def register_builder(
    name: str,
    fn: BuilderFn,
    *,
    option_keys: Tuple[str, ...] = (),
    uses_report: bool = False,
    version: str = "1",
) -> None:
    """Register a grid kernel under ``build:<name>``."""
    if name in _BUILDERS:
        raise ConfigError(f"grid builder {name!r} is already registered")
    _BUILDERS[name] = BuilderEntry(
        name=name,
        fn=fn,
        option_keys=tuple(option_keys),
        uses_report=uses_report,
        version=version,
    )


def _ensure_kernels() -> None:
    """Import the built-in scheme modules so their kernels register."""
    from .. import crhcs, greedy, pe_aware, row_based, row_split  # noqa: F401


def builder_entry(name: str) -> BuilderEntry:
    entry = _BUILDERS.get(name)
    if entry is None:
        _ensure_kernels()
        entry = _BUILDERS.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown grid builder {name!r}; "
            f"registered: {', '.join(sorted(_BUILDERS))}"
        )
    return entry


def builder_variants() -> Tuple[str, ...]:
    """All registered build kernel variants, sorted."""
    _ensure_kernels()
    return tuple(sorted(_BUILDERS))


class BuildGridPass(SchedulePass):
    """Run a registered grid kernel over the tile's non-zeros."""

    name = "build"
    cacheable = True

    def __init__(self, variant: str, options: Mapping[str, object] = ()):
        entry = builder_entry(variant)
        self.variant = variant
        self.token = f"build:{variant}"
        self.version = entry.version
        self._entry = entry
        options = dict(options or {})
        self._options = {
            key: options[key] for key in entry.option_keys if key in options
        }

    def params(self) -> Tuple[Tuple[str, object], ...]:
        return tuple(sorted(self._options.items()))

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        entry = self._entry
        report = None
        if entry.uses_report:
            report = MigrationReport()
        built = entry.fn(state.tile, ir.config, self._options, report)
        if isinstance(built, TileElements):
            state.elements = built
        else:
            # Kernels that place elements one at a time hand back
            # writable grids; every grid leaves the pass as a value.
            for grid in built:
                grid.freeze()
            state.grids = built
        if report is not None:
            state.report = report
            state.migrated = report.migrated
