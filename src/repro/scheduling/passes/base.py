"""The Schedule-IR and the :class:`SchedulePass` contract.

The IR is deliberately thin: scheduling already has a good data
structure — the array-backed :class:`~repro.scheduling.base.ChannelGrid`
— so the IR wraps it with the *typed pass metadata* the manager needs:
which tile a state belongs to, the grids produced so far, and the
migration bookkeeping accumulated along the way.

A pass transforms one :class:`TileState`: it replaces ``grids`` with the
grids it produces and never writes a plane it received (grids are
values, with read-only planes).  Tiles are mutually
independent (a :class:`~repro.scheduling.base.TiledSchedule` concatenates
them), which is what makes per-tile fingerprint chains — and hence
incremental rescheduling — possible: an in-place matrix edit invalidates
only the chains of the tiles it touched.

Every pass declares:

``name``
    The stage it implements (``build``/``migrate``/``compact``/``trim``/
    ``verify``) — also the suffix of its ``schedule.pass.<name>``
    telemetry span.
``token``
    The registry spelling, including the kernel variant
    (``"build:pe_aware"``, ``"migrate:crhcs"``).
``version``
    Algorithm revision, chained into the pass digest so a revised pass
    can never be served a stale cached artifact.
``params()``
    The resolved parameters that determine the pass's output (for the
    digest chain) — *resolved*, so ``migration_span=None`` and the
    config's default span hash identically.
``cacheable``
    Whether the manager snapshots the tile state after this pass runs.
    Only the expensive passes (build, migrate) are worth a snapshot;
    compact/trim/verify are cheap enough to always re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..base import ChannelGrid
from ..stats import MigrationReport
from ..window import Tile


@dataclass
class TileState:
    """Mutable per-tile state threaded through the pass list."""

    tile: Tile
    #: One grid per sparse channel once the build pass has run.
    grids: Optional[List[ChannelGrid]] = None
    #: Elements moved across channels (set by migrate/build passes).
    migrated: int = 0
    #: Per-tile migration bookkeeping (merged into the run's report).
    report: Optional[MigrationReport] = None
    #: Index of the first pass that must run for this tile; passes below
    #: it were restored from the pass-artifact cache.
    resume_from: int = 0


@dataclass
class ScheduleIR:
    """The whole-matrix state a pass list operates over."""

    config: object
    #: Scheme tag stamped into every produced Schedule.
    scheme: str
    tiles: List[TileState] = field(default_factory=list)
    #: Span the schedules were built with (CrHCS family; None otherwise).
    migration_span: Optional[int] = None


class SchedulePass:
    """Base class for passes; subclasses override :meth:`run_tile`."""

    name: str = "pass"
    token: str = "pass"
    version: str = "1"
    cacheable: bool = False

    def params(self) -> Tuple[Tuple[str, object], ...]:
        """Resolved parameters that determine this pass's output."""
        return ()

    def signature(self) -> Tuple[object, ...]:
        """The digest-chain contribution: token + version + parameters."""
        return (self.token, self.version, self.params())

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.params())
        return f"{type(self).__name__}({self.token}{', ' if params else ''}{params})"
