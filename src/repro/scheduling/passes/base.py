"""The Schedule-IR and the :class:`SchedulePass` contract.

The IR is deliberately thin: scheduling already has good data
structures — the array-backed :class:`~repro.scheduling.base.ChannelGrid`
and a tile's element table,
:class:`~repro.scheduling.base.TileElements` — so the IR wraps them with
the *typed pass metadata* the manager needs: which tile a state belongs
to, the tile's schedule so far, and the migration bookkeeping
accumulated along the way.

A pass transforms one :class:`TileState`: it replaces the tile's grids
or element table with what it produces and never writes a plane it
received (grids are values, with read-only planes).  The state converts
between the two on demand and keeps what it converted, and grids made
from a table are laid out on their first plane read, so a tile is laid
out at most once, and not at all when only lengths and counts are
read.  Tiles are mutually independent (a
:class:`~repro.scheduling.base.TiledSchedule` concatenates them),
which is what makes per-tile fingerprint chains — and hence
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

from ..base import ChannelGrid, TileElements
from ..stats import MigrationReport
from ..window import Tile
from .fingerprint import encode


@dataclass
class TileState:
    """Mutable per-tile state threaded through the pass list.

    The tile's schedule is held as grids, as an element table, or as
    both when one was converted from the other: :attr:`grids` hands a
    table on as grids laid out on their first plane read
    (:meth:`~repro.scheduling.base.TileElements.grids`; compact, trim,
    verify and the assembled schedule read only lengths and counts, a
    snapshot's copies read planes), :attr:`elements` reads grids into a
    table on first read (migration), and either conversion is kept.
    Assigning one drops the other.
    """

    tile: Tile
    #: Elements moved across channels (set by migrate/build passes).
    migrated: int = 0
    #: Per-tile migration bookkeeping (merged into the run's report).
    report: Optional[MigrationReport] = None
    #: Index of the first pass that must run for this tile; passes below
    #: it were restored from the pass-artifact cache.
    resume_from: int = 0
    _grids: Optional[List[ChannelGrid]] = field(default=None, repr=False)
    _elements: Optional[TileElements] = field(default=None, repr=False)

    @property
    def grids(self) -> Optional[List[ChannelGrid]]:
        """One grid per sparse channel once a build pass has run."""
        if self._grids is None and self._elements is not None:
            self._grids = self._elements.grids()
        return self._grids

    @grids.setter
    def grids(self, grids: Optional[List[ChannelGrid]]) -> None:
        self._grids = grids
        self._elements = None

    @property
    def elements(self) -> Optional[TileElements]:
        """The tile's element table once a build pass has run."""
        if self._elements is None and self._grids is not None:
            self._elements = TileElements.of_grids(self._grids)
        return self._elements

    @elements.setter
    def elements(self, elements: Optional[TileElements]) -> None:
        self._elements = elements
        self._grids = None


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

    def encoded_signature(self) -> bytes:
        """:meth:`signature`, encoded once per pass (a pass's parameters
        are fixed when it is made), so each step of a tile's digest
        chain is ``fingerprint("pass", upstream, tail=encoded)``."""
        encoded = self.__dict__.get("_encoded_signature")
        if encoded is None:
            encoded = self._encoded_signature = encode(self.signature())
        return encoded

    def run_tile(self, state: TileState, ir: ScheduleIR) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.params())
        return f"{type(self).__name__}({self.token}{', ' if params else ''}{params})"
