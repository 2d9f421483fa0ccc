"""The pass manager: run an ordered pass list, chain per-pass digests.

:class:`PassManager` executes a pass list over every tile of a matrix
and assembles the :class:`~repro.scheduling.base.TiledSchedule`.  Two
execution modes:

**Hot path (no cache).**  When no cache is attached — the default for
every registered scheduler — the manager computes *no* fingerprints and
takes *no* snapshots: the only overhead over the old monolithic
builders is the pass dispatch itself, which keeps the scheduler
hot-path benchmarks honest.

**Cached (fingerprint-chained).**  With a cache attached (the
pipeline's artifact store: anything with ``get(kind, digest)`` and
``put(kind, digest, value)``), each tile carries a digest chain:
``d0 = fingerprint(tile content + config)``, then ``d_i =
fingerprint(d_{i-1}, pass token, pass version, pass params)``.  Before
running, the manager probes the cache at the chain's cacheable depths
(deepest first) and resumes each tile after the deepest hit; after
running a cacheable pass it stores a snapshot (the grids + migration
bookkeeping, held by reference) of kind ``pass`` under that depth's
digest.  Because the chain folds in the upstream digest *and* each
pass's config, a ``MigratePass``-only parameter change reuses the cached
``BuildGridPass`` artifact, and an in-place matrix edit invalidates
exactly the tiles it touched — which is all incremental rescheduling is.
The snapshots are keyed by digest alone, so schemes with a common pass
prefix (CrHCS and PE-aware both start with ``build:pe_aware``) share
them.

Every pass runs under a ``schedule.pass.<name>`` telemetry span
annotated with how many tiles executed versus resumed from cache.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ... import telemetry
from ...errors import ConfigError, SchedulingError
from ..base import ChannelGrid, Schedule, TiledSchedule
from ..stats import MigrationReport
from ..window import tile_matrix
from .base import SchedulePass, ScheduleIR, TileState
from .build import BuildGridPass, builder_variants
from .fingerprint import fingerprint, fingerprint_config, fingerprint_tile
from .migrate import MigratePass, migrator_variants
from .structural import CompactPass, TrimPass, VerifyPass

#: The cache kind of per-tile pass snapshots.
PASS_KIND = "pass"

#: The scheme-independent structural pass names.
_STRUCTURAL = {
    "compact": CompactPass,
    "trim": TrimPass,
    "verify": VerifyPass,
}


# ---------------------------------------------------------------------------
# pass-name resolution (the registry's declarative pass lists)
# ---------------------------------------------------------------------------


def known_pass_names() -> Tuple[str, ...]:
    """Every valid pass spelling, for validation and ``--list-passes``."""
    names = [f"build:{v}" for v in builder_variants()]
    names += [f"migrate:{v}" for v in migrator_variants()]
    names += sorted(_STRUCTURAL)
    return tuple(names)


def validate_pass_name(name: str) -> None:
    """Raise :class:`ConfigError` with a did-you-mean on unknown names."""
    import difflib

    known = known_pass_names()
    if name in known:
        return
    message = (
        f"unknown pass {name!r}; known passes: {', '.join(known)}"
    )
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        message += f" — did you mean {close[0]!r}?"
    raise ConfigError(message)


def resolve_passes(
    names: Sequence[str], options: Mapping[str, object] = ()
) -> List[SchedulePass]:
    """Instantiate a pass list from registry spellings.

    ``options`` holds the scheme's *resolved* keyword arguments
    (``migration_span``, ``steal_tries``, ``split_threshold``, …); each
    pass picks the keys its kernel declared and folds them into its
    digest parameters.
    """
    options = dict(options or {})
    passes: List[SchedulePass] = []
    for name in names:
        if name in _STRUCTURAL:
            passes.append(_STRUCTURAL[name]())
            continue
        validate_pass_name(name)  # raises with a did-you-mean
        kind, _, variant = name.partition(":")
        if kind == "build":
            passes.append(BuildGridPass(variant, options))
        else:  # validated above, so this is ``migrate:<variant>``
            passes.append(MigratePass(variant, options))
    return passes


# ---------------------------------------------------------------------------
# per-tile pass snapshots
# ---------------------------------------------------------------------------


@dataclass
class _TileSnapshot:
    """Cached tile state after one cacheable pass.

    Grids are values, so a snapshot shares their read-only planes: it
    copies only each grid's header, whose ``length`` the compact and trim
    passes change (a copy lays a pending tile out first).  The per-tile
    report is held as it is; nothing writes it after its pass
    (:meth:`PassManager._assemble` merges it into a fresh aggregate).
    """

    grids: List[ChannelGrid]
    migrated: int
    report: Optional[MigrationReport]

    @staticmethod
    def of(state: TileState) -> "_TileSnapshot":
        return _TileSnapshot(
            grids=[copy.copy(g) for g in state.grids or []],
            migrated=state.migrated,
            report=state.report,
        )

    def restore(self, state: TileState) -> None:
        state.grids = [copy.copy(g) for g in self.grids]
        state.migrated = self.migrated
        state.report = self.report


# ---------------------------------------------------------------------------
# run statistics (the incremental-reschedule property tests read these)
# ---------------------------------------------------------------------------


@dataclass
class PassRunStats:
    """Tile-pass execution counts of one :meth:`PassManager.run`."""

    #: (pass token → tiles that executed it this run).
    executed: Dict[str, int] = field(default_factory=dict)
    #: (pass token → tiles resumed past it from the cache).
    skipped: Dict[str, int] = field(default_factory=dict)

    @property
    def executed_total(self) -> int:
        return sum(self.executed.values())

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------


class PassManager:
    """Run an ordered pass list over a matrix's tiles."""

    def __init__(
        self,
        passes: Sequence[SchedulePass],
        scheme: str,
        migration_span: Optional[int] = None,
    ):
        if not passes:
            raise SchedulingError("a pass pipeline needs at least one pass")
        self.passes = list(passes)
        self.scheme = scheme
        self.migration_span = migration_span
        #: Aggregated migration bookkeeping of the last :meth:`run`.
        self.last_report: Optional[MigrationReport] = None

    def run(
        self,
        matrix,
        config,
        max_rows_per_pass: int = 0,
        cache=None,
    ) -> TiledSchedule:
        """Schedule ``matrix`` through the pass list.

        With a ``cache``, tiles resume from its ``pass`` snapshots and
        the run's counts land on ``cache.last_pass_stats`` (the
        schedulers build their managers internally, so that is how a
        caller holding only the cache reads them).
        """
        tiles = tile_matrix(matrix, config, max_rows_per_pass)
        ir = ScheduleIR(
            config=config,
            scheme=self.scheme,
            tiles=[TileState(tile=tile) for tile in tiles],
            migration_span=self.migration_span,
        )
        stats = PassRunStats()

        chains: List[List[str]] = []
        if cache is not None:
            chains = self._resume_from_cache(ir, config, cache)

        t = telemetry.get()
        for index, schedule_pass in enumerate(self.passes):
            ran = 0
            resumed = 0
            with t.span(
                f"schedule.pass.{schedule_pass.name}",
                scheme=self.scheme,
                token=schedule_pass.token,
            ) as span:
                for position, state in enumerate(ir.tiles):
                    if state.resume_from > index:
                        resumed += 1
                        continue
                    schedule_pass.run_tile(state, ir)
                    ran += 1
                    if cache is not None and schedule_pass.cacheable:
                        cache.put(PASS_KIND, chains[position][index],
                                  _TileSnapshot.of(state))
                span.annotate(tiles=ran, resumed=resumed)
            if ran:
                stats.executed[schedule_pass.token] = ran
            if resumed:
                stats.skipped[schedule_pass.token] = resumed

        if cache is not None:
            cache.last_pass_stats = stats
        return self._assemble(ir, matrix)

    def _resume_from_cache(
        self, ir: ScheduleIR, config, cache
    ) -> List[List[str]]:
        """Compute per-tile digest chains and restore the deepest hits."""
        config_fp = fingerprint_config(config)
        chains: List[List[str]] = []
        for state in ir.tiles:
            digest = fingerprint_tile(state.tile, config_fp)
            chain: List[str] = []
            for schedule_pass in self.passes:
                digest = fingerprint(
                    "pass", digest, tail=schedule_pass.encoded_signature()
                )
                chain.append(digest)
            chains.append(chain)
            for index in reversed(range(len(self.passes))):
                if not self.passes[index].cacheable:
                    continue
                snapshot = cache.get(PASS_KIND, chain[index])
                if snapshot is not None:
                    snapshot.restore(state)
                    state.resume_from = index + 1
                    break
        return chains

    def _assemble(self, ir: ScheduleIR, matrix) -> TiledSchedule:
        report = MigrationReport()
        saw_report = False
        schedules: List[Schedule] = []
        for state in ir.tiles:
            if state.grids is None:
                raise SchedulingError(
                    f"{self.scheme}: pass list built no grids "
                    f"(missing a build pass?)"
                )
            if state.report is not None:
                report.merge(state.report)
                saw_report = True
            schedules.append(
                Schedule(
                    config=ir.config,
                    grids=state.grids,
                    scheme=self.scheme,
                    row_base=state.tile.row_base,
                    col_base=state.tile.col_base,
                    migrated_count=state.migrated,
                    migration_span=ir.migration_span,
                )
            )
        self.last_report = report if saw_report else None
        return TiledSchedule(
            config=ir.config,
            tiles=schedules,
            scheme=self.scheme,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
        )
