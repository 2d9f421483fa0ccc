"""Deep-dive tests of the CrHCS migration machinery."""

import numpy as np
import pytest

from repro.config import ChasonConfig, HBMConfig
from repro.errors import SchedulingError
from repro.formats.coo import COOMatrix
from repro.matrices.generators import uniform_random
from repro.scheduling.base import ChannelGrid, ScheduledElement
from repro.scheduling.crhcs import (
    MigrationReport,
    migrate_grids,
    schedule_crhcs,
)
from repro.scheduling.passes import PassManager, resolve_passes
from repro.scheduling.pe_aware import pe_aware_grids
from repro.scheduling.window import tile_matrix

CFG = ChasonConfig(
    sparse_channels=3,
    pes_per_channel=2,
    accumulator_latency=3,
    column_window=32,
    row_window=64,
    scug_size=2,
    hbm=HBMConfig(total_channels=8),
)


def element(row, channel, pe, value=1.0):
    return ScheduledElement(row, 0, value, channel, pe)


def empty_grids():
    return [
        ChannelGrid(channel_id=c, pes=CFG.pes_per_channel)
        for c in range(CFG.sparse_channels)
    ]


class TestMigrateGrids:
    def test_fills_earliest_stall_first(self):
        grids = empty_grids()
        # Destination channel 0: 3 cycles, PE 0 empty everywhere.
        grids[0].ensure_length(3)
        # Donor channel 1 has one own element (row 2 → ch1, pe0).
        grids[1].place(0, 0, element(2, 1, 0))
        grids = migrate_grids(grids, CFG, migration_span=1)
        assert grids[0].slot(0, 0) is not None
        assert grids[0].slot(0, 0).origin_channel == 1
        # Donor grid shrank to nothing.
        assert grids[1].length == 0

    def test_takes_donor_tail_first(self):
        grids = empty_grids()
        grids[0].ensure_length(1)  # exactly one stall per PE lane
        # Donor has two own elements of different rows at cycles 0 and 5.
        grids[1].place(0, 0, element(2, 1, 0, value=10.0))
        grids[1].place(5, 0, element(8, 1, 0, value=99.0))
        grids = migrate_grids(grids, CFG, migration_span=1)
        taken = [
            grids[0].slot(0, pe)
            for pe in range(CFG.pes_per_channel)
            if grids[0].slot(0, pe) is not None
        ]
        values = {e.value for e in taken}
        # The latest element (value 99) must have been donated first.
        assert 99.0 in values
        # Donor trimmed: the remaining early element bounds its length.
        assert grids[1].length <= 1

    def test_raw_skip_retries_later_stall(self):
        grids = empty_grids()
        grids[0].ensure_length(6)
        # Donor: three elements of the SAME row on the same donor PE —
        # in the destination PE they must spread D=3 apart.
        for cycle in (0, 3, 6):
            grids[1].place(cycle, 0, element(4, 1, 0))
        report = MigrationReport()
        grids = migrate_grids(grids, CFG, migration_span=1, report=report)
        placements = sorted(
            (cycle, pe)
            for (cycle, pe), e in grids[0].occupied.items()
        )
        # PE 1 takes the second copy at once; PE 0 waits out D = 3.
        assert placements == [(0, 0), (0, 1), (3, 0)]
        by_pe = {}
        for cycle, pe in placements:
            by_pe.setdefault(pe, []).append(cycle)
        for cycles in by_pe.values():
            assert all(b - a >= 3 for a, b in zip(cycles, cycles[1:]))
        assert report.migrated == 3

    def test_same_row_may_go_to_two_pes_same_cycle(self):
        grids = empty_grids()
        grids[0].ensure_length(1)
        grids[1].place(0, 0, element(4, 1, 0))
        grids[1].place(1, 0, element(4, 1, 0, value=2.0))
        grids = migrate_grids(grids, CFG, migration_span=1)
        occupied = list(grids[0].occupied)
        # Both copies placed in cycle 0, different PEs (different ScUGs).
        assert sorted(occupied) == [(0, 0), (0, 1)]

    def test_migrated_elements_not_redonated(self):
        grids = empty_grids()
        # ch2 donates to ch1; later ch0 donates to ch2 — but what ch1
        # received must never migrate again.
        grids[1].ensure_length(1)
        grids[2].place(0, 0, element(5, 2, 0))
        grids = migrate_grids(grids, CFG, migration_span=1)
        # Element of channel 2 now lives in channel 1.
        assert any(
            e.origin_channel == 2
            for e in grids[1].occupied.values()
        )
        # Channel 0 (which takes from channel 1) got nothing: channel 1
        # has no OWN elements.
        assert grids[0].element_count == 0

    def test_empty_donor_gives_nothing_but_ring_closes(self):
        grids = empty_grids()
        grids[0].place(0, 0, element(0, 0, 0))
        grids[0].ensure_length(4)
        grids = migrate_grids(grids, CFG, migration_span=1)
        # Channel 0's donor (channel 1) is empty, so channel 0 receives
        # nothing — but the ring's last step (Fig. 5d) lets channel 2
        # take channel 0's own element, leaving a stall behind.
        total = sum(grid.element_count for grid in grids)
        assert total == 1
        assert grids[2].element_count == 1
        assert grids[1].element_count == 0

    def test_span_zero_only_trims(self):
        grids = empty_grids()
        grids[0].place(0, 0, element(0, 0, 0))
        grids[0].ensure_length(9)
        grids = migrate_grids(grids, CFG, migration_span=0)
        assert grids[0].length == 1

    @pytest.mark.parametrize("span", [3, 4, -1])
    def test_span_outside_the_ring_raises(self, span):
        """A span of ``channels`` or more makes a channel its own donor
        (every element would be reported migrated); a negative one
        would migrate nothing.  ``migrate_elements`` refuses either."""
        grids = empty_grids()
        grids[1].place(0, 0, element(2, 1, 0))
        with pytest.raises(SchedulingError, match="migration span"):
            migrate_grids(grids, CFG, migration_span=span)

    def test_hand_built_migrate_pass_checks_its_span(self):
        options = {"migration_span": CFG.sparse_channels, "steal_tries": 8}
        manager = PassManager(
            resolve_passes(
                ("build:pe_aware", "migrate:crhcs", "compact", "trim",
                 "verify"),
                options,
            ),
            scheme="crhcs",
            migration_span=CFG.sparse_channels,
        )
        with pytest.raises(SchedulingError, match="migration span"):
            manager.run(uniform_random(40, 20, 60, seed=1), CFG)

    def test_report_pair_counts(self):
        grids = empty_grids()
        grids[0].ensure_length(2)
        grids[1].place(0, 0, element(4, 1, 0))
        grids[1].place(0, 1, element(5, 1, 1))
        report = MigrationReport()
        migrate_grids(grids, CFG, migration_span=1, report=report)
        assert report.pair_counts.get((0, 1)) == 2
        assert report.migrated == 2


class TestRebuildInternals:
    def test_jump_over_raw_gap(self):
        # One channel, one row with 4 elements, distance 3: the rebuild
        # loop must jump over the cooldown gaps instead of sweeping.
        cfg = ChasonConfig(
            sparse_channels=2, pes_per_channel=2, accumulator_latency=3,
            column_window=32, row_window=64, scug_size=2,
            hbm=HBMConfig(total_channels=8),
        )
        matrix = COOMatrix.from_entries(
            (4, 8), [(0, c, 1.0) for c in range(4)]
        )
        schedule = schedule_crhcs(matrix, cfg, mode="rebuild")
        schedule.validate()
        assert schedule.nnz == 4
        # Row 0's home PE is (0,0); with a donor-side spread the chain
        # finishes within 2*distance + slack.
        assert schedule.stream_cycles <= 3 * 3 + 1

    def test_rebuild_report(self):
        matrix = COOMatrix.from_entries(
            (6, 8), [(1, c, 1.0) for c in range(6)] + [(0, 0, 1.0)]
        )
        report = MigrationReport()
        schedule = schedule_crhcs(matrix, CFG, mode="rebuild",
                                  report=report)
        assert report.own_issues + report.migrated == matrix.nnz
        assert schedule.migrated_count == report.migrated


class TestEndToEndMigrationSemantics:
    def test_hot_channel_drains_into_neighbour(self):
        # All work on channel 1's rows; channel 0 idle → after CrHCS the
        # total cycle count is roughly halved.
        rows = [1, 3]  # global PEs 1, 3 → channel 0 PEs... (2 PEs/ch)
        # With 3 channels x 2 PEs: row r → global pe r%6.
        # Rows 2,3 → channel 1. Load them heavily.
        entries = []
        for row in (2, 3):
            for col in range(16):
                entries.append((row, col, 1.0))
        matrix = COOMatrix.from_entries((6, 32), entries)
        pe_aware_cycles = None
        tiles = tile_matrix(matrix, CFG)
        grids = pe_aware_grids(tiles[0], CFG)
        pe_aware_cycles = max(len(g) for g in grids)
        schedule = schedule_crhcs(matrix, CFG)
        schedule.validate()
        assert schedule.stream_cycles < pe_aware_cycles
        assert schedule.migrated_count > 0

    def test_functional_after_heavy_migration(self, rng):
        matrix = COOMatrix.from_entries(
            (6, 32),
            [(2, c, float(c + 1)) for c in range(16)]
            + [(3, c, 2.0) for c in range(10)],
        )
        from repro.sim import execute_schedule

        schedule = schedule_crhcs(matrix, CFG)
        x = rng.normal(size=32).astype(np.float32)
        execution = execute_schedule(schedule, x)
        assert execution.verify(matrix.matvec(x))
        assert execution.stats["shared_fraction"] > 0


class TestMigrationReportMerge:
    def test_merge_disjoint_pairs(self):
        left = MigrationReport(migrated=3, own_issues=10, raw_skips=1)
        left.pair_counts[(0, 1)] = 3
        right = MigrationReport(migrated=5, own_issues=20, raw_skips=2)
        right.pair_counts[(1, 2)] = 5
        left.merge(right)
        assert left.migrated == 8
        assert left.own_issues == 30
        assert left.raw_skips == 3
        assert dict(left.pair_counts) == {(0, 1): 3, (1, 2): 5}

    def test_merge_overlapping_pairs_accumulates(self):
        left = MigrationReport(migrated=4)
        left.pair_counts[(0, 1)] = 3
        left.pair_counts[(2, 0)] = 1
        right = MigrationReport(migrated=7)
        right.pair_counts[(0, 1)] = 2
        right.pair_counts[(1, 2)] = 5
        left.merge(right)
        assert left.migrated == 11
        assert dict(left.pair_counts) == {(0, 1): 5, (2, 0): 1, (1, 2): 5}

    def test_merge_empty_is_identity(self):
        report = MigrationReport(migrated=2, own_issues=5, raw_skips=1)
        report.pair_counts[(0, 1)] = 2
        before = (
            report.migrated,
            report.own_issues,
            report.raw_skips,
            dict(report.pair_counts),
        )
        report.merge(MigrationReport())
        assert (
            report.migrated,
            report.own_issues,
            report.raw_skips,
            dict(report.pair_counts),
        ) == before

    def test_record_migration_feeds_counter(self):
        report = MigrationReport()
        report.record_migration(0, 1)
        report.record_migration(0, 1)
        report.record_migration(2, 0)
        assert report.migrated == 3
        assert report.pair_counts.most_common(1) == [((0, 1), 2)]
