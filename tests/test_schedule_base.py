"""ChannelGrid / Schedule data structures and their invariants."""

import copy

import pytest

from repro.errors import RawHazardError, SchedulingError
from repro.matrices.generators import uniform_random
from repro.scheduling.base import (
    ChannelGrid,
    Schedule,
    ScheduledElement,
    pe_for_row,
)
from repro.scheduling.crhcs import migrate_grids
from repro.scheduling.legacy import legacy_migrate_grids
from repro.scheduling.pe_aware import pe_aware_grids
from repro.scheduling.window import tile_matrix


def element(row, channel=0, pe=0, value=1.0, col=0):
    return ScheduledElement(row, col, value, channel, pe)


class TestPeForRow:
    def test_eq1_mapping(self, small_serpens):
        # 4 channels x 4 PEs: row 0 → (0,0), row 5 → (1,1), row 17 → (0,1).
        assert pe_for_row(0, small_serpens) == (0, 0)
        assert pe_for_row(5, small_serpens) == (1, 1)
        assert pe_for_row(17, small_serpens) == (0, 1)

    def test_paper_config_mapping(self, paper_serpens):
        # 128 PEs: row 130 → global PE 2 → channel 0, PE 2.
        assert pe_for_row(130, paper_serpens) == (0, 2)
        assert pe_for_row(127, paper_serpens) == (15, 7)


class TestChannelGrid:
    def test_place_and_slot(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.place(2, 1, element(0))
        assert grid.length == 3
        assert grid.slot(2, 1).row == 0
        assert grid.slot(0, 0) is None

    def test_double_place_rejected(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.place(0, 0, element(0))
        with pytest.raises(SchedulingError):
            grid.place(0, 0, element(4))

    def test_place_bounds(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        with pytest.raises(SchedulingError):
            grid.place(0, 4, element(0))
        with pytest.raises(SchedulingError):
            grid.place(-1, 0, element(0))

    def test_take_removes(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.place(1, 2, element(0))
        taken = grid.take(1, 2)
        assert taken.row == 0
        assert grid.slot(1, 2) is None
        with pytest.raises(SchedulingError):
            grid.take(1, 2)

    def test_stall_count(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.ensure_length(3)
        grid.place(0, 0, element(0))
        assert grid.stall_count == 11
        assert grid.element_count == 1

    def test_trim_trailing_stalls(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.place(1, 0, element(0))
        grid.ensure_length(10)
        grid.trim_trailing_stalls()
        assert grid.length == 2

    def test_trim_empty_grid(self):
        grid = ChannelGrid(channel_id=0, pes=4)
        grid.ensure_length(5)
        grid.trim_trailing_stalls()
        assert grid.length == 0

    def test_holes_in_stream_order(self):
        grid = ChannelGrid(channel_id=0, pes=2)
        grid.ensure_length(2)
        grid.place(0, 1, element(0, pe=1))
        assert list(grid.holes()) == [(0, 0), (1, 0), (1, 1)]

    def test_iter_elements_sorted(self):
        grid = ChannelGrid(channel_id=0, pes=2)
        grid.place(1, 0, element(2))
        grid.place(0, 1, element(1, pe=1))
        order = [(c, p) for c, p, _ in grid.iter_elements()]
        assert order == [(0, 1), (1, 0)]

    def test_own_elements_tail_first(self):
        grid = ChannelGrid(channel_id=3, pes=2)
        grid.place(0, 0, element(3, channel=3))
        grid.place(2, 1, element(11, channel=3, pe=1))
        grid.place(1, 0, element(7, channel=2))  # migrated in: excluded
        own = grid.own_elements_tail_first()
        assert [(c, p) for c, p, _ in own] == [(2, 1), (0, 0)]

    def test_cycle_slots(self):
        grid = ChannelGrid(channel_id=0, pes=3)
        grid.place(0, 2, element(0, pe=2))
        slots = grid.cycle_slots(0)
        assert slots[0] is None and slots[2].row == 0


def _element_arrays(grid):
    return [array.tolist() for array in grid.element_arrays()]


class TestTileGrids:
    """Grids built by :meth:`ChannelGrid.tile_grids` share one read-only
    buffer per field, each through its own disjoint views."""

    @pytest.fixture
    def tile(self, paper_chason):
        matrix = uniform_random(128, 128, 1_800, seed=3)
        return tile_matrix(matrix, paper_chason)[0]

    def test_writes_to_one_grid_leave_the_others_unchanged(
        self, tile, paper_chason
    ):
        grids = pe_aware_grids(tile, paper_chason)
        assert grids[0]._row.base is grids[-1]._row.base  # one buffer
        before = [_element_arrays(g) for g in grids]

        def check_untouched(*changed):
            for index, grid in enumerate(grids):
                if index not in changed:
                    assert _element_arrays(grid) == before[index], index
            for index in changed:
                before[index] = _element_arrays(grids[index])

        # A tile-built grid is a value: writes into its planes raise.
        pes = grids[0].pes
        frozen = grids[1]
        cycle, pe, kept = next(frozen.iter_elements())
        hole = next(
            p for p in range(pes) if frozen.slot(frozen.capacity - 1, p)
            is None
        )
        with pytest.raises(ValueError):
            frozen.set_slot(frozen.capacity - 1, hole, element(7, channel=1))
        with pytest.raises(ValueError):
            frozen.clear_slot(cycle, pe)
        with pytest.raises(ValueError):
            frozen.occupied[(cycle, pe)] = kept._replace(value=2.0)
        assert frozen.element_count == len(before[1][0])
        check_untouched()

        # The aliasing checks run on the same views made writable.
        for grid in grids:
            for plane in (grid._value, grid._row, grid._col,
                          grid._origin_channel, grid._origin_pe):
                plane.base.flags.writeable = True
                plane.flags.writeable = True

        # Clear and rewrite every slot of the first and last rows of
        # grid 2, then of the last row of grid 0, the row that borders
        # grid 1 in the buffer.
        for index, cycles in ((2, (0, grids[2].capacity - 1)),
                              (0, (grids[0].capacity - 1,))):
            target = grids[index]
            for cycle in cycles:
                for pe in range(pes):
                    kept = target.slot(cycle, pe)
                    if kept is not None:
                        target.clear_slot(cycle, pe)
                        check_untouched(index)
                    target.set_slot(
                        cycle, pe, element(7, channel=index, pe=pe)
                    )
                    check_untouched(index)
                    if kept is not None:
                        target.set_slot(cycle, pe, kept)
                        check_untouched(index)

        # Growth reallocates grid 3's own planes, keeping its elements.
        grown = grids[3]
        old_capacity = grown.capacity
        grown.reserve(old_capacity + 5)
        assert grown.capacity > old_capacity
        assert grown._row.base is not grids[0]._row.base
        check_untouched()
        grown.set_slot(old_capacity + 2, 0, element(9, channel=3))
        check_untouched(3)

    def test_migrated_grids_keep_only_live_rows(self, tile, paper_chason):
        built = pe_aware_grids(tile, paper_chason)
        reference = copy.deepcopy(built)
        legacy_migrate_grids(reference, paper_chason, 1)
        grids = migrate_grids(built, paper_chason, 1)
        for start, grid, expected in zip(built, grids, reference):
            assert start.capacity > grid.length  # pre-migration storage
            assert grid.capacity == grid.length == expected.length
            cycles = grid.element_arrays()[0]
            assert grid.length == (int(cycles[-1]) + 1 if cycles.size else 0)
            assert grid.element_count == expected.element_count
            assert _element_arrays(grid) == _element_arrays(expected)
            assert not grid._row.flags.writeable
            trimmed = copy.copy(grid)
            trimmed.trim_trailing_stalls()
            assert trimmed.length == grid.length


class TestScheduleInvariants:
    def _schedule(self, config, grids):
        return Schedule(config=config, grids=grids, scheme="test")

    def _grids(self, config):
        return [
            ChannelGrid(channel_id=c, pes=config.pes_per_channel)
            for c in range(config.sparse_channels)
        ]

    def test_wrong_grid_count(self, small_serpens):
        with pytest.raises(SchedulingError):
            Schedule(config=small_serpens, grids=[], scheme="test")

    def test_equalise_and_underutilization(self, small_serpens):
        grids = self._grids(small_serpens)
        grids[0].place(0, 0, element(0))
        grids[1].place(4, 1, element(5, channel=1, pe=1))
        schedule = self._schedule(small_serpens, grids)
        schedule.equalise()
        assert schedule.stream_cycles == 5
        assert all(len(g) == 5 for g in schedule.grids)
        # Eq. 4: 2 nnz in 5*4*4 slots.
        assert schedule.total_stalls == 78
        assert schedule.underutilization == pytest.approx(78 / 80)

    def test_empty_schedule(self, small_serpens):
        schedule = self._schedule(small_serpens, self._grids(small_serpens))
        assert schedule.underutilization == 0.0
        assert schedule.traffic_bytes == 0

    def test_validate_accepts_private_in_home_lane(self, small_serpens):
        grids = self._grids(small_serpens)
        grids[1].place(0, 1, element(5, channel=1, pe=1))
        self._schedule(small_serpens, grids).validate()

    def test_validate_rejects_wrong_lane(self, small_serpens):
        grids = self._grids(small_serpens)
        grids[1].place(0, 3, element(5, channel=1, pe=1))
        with pytest.raises(SchedulingError):
            self._schedule(small_serpens, grids).validate()

    def test_validate_rejects_migration_without_span(self, small_serpens):
        # SerpensConfig has no migration span: any foreign element fails.
        grids = self._grids(small_serpens)
        grids[0].place(0, 0, element(5, channel=1, pe=1))
        with pytest.raises(SchedulingError):
            self._schedule(small_serpens, grids).validate()

    def test_validate_accepts_migration_within_span(self, small_chason):
        grids = self._grids(small_chason)
        grids[0].place(0, 0, element(5, channel=1, pe=1))
        self._schedule(small_chason, grids).validate()

    def test_validate_rejects_migration_beyond_span(self, small_chason):
        grids = self._grids(small_chason)
        grids[0].place(0, 0, element(10, channel=2, pe=2))
        with pytest.raises(SchedulingError):
            self._schedule(small_chason, grids).validate()

    def test_validate_raw_distance(self, small_chason):
        grids = self._grids(small_chason)
        # Same migrated row twice in the same PE, 2 < distance 4 apart.
        grids[0].place(0, 0, element(5, channel=1, pe=1))
        grids[0].place(2, 0, element(5, channel=1, pe=1))
        with pytest.raises(RawHazardError):
            self._schedule(small_chason, grids).validate()

    def test_validate_allows_same_row_other_pe(self, small_chason):
        grids = self._grids(small_chason)
        grids[0].place(0, 0, element(5, channel=1, pe=1))
        grids[0].place(1, 1, element(5, channel=1, pe=1))
        self._schedule(small_chason, grids).validate()

    def test_channel_stalls(self, small_serpens):
        grids = self._grids(small_serpens)
        grids[0].place(0, 0, element(0))
        schedule = self._schedule(small_serpens, grids)
        schedule.equalise()
        stalls = schedule.channel_stalls()
        assert stalls[0] == 3
        assert stalls[1] == 4
