"""Schedule serialization in the §3.2 wire format."""

import copy

import numpy as np
import pytest

from repro.errors import FormatError, SchedulingError
from repro.matrices import generators
from repro.scheduling import (
    deserialize_schedule,
    schedule_crhcs,
    schedule_pe_aware,
    serialize_schedule,
)
from repro.sim import execute_schedule


class TestRoundTrip:
    def test_crhcs_roundtrip_stats(self, small_chason, skewed_matrix):
        schedule = schedule_crhcs(skewed_matrix, small_chason)
        data = serialize_schedule(schedule)
        loaded = deserialize_schedule(data, small_chason)
        assert loaded.nnz == schedule.nnz
        assert loaded.stream_cycles == schedule.stream_cycles
        assert loaded.total_stalls == schedule.total_stalls
        assert loaded.migrated_count == schedule.migrated_count
        assert loaded.scheme == schedule.scheme
        assert loaded.n_rows == schedule.n_rows
        loaded.validate()

    def test_roundtrip_preserves_execution(self, small_chason,
                                           skewed_matrix, rng):
        schedule = schedule_crhcs(skewed_matrix, small_chason)
        loaded = deserialize_schedule(serialize_schedule(schedule),
                                      small_chason)
        x = rng.normal(size=skewed_matrix.n_cols).astype(np.float32)
        original = execute_schedule(schedule, x)
        reloaded = execute_schedule(loaded, x)
        # float32 value truncation on the wire: compare loosely.
        assert reloaded.verify(original.y, rtol=1e-5)
        assert reloaded.cycles.total == original.cycles.total

    def test_pe_aware_roundtrip(self, small_serpens, small_matrix):
        schedule = schedule_pe_aware(small_matrix, small_serpens)
        loaded = deserialize_schedule(serialize_schedule(schedule),
                                      small_serpens)
        assert loaded.nnz == schedule.nnz
        assert loaded.migrated_count == 0

    def test_multi_tile_roundtrip(self, small_chason):
        matrix = generators.uniform_random(600, 300, 2500, seed=51)
        schedule = schedule_crhcs(matrix, small_chason)
        assert len(schedule.tiles) > 1
        loaded = deserialize_schedule(serialize_schedule(schedule),
                                      small_chason)
        assert len(loaded.tiles) == len(schedule.tiles)
        for original, reloaded in zip(schedule.tiles, loaded.tiles):
            assert reloaded.row_base == original.row_base
            assert reloaded.col_base == original.col_base
            assert reloaded.nnz == original.nnz


class TestErrors:
    def test_span_two_rejected(self, small_chason, skewed_matrix):
        schedule = schedule_crhcs(skewed_matrix, small_chason,
                                  migration_span=2)
        if schedule.migrated_count == 0:  # pragma: no cover - data dep.
            pytest.skip("no migration happened")
        with pytest.raises(SchedulingError):
            serialize_schedule(schedule)

    def test_zero_from_the_next_channel_is_a_stall_word(
        self, small_chason, skewed_matrix
    ):
        """A 0.0 migrated from the next channel, at row 0, column 0 and
        PE_src 0, packs to the all-zero stall word (§2.2)."""
        schedule = schedule_crhcs(skewed_matrix, small_chason)
        channels = small_chason.sparse_channels
        tile, grid, key, element = next(
            (tile, grid, (cycle, pe), element)
            for tile in schedule.tiles
            for grid in tile.grids
            for cycle, pe, element in grid.iter_elements()
            if element.origin_channel == (grid.channel_id + 1) % channels
        )
        zero = copy.deepcopy(grid)
        zero.occupied[key] = element._replace(
            value=0.0, row=0, col=0, origin_pe=0
        )
        tile.grids[tile.grids.index(grid)] = zero
        with pytest.raises(SchedulingError, match="stall word"):
            serialize_schedule(schedule)

    def test_bad_magic(self, small_chason):
        with pytest.raises(FormatError):
            deserialize_schedule(b"NOPE" + b"\x00" * 64, small_chason)

    def test_truncated_header(self, small_chason):
        with pytest.raises(FormatError):
            deserialize_schedule(b"CH", small_chason)

    def test_truncated_body(self, small_chason, tiny_matrix):
        schedule = schedule_crhcs(tiny_matrix, small_chason)
        data = serialize_schedule(schedule)
        with pytest.raises(FormatError):
            deserialize_schedule(data[:-8], small_chason)

    def test_trailing_garbage(self, small_chason, tiny_matrix):
        schedule = schedule_crhcs(tiny_matrix, small_chason)
        data = serialize_schedule(schedule) + b"\x00" * 8
        with pytest.raises(FormatError):
            deserialize_schedule(data, small_chason)

    def test_config_mismatch(self, small_chason, paper_chason,
                             tiny_matrix):
        schedule = schedule_crhcs(tiny_matrix, small_chason)
        data = serialize_schedule(schedule)
        with pytest.raises(FormatError):
            deserialize_schedule(data, paper_chason)
