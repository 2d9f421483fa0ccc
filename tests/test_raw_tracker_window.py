"""RAW tracker and matrix tiling."""

import numpy as np
import pytest

from repro.errors import RawHazardError
from repro.matrices import generators
from repro.scheduling.raw_tracker import RawTracker
from repro.scheduling.window import tile_matrix


class TestRawTracker:
    def test_initially_eligible(self):
        tracker = RawTracker(distance=10)
        assert tracker.eligible(0, 42, 0)
        assert tracker.earliest(0, 42) == 0

    def test_commit_blocks_for_distance(self):
        tracker = RawTracker(distance=10)
        tracker.commit(0, 42, 5)
        assert not tracker.eligible(0, 42, 14)
        assert tracker.eligible(0, 42, 15)

    def test_commit_violation_raises(self):
        tracker = RawTracker(distance=4)
        tracker.commit(1, 7, 0)
        with pytest.raises(RawHazardError):
            tracker.commit(1, 7, 3)

    def test_pes_independent(self):
        tracker = RawTracker(distance=4)
        tracker.commit(0, 7, 0)
        assert tracker.eligible(1, 7, 0)

    def test_rows_independent(self):
        tracker = RawTracker(distance=4)
        tracker.commit(0, 7, 0)
        assert tracker.eligible(0, 8, 1)

    def test_rejects_bad_distance(self):
        with pytest.raises(RawHazardError):
            RawTracker(distance=0)

    def test_len_counts_keys(self):
        tracker = RawTracker(distance=2)
        tracker.commit(0, 1, 0)
        tracker.commit(1, 1, 0)
        assert len(tracker) == 2


class TestTiling:
    def test_single_tile_small_matrix(self, small_serpens):
        matrix = generators.uniform_random(100, 60, 300, seed=1)
        tiles = tile_matrix(matrix, small_serpens)
        # 100 rows fit one 256-row window; 60 cols fit one 64-col window.
        assert len(tiles) == 1
        assert tiles[0].nnz == 300

    def test_column_windows(self, small_serpens):
        matrix = generators.uniform_random(100, 200, 600, seed=2)
        tiles = tile_matrix(matrix, small_serpens)
        assert len(tiles) == 4  # ceil(200/64)
        assert sum(t.nnz for t in tiles) == 600
        assert sorted({t.col_base for t in tiles}) == [0, 64, 128, 192]

    def test_row_windows(self, small_serpens):
        matrix = generators.uniform_random(600, 60, 900, seed=3)
        tiles = tile_matrix(matrix, small_serpens)
        assert sorted({t.row_base for t in tiles}) == [0, 256, 512]

    def test_local_coordinates(self, small_serpens):
        matrix = generators.uniform_random(600, 200, 2000, seed=4)
        for tile in tile_matrix(matrix, small_serpens):
            assert tile.rows.size == tile.nnz
            if tile.nnz:
                assert tile.rows.max() < tile.n_rows
                assert tile.cols.max() < tile.n_cols
                assert tile.rows.min() >= 0

    def test_tiles_reassemble_matrix(self, small_serpens):
        matrix = generators.uniform_random(300, 150, 1500, seed=5)
        dense = matrix.to_dense()
        rebuilt = np.zeros_like(dense)
        for tile in tile_matrix(matrix, small_serpens):
            rebuilt[
                tile.row_base + tile.rows, tile.col_base + tile.cols
            ] += tile.values
        np.testing.assert_allclose(rebuilt, dense, rtol=1e-6)

    def test_empty_tiles_skipped(self, small_serpens):
        # Matrix with content only in the top-left corner.
        matrix = generators.uniform_random(50, 50, 100, seed=6)
        from repro.formats.coo import COOMatrix

        padded = COOMatrix((1000, 1000), matrix.rows, matrix.cols,
                           matrix.values)
        tiles = tile_matrix(padded, small_serpens)
        assert all(t.nnz > 0 for t in tiles)

    def test_empty_matrix_gets_one_tile(self, small_serpens):
        from repro.formats.coo import COOMatrix

        tiles = tile_matrix(
            COOMatrix.from_entries((10, 10), []), small_serpens
        )
        assert len(tiles) == 1
        assert tiles[0].nnz == 0

    def test_max_rows_per_pass_override(self, small_serpens):
        matrix = generators.uniform_random(600, 60, 900, seed=3)
        tiles = tile_matrix(matrix, small_serpens, max_rows_per_pass=100)
        assert sorted({t.row_base for t in tiles}) == [
            0, 100, 200, 300, 400, 500
        ]


class TestOneTileMatrix:
    """A matrix that is one tile takes a path with no sort; its tile
    equals the sorted path's, field for field and dtype for dtype."""

    CASES = {
        "empty": ((10, 10), [], []),
        "one-element": ((7, 5), [3], [4]),
        "unsorted": ((64, 64), [9, 2, 60, 2, 9, 0, 33], [4, 63, 0, 5, 4, 0, 9]),
        "window-edge": ((256, 64), [255, 0, 128], [63, 0, 32]),
        "one-row-one-col": ((1, 1), [0, 0], [0, 0]),
    }

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fields_equal_the_sorted_path(self, small_serpens, case, dtype):
        from repro.formats.coo import COOMatrix
        from repro.scheduling.window import _sorted_tiles

        shape, rows, cols = self.CASES[case]
        values = np.linspace(0.5, 1.5, len(rows)).astype(np.float32)
        matrix = COOMatrix(shape, np.array(rows, dtype=dtype),
                           np.array(cols, dtype=dtype), values)
        (tile,) = tile_matrix(matrix, small_serpens)
        (reference,) = _sorted_tiles(
            matrix, small_serpens.row_window, small_serpens.column_window
        )
        for field in ("row_base", "col_base", "n_rows", "n_cols"):
            assert getattr(tile, field) == getattr(reference, field)
        for field in ("rows", "cols", "values"):
            got, want = getattr(tile, field), getattr(reference, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            # Copies: an in-place edit of the matrix leaves the tile.
            assert not np.shares_memory(got, getattr(matrix, field))

    def test_one_row_past_the_window_takes_the_sorted_path(
        self, small_serpens
    ):
        from repro.formats.coo import COOMatrix

        matrix = COOMatrix((257, 64), np.array([256, 0]), np.array([63, 0]),
                           np.array([2.0, 1.0]))
        tiles = tile_matrix(matrix, small_serpens)
        assert [(t.row_base, t.rows.tolist()) for t in tiles] == [
            (0, [0]), (256, [0])
        ]
