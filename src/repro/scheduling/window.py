"""Matrix tiling into (row window × column window) passes (§4.1, §4.5).

The packed element's 13-bit column index limits one pass to W = 8192
columns of the dense vector x, and the 15-bit row index (plus URAM
capacity, §4.5) limits the rows whose partial sums fit on chip.  Larger
matrices are partitioned and fed to the accelerator tile by tile; tiles
stream back-to-back.

Tiles are ordered column-window-major within a row window: the partial
sums of a row window stay resident in URAM while every column window of x
streams past, which is the processing order of Serpens that Chasoň keeps
(§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from ..config import AcceleratorConfig
from ..errors import ShapeError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix

Matrix = Union[COOMatrix, CSRMatrix]


@dataclass(frozen=True)
class Tile:
    """Non-zeros of one (row window, column window) block, local coords."""

    row_base: int
    col_base: int
    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.size)


def tile_matrix(
    matrix: Matrix,
    config: AcceleratorConfig,
    max_rows_per_pass: int = 0,
) -> List[Tile]:
    """Split ``matrix`` into schedule-sized tiles.

    ``max_rows_per_pass`` overrides the row window (used to model the URAM
    capacity limit of §4.5); 0 means use ``config.row_window``.
    """
    coo = to_coo(matrix)
    row_window = max_rows_per_pass or config.row_window
    col_window = config.column_window
    if row_window <= 0 or col_window <= 0:
        raise ShapeError("window sizes must be positive")

    n_row_tiles = -(-coo.n_rows // row_window)
    n_col_tiles = -(-coo.n_cols // col_window)
    if n_row_tiles == n_col_tiles == 1:
        # One tile holds every element in input order: no key to sort.
        return [Tile(
            row_base=0,
            col_base=0,
            n_rows=coo.n_rows,
            n_cols=coo.n_cols,
            rows=coo.rows.copy(),
            cols=coo.cols.copy(),
            values=coo.values.copy(),
        )]
    return _sorted_tiles(coo, row_window, col_window)


def _sorted_tiles(
    coo: COOMatrix, row_window: int, col_window: int
) -> List[Tile]:
    """:func:`tile_matrix` for any number of tiles: one stable sort by
    tile key puts each tile's elements together in input order."""
    n_row_tiles = -(-coo.n_rows // row_window)
    n_col_tiles = -(-coo.n_cols // col_window)
    row_tile = coo.rows // row_window
    col_tile = coo.cols // col_window
    tile_key = row_tile * n_col_tiles + col_tile
    order = np.argsort(tile_key, kind="stable")
    sorted_key = tile_key[order]
    boundaries = np.searchsorted(
        sorted_key, np.arange(n_row_tiles * n_col_tiles + 1)
    )

    tiles: List[Tile] = []
    for rt in range(n_row_tiles):
        row_base = rt * row_window
        tile_rows = min(row_window, coo.n_rows - row_base)
        for ct in range(n_col_tiles):
            col_base = ct * col_window
            tile_cols = min(col_window, coo.n_cols - col_base)
            key = rt * n_col_tiles + ct
            lo, hi = boundaries[key], boundaries[key + 1]
            if lo == hi and (n_row_tiles * n_col_tiles) > 1:
                # Empty tiles stream nothing; skip them entirely unless the
                # whole matrix is empty (keep one tile so downstream code
                # has a well-defined shape).
                continue
            idx = order[lo:hi]
            tiles.append(
                Tile(
                    row_base=row_base,
                    col_base=col_base,
                    n_rows=tile_rows,
                    n_cols=tile_cols,
                    rows=coo.rows[idx] - row_base,
                    cols=coo.cols[idx] - col_base,
                    values=coo.values[idx],
                )
            )
    if not tiles:
        tiles.append(
            Tile(
                row_base=0,
                col_base=0,
                n_rows=min(row_window, coo.n_rows),
                n_cols=min(col_window, coo.n_cols),
                rows=np.empty(0, dtype=np.int64),
                cols=np.empty(0, dtype=np.int64),
                values=np.empty(0, dtype=np.float32),
            )
        )
    return tiles
