"""Schedule serialization in the §3.2 wire format.

The offline preprocessing step of a real deployment produces binary HBM
channel images: for every tile and channel, one 64-bit packed element per
slot in stream order, with stalls encoded as all-zero words (the explicit
zeros of §2.2 — the hardware skips a slot whose value is 0.0, which is
why the generators never emit exactly-zero non-zeros).

The container format is::

    header:  magic 'CHSN' | version u16 | channels u16 | pes u16 |
             span u16 | n_rows u64 | n_cols u64 | n_tiles u32 |
             scheme (16 bytes, NUL padded)
    tile:    row_base u64 | col_base u64 | length u32 |
             channels x length x pes x u64 packed elements

Because the wire format carries only the 1-bit ``pvt`` flag, the donor
channel of a migrated element is implicit: it is the next channel in the
ring.  Schedules built with ``migration_span > 1`` therefore cannot be
serialized losslessly and are rejected — the same constraint the §3.2
encoding imposes on the hardware.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from ..config import AcceleratorConfig
from ..errors import FormatError, SchedulingError
from ..formats.element import COL_BITS, PE_SRC_BITS, ROW_BITS
from .base import ChannelGrid, Schedule, TiledSchedule

MAGIC = b"CHSN"
VERSION = 1
_HEADER = struct.Struct("<4sHHHHQQI16s")
_TILE_HEADER = struct.Struct("<QQI")
_STALL_WORD = 0

_COL_SHIFT = 0
_PE_SRC_SHIFT = COL_BITS
_PVT_SHIFT = _PE_SRC_SHIFT + PE_SRC_BITS
_ROW_SHIFT = _PVT_SHIFT + 1
_VALUE_SHIFT = _ROW_SHIFT + ROW_BITS
_ROW_MAX = (1 << ROW_BITS) - 1
_PE_SRC_MAX = (1 << PE_SRC_BITS) - 1
_COL_MAX = (1 << COL_BITS) - 1


def _grid_words(grid: ChannelGrid, length: int, channels: int) -> np.ndarray:
    """Pack one channel grid into its ``(length, pes)`` word image.

    The whole channel packs in one pass of NumPy bit arithmetic —
    ``value_bits << 32 | row << 17 | pvt << 16 | pe_src << 13 | col`` —
    with stalls left as the all-zero word.
    """
    cycles, pes, rows, cols, values, origin_channels, origin_pes = (
        grid.element_arrays()
    )
    in_range = cycles < length
    if not in_range.all():
        cycles = cycles[in_range]
        pes = pes[in_range]
        rows = rows[in_range]
        cols = cols[in_range]
        values = values[in_range]
        origin_channels = origin_channels[in_range]
        origin_pes = origin_pes[in_range]

    pvt = origin_channels == grid.channel_id
    if not pvt.all():
        offsets = (origin_channels[~pvt] - grid.channel_id) % channels
        bad = offsets != 1
        if bad.any():
            raise SchedulingError(
                "the §3.2 wire format encodes only immediate-next-channel "
                f"migration; found an element from {int(offsets[bad][0])} "
                "channels away"
            )
    if rows.size:
        if int(rows.max()) > _ROW_MAX or int(rows.min()) < 0:
            bad_row = rows[(rows > _ROW_MAX) | (rows < 0)][0]
            raise FormatError(
                f"row index {int(bad_row)} does not fit in {ROW_BITS} bits"
            )
        if int(cols.max()) > _COL_MAX or int(cols.min()) < 0:
            bad_col = cols[(cols > _COL_MAX) | (cols < 0)][0]
            raise FormatError(
                f"column index {int(bad_col)} does not fit in "
                f"{COL_BITS} bits"
            )
        if int(origin_pes.max()) > _PE_SRC_MAX or int(origin_pes.min()) < 0:
            bad_pe = origin_pes[
                (origin_pes > _PE_SRC_MAX) | (origin_pes < 0)
            ][0]
            raise FormatError(
                f"PE_src {int(bad_pe)} does not fit in {PE_SRC_BITS} bits"
            )

    value_bits = values.astype(np.float32).view(np.uint32).astype(np.uint64)
    words = (
        (value_bits << np.uint64(_VALUE_SHIFT))
        | (rows.astype(np.uint64) << np.uint64(_ROW_SHIFT))
        | (pvt.astype(np.uint64) << np.uint64(_PVT_SHIFT))
        | (origin_pes.astype(np.uint64) << np.uint64(_PE_SRC_SHIFT))
        | cols.astype(np.uint64)
    )
    zero_words = words == _STALL_WORD
    if zero_words.any() and (values[zero_words] == 0.0).any():
        raise SchedulingError(
            "cannot serialize a zero-valued non-zero: it is "
            "indistinguishable from a stall word (§2.2)"
        )
    image = np.zeros((length, grid.pes), dtype=np.uint64)
    image[cycles, pes] = words
    return image


def serialize_schedule(schedule: TiledSchedule) -> bytes:
    """Encode a schedule as binary HBM channel images."""
    config = schedule.config
    channels = config.sparse_channels
    pes = config.pes_per_channel
    span = getattr(config, "migration_span", 0)
    chunks: List[bytes] = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            channels,
            pes,
            span,
            schedule.n_rows,
            schedule.n_cols,
            len(schedule.tiles),
            schedule.scheme.encode()[:16],
        )
    ]
    for tile in schedule.tiles:
        length = tile.stream_cycles
        chunks.append(_TILE_HEADER.pack(tile.row_base, tile.col_base,
                                        length))
        for grid in tile.grids:
            chunks.append(
                _grid_words(grid, length, channels)
                .astype("<u8")
                .tobytes()
            )
    return b"".join(chunks)


def deserialize_schedule(
    data: bytes, config: AcceleratorConfig
) -> TiledSchedule:
    """Decode binary channel images back into a schedule."""
    if len(data) < _HEADER.size:
        raise FormatError("truncated schedule image: missing header")
    (magic, version, channels, pes, span, n_rows, n_cols, n_tiles,
     scheme_raw) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError("not a Chasoň schedule image")
    if version != VERSION:
        raise FormatError(f"unsupported schedule image version {version}")
    if channels != config.sparse_channels or pes != config.pes_per_channel:
        raise FormatError(
            f"image built for {channels} channels x {pes} PEs, "
            f"configuration has {config.sparse_channels} x "
            f"{config.pes_per_channel}"
        )
    scheme = scheme_raw.rstrip(b"\x00").decode()

    offset = _HEADER.size
    tiles: List[Schedule] = []
    for _ in range(n_tiles):
        if len(data) < offset + _TILE_HEADER.size:
            raise FormatError("truncated schedule image: missing tile")
        row_base, col_base, length = _TILE_HEADER.unpack_from(data, offset)
        offset += _TILE_HEADER.size
        word_count = channels * length * pes
        end = offset + 8 * word_count
        if len(data) < end:
            raise FormatError("truncated schedule image: missing words")
        words = np.frombuffer(
            data, dtype="<u8", count=word_count, offset=offset
        )
        offset = end

        # Every channel image of the tile decodes at once; the flat word
        # index is ``(channel * length + cycle) * pes + pe``.
        flat = np.flatnonzero(words != _STALL_WORD)
        slot_words = words[flat]
        channel_ids, slots = np.divmod(flat, length * pes)
        pe_ids = slots % pes
        values = (
            (slot_words >> np.uint64(_VALUE_SHIFT))
            .astype(np.uint32)
            .view(np.float32)
            .astype(np.float64)
        )
        rows = (
            (slot_words >> np.uint64(_ROW_SHIFT)) & np.uint64(_ROW_MAX)
        ).astype(np.int64)
        pvt = (
            (slot_words >> np.uint64(_PVT_SHIFT)) & np.uint64(1)
        ).astype(bool)
        pe_src = (
            (slot_words >> np.uint64(_PE_SRC_SHIFT)) & np.uint64(_PE_SRC_MAX)
        ).astype(np.int64)
        cols = (slot_words & np.uint64(_COL_MAX)).astype(np.int64)
        origin_channels = np.where(
            pvt, channel_ids, (channel_ids + 1) % channels
        )
        origin_pes = np.where(pvt, pe_ids, pe_src)
        migrated = int((~pvt).sum())
        grids = ChannelGrid.tile_grids(
            channels, pes, channel_ids, slots, rows, cols, values,
            origin_channels, origin_pes, length=length,
        )
        tiles.append(
            Schedule(
                config=config,
                grids=grids,
                scheme=scheme,
                row_base=row_base,
                col_base=col_base,
                migrated_count=migrated,
                migration_span=span,
            )
        )
    if offset != len(data):
        raise FormatError("trailing bytes after the last tile")
    return TiledSchedule(
        config=config,
        tiles=tiles,
        scheme=scheme,
        n_rows=n_rows,
        n_cols=n_cols,
    )
