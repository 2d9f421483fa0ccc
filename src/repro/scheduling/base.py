"""Schedule data structures shared by every scheduling scheme.

A *schedule* is what the offline preprocessing step produces and what the
HBM channels stream at runtime: per channel, a grid of slots — one row of
eight slots per cycle, the k-th slot feeding PE k of that channel's PEG
(§3.2).  Empty slots are the explicit zeros / pseudo-stalls of §2.2.

Grids are **array-backed**: per channel, dense NumPy arrays of shape
``(capacity, pes)`` hold ``value``/``row``/``col``/``origin_channel``/
``origin_pe``, with :data:`STALL_SENTINEL` (``-1``) in ``origin_channel``
marking a stall slot.  The dense layout is what lets the schedulers, the
stats, the serializer and the simulator operate with vectorized NumPy
arithmetic instead of per-slot dict probes; stall-only padding beyond the
occupied prefix costs nothing because ``length`` can exceed the allocated
``capacity`` (the §3.1 resize of an empty channel never materialises
storage).  A dict-style compatibility view (:attr:`ChannelGrid.occupied`)
plus ``slot()``/``iter_elements()``/``holes()`` keep pre-array callers and
tests working unchanged.

Like the §3.2 channel data lists the device only streams, a grid the
schedulers hand on is a value: its planes are read-only, and a pass that
moves elements returns new grids instead of editing them.  Between the
PE-aware build and the CrHCS migration a tile travels as its element
table (:class:`TileElements`).  A tile's grids can also be handed on as
headers (list length, element count, last occupied cycle) whose planes
are laid out on first read (:meth:`ChannelGrid.pending_tile`): the
figures of merit (Eq. 4, stream cycles, 512-bit words) read only
lengths and counts, so a schedule that nothing streams or replays fills
no plane.
"""

from __future__ import annotations

import threading
from collections.abc import MutableMapping
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .. import telemetry
from ..config import AcceleratorConfig
from ..errors import RawHazardError, SchedulingError

#: ``origin_channel`` value marking an empty (stall) slot in the arrays.
STALL_SENTINEL = -1

#: Smallest non-zero cycle capacity a grid allocates.
_MIN_CAPACITY = 8

#: ``(dtype, stall fill)`` of each plane, in ``(value, row, col,
#: origin_channel, origin_pe)`` order.
_PLANES = (
    (np.float64, 0.0),
    (np.int64, STALL_SENTINEL),
    (np.int64, STALL_SENTINEL),
    (np.int64, STALL_SENTINEL),
    (np.int64, STALL_SENTINEL),
)

#: The slots that hold the planes; a grid of a pending tile leaves them
#: unset until its first plane read (:meth:`ChannelGrid.__getattr__`).
_PLANE_SLOTS = frozenset(
    ("_value", "_row", "_col", "_origin_channel", "_origin_pe")
)


class ScheduledElement(NamedTuple):
    """One scheduled non-zero.

    ``row``/``col`` are tile-local coordinates (the windowing layer adds the
    tile bases back).  ``origin_channel``/``origin_pe`` record where Eq. 1
    originally mapped the element; when a CrHCS migration places the element
    in a different channel these become the ``(pvt=0, PE_src)`` metadata of
    §3.2.
    """

    row: int
    col: int
    value: float
    origin_channel: int
    origin_pe: int


def pe_for_row(row: int, config: AcceleratorConfig) -> Tuple[int, int]:
    """Eq. 1/2: map a (tile-local) row to its home (channel, local PE)."""
    pe_global = row % config.total_pes
    return (
        pe_global // config.pes_per_channel,
        pe_global % config.pes_per_channel,
    )


class _OccupiedView(MutableMapping):
    """Dict-compatible live view of a grid's occupied slots.

    Keys are ``(cycle, pe)`` tuples, values :class:`ScheduledElement`;
    reads and writes go straight to the grid's backing arrays.  Iteration
    is in stream order (cycle-major), which is a superset of what the old
    dict guaranteed.
    """

    __slots__ = ("_grid",)

    def __init__(self, grid: "ChannelGrid"):
        self._grid = grid

    def __getitem__(self, key: Tuple[int, int]) -> ScheduledElement:
        element = self._grid.slot(key[0], key[1])
        if element is None:
            raise KeyError(key)
        return element

    def get(self, key, default=None):
        element = self._grid.slot(key[0], key[1])
        return default if element is None else element

    def __setitem__(self, key: Tuple[int, int], element: ScheduledElement):
        self._grid.set_slot(key[0], key[1], element)

    def __delitem__(self, key: Tuple[int, int]) -> None:
        cycle, pe = key
        if self._grid.slot(cycle, pe) is None:
            raise KeyError(key)
        self._grid.clear_slot(cycle, pe)

    def __contains__(self, key) -> bool:
        return self._grid.slot(key[0], key[1]) is not None

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        cycles, pes = self._grid.element_arrays()[:2]
        for cycle, pe in zip(cycles.tolist(), pes.tolist()):
            yield (cycle, pe)

    def __len__(self) -> int:
        return self._grid.element_count

    def items(self):
        return [
            ((cycle, pe), element)
            for cycle, pe, element in self._grid.iter_elements()
        ]

    def values(self):
        return [e for _, _, e in self._grid.iter_elements()]

    def keys(self):
        return list(self)


class _PendingLayout:
    """One tile's layout, run on the first plane read of any of its grids.

    ``lay_out()`` returns the tile's grids (:meth:`ChannelGrid.tile_grids`).
    It runs once, under a lock, so threads reading planes of one pending
    tile at once all get the same planes; it is then dropped with
    everything it holds.
    """

    __slots__ = ("_lay_out", "_planes", "_lock")

    def __init__(self, lay_out: Callable[[], List["ChannelGrid"]]):
        self._lay_out = lay_out
        self._planes: Optional[List[Tuple[np.ndarray, ...]]] = None
        self._lock = threading.Lock()

    def planes(self, channel: int) -> Tuple[np.ndarray, ...]:
        with self._lock:
            if self._planes is None:
                self._planes = [grid._planes() for grid in self._lay_out()]
                self._lay_out = None
        return self._planes[channel]


class ChannelGrid:
    """The data list of one channel: occupied slots over ``length`` cycles.

    Storage is five dense ``(capacity, pes)`` arrays; ``origin_channel ==
    STALL_SENTINEL`` marks an empty slot.  ``length`` may exceed
    ``capacity``: cycles past the allocated prefix are implicit stalls, so
    resizing a short channel to a long one (§3.1) is O(1).

    The single-slot API (:meth:`place`, :meth:`set_slot`, :meth:`take`,
    :attr:`occupied`) writes the planes; builders that place elements one
    at a time and the legacy reference walk use it.  Every grid a pass
    hands on has read-only planes (:meth:`tile_grids`, :meth:`freeze`),
    so a shallow ``copy.copy`` shares them safely; trimming and
    equalising change only ``length``.

    A grid of a pending tile (:meth:`pending_tile`) is a header until
    something reads a plane: ``len``, :attr:`element_count`,
    :attr:`capacity`, :meth:`trim_trailing_stalls` and
    :meth:`ensure_length` read only the header, and every plane reader
    (slots, element arrays, masks, copies, pickling) lays the tile out
    first and keeps the planes.
    """

    __slots__ = (
        "channel_id",
        "pes",
        "length",
        "_capacity",
        "_value",
        "_row",
        "_col",
        "_origin_channel",
        "_origin_pe",
        "_count",
        "_max_cycle",
        "_max_dirty",
        "_layout",
    )

    def __init__(self, channel_id: int, pes: int, length: int = 0):
        self.channel_id = channel_id
        self.pes = pes
        self.length = length
        self._set_planes(
            tuple(np.empty((0, pes), dtype=dtype) for dtype, _ in _PLANES)
        )
        self._count = 0
        #: Largest occupied cycle, tracked incrementally so
        #: :meth:`trim_trailing_stalls` never rescans the grid; a removal
        #: at the tracked maximum marks it dirty for a lazy recompute.
        self._max_cycle = -1
        self._max_dirty = False
        #: The tile layout this grid's planes wait for, if any.
        self._layout: Optional[_PendingLayout] = None

    def __getattr__(self, name: str):
        """Lay a pending tile out on the first read of a plane.

        Reached only when normal lookup fails, as it does for the unset
        plane slots of a :meth:`pending_tile` grid.  The grid installs its
        planes before it drops the layout, so a thread that finds the
        layout gone finds the planes set.
        """
        if name in _PLANE_SLOTS:
            layout = self._layout
            if layout is not None:
                self._set_planes(layout.planes(self.channel_id))
                self._layout = None
            return object.__getattribute__(self, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        return (
            f"ChannelGrid(channel_id={self.channel_id}, pes={self.pes}, "
            f"length={self.length}, elements={self._count})"
        )

    def __len__(self) -> int:
        return self.length

    # -- storage ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Allocated cycle rows (≤ ``length`` when the tail is all stalls)."""
        return self._capacity

    @property
    def occupied(self) -> "_OccupiedView":
        """Dict-style ``(cycle, pe) -> element`` view of the arrays."""
        return _OccupiedView(self)

    def reserve(self, cycles: int) -> None:
        """Pre-allocate storage for ``cycles`` cycle rows."""
        if cycles > self._capacity:
            new_capacity = max(cycles, 2 * self._capacity, _MIN_CAPACITY)
            grown = []
            for plane, (dtype, stall) in zip(self._planes(), _PLANES):
                bigger = np.full((new_capacity, self.pes), stall, dtype=dtype)
                bigger[:self._capacity] = plane
                grown.append(bigger)
            self._set_planes(tuple(grown))

    def ensure_length(self, length: int) -> None:
        """Pad with stall-only cycles up to ``length`` (§3.1 resizing).

        Purely logical — implicit-stall cycles allocate no storage.
        """
        if length > self.length:
            self.length = length

    @classmethod
    def _from_planes(
        cls,
        channel_id: int,
        pes: int,
        length: int,
        planes: Tuple[np.ndarray, ...],
        count: int,
        max_cycle: int,
        max_dirty: bool = False,
    ) -> "ChannelGrid":
        """A grid over existing ``(value, row, col, origin_channel,
        origin_pe)`` planes, adopted as they are (no copy)."""
        grid = cls.__new__(cls)
        grid.channel_id = channel_id
        grid.pes = pes
        grid.length = length
        grid._set_planes(planes)
        grid._count = count
        grid._max_cycle = max_cycle
        grid._max_dirty = max_dirty
        grid._layout = None
        return grid

    @classmethod
    def pending_tile(
        cls,
        pes: int,
        lengths: Sequence[int],
        counts: Sequence[int],
        top_cycles: Sequence[int],
        lay_out: Callable[[], List["ChannelGrid"]],
    ) -> List["ChannelGrid"]:
        """The grids of one tile as headers, laid out on first read.

        Grid *c* is ``lengths[c]`` cycles long and holds ``counts[c]``
        elements, the last in cycle ``top_cycles[c]`` (-1 when empty), so
        its ``capacity`` is ``top_cycles[c] + 1``.  Its planes stay unset
        until any grid of the tile reads one: that read runs
        ``lay_out()``, which returns the tile's grids from
        :meth:`tile_grids` with those capacities, once for the whole
        tile, and each grid then keeps its planes.
        """
        pending = _PendingLayout(lay_out)
        grids = []
        for c, (length, count, top) in enumerate(
            zip(lengths, counts, top_cycles)
        ):
            grid = cls.__new__(cls)
            grid.channel_id = c
            grid.pes = pes
            grid.length = length
            grid._capacity = top + 1
            grid._count = count
            grid._max_cycle = top
            grid._max_dirty = False
            grid._layout = pending
            grids.append(grid)
        return grids

    @classmethod
    def tile_grids(
        cls,
        channels: int,
        pes: int,
        elem_channels: np.ndarray,
        slots: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        origin_channels: np.ndarray,
        origin_pes: np.ndarray,
        length: Optional[int] = None,
    ) -> List["ChannelGrid"]:
        """All ``channels`` grids of one tile from element arrays.

        Elements may come in any order but must sit at distinct flat
        ``slots`` (``cycle * pes + pe``) of their channel.  Each field
        takes one sentinel fill and one scatter into one read-only
        buffer that holds every channel's cycle rows back to back; grid
        *c* keeps disjoint ``(capacity, pes)`` views of it, ``capacity``
        being its last occupied cycle + 1.  ``length`` is every grid's
        list length; ``None`` ends each list at its last non-zero.

        This is where every tile is laid out, so it counts the tiles and
        the cycle rows it fills (``scheduler.layout.tiles``/``rows``).
        """
        counts = np.bincount(elem_channels, minlength=channels)
        tops = np.full(channels, -1, dtype=np.int64)
        np.maximum.at(tops, elem_channels, slots)
        top_cycles = tops // pes  # -1 for an empty channel
        offsets = np.zeros(channels + 1, dtype=np.int64)
        np.cumsum(top_cycles + 1, out=offsets[1:])
        t = telemetry.get()
        if t.enabled:
            t.counter("scheduler.layout.tiles", 1)
            t.counter("scheduler.layout.rows", int(offsets[-1]))
        flat = offsets[elem_channels] * pes + slots
        planes = []
        for field, (dtype, stall) in zip(
            (values, rows, cols, origin_channels, origin_pes), _PLANES
        ):
            plane = np.full((int(offsets[-1]), pes), stall, dtype=dtype)
            plane.reshape(-1)[flat] = field
            plane.setflags(write=False)
            planes.append(plane)
        value, row, col, origin_channel, origin_pe = planes
        grids = []
        for c, (lo, hi, count, top) in enumerate(zip(
            offsets[:-1].tolist(), offsets[1:].tolist(),
            counts.tolist(), top_cycles.tolist(),
        )):
            grids.append(cls._from_planes(
                c, pes, hi - lo if length is None else length,
                (value[lo:hi], row[lo:hi], col[lo:hi],
                 origin_channel[lo:hi], origin_pe[lo:hi]),
                count, top,
            ))
        return grids

    def __copy__(self) -> "ChannelGrid":
        """A new header over the same planes (a ``pass`` snapshot)."""
        return ChannelGrid._from_planes(*self._header_and_planes())

    def __reduce__(self):
        """Pickle and ``copy.deepcopy`` a grid as its header and planes
        (a deep copy's planes are writable copies)."""
        return ChannelGrid._from_planes, self._header_and_planes()

    def _header_and_planes(self) -> tuple:
        """The arguments of :meth:`_from_planes` that rebuild this grid."""
        return (
            self.channel_id, self.pes, self.length, self._planes(),
            self._count, self._max_cycle, self._max_dirty,
        )

    def _planes(self) -> Tuple[np.ndarray, ...]:
        return (
            self._value, self._row, self._col, self._origin_channel,
            self._origin_pe,
        )

    def _set_planes(self, planes: Tuple[np.ndarray, ...]) -> None:
        (self._value, self._row, self._col, self._origin_channel,
         self._origin_pe) = planes
        self._capacity = planes[0].shape[0]

    def freeze(self) -> None:
        """Make the planes read-only: the grid is handed on as a value.

        The five planes are always made read-only together, so one flag
        tells whether the grid already is (as :meth:`tile_grids` makes it).
        """
        if self._value.flags.writeable:
            for plane in self._planes():
                plane.setflags(write=False)

    # -- single-slot API ------------------------------------------------------

    def slot(self, cycle: int, pe: int) -> Optional[ScheduledElement]:
        if (
            cycle < 0
            or cycle >= self._capacity
            or not 0 <= pe < self.pes
            or self._origin_channel[cycle, pe] < 0
        ):
            return None
        return ScheduledElement(
            int(self._row[cycle, pe]),
            int(self._col[cycle, pe]),
            float(self._value[cycle, pe]),
            int(self._origin_channel[cycle, pe]),
            int(self._origin_pe[cycle, pe]),
        )

    def cycle_slots(self, cycle: int) -> List[Optional[ScheduledElement]]:
        """The eight slots of one cycle (the 512-bit channel word)."""
        return [self.slot(cycle, pe) for pe in range(self.pes)]

    def set_slot(self, cycle: int, pe: int, element: ScheduledElement) -> None:
        """Write a slot, overwriting whatever was there (dict semantics)."""
        if cycle < 0 or not 0 <= pe < self.pes:
            raise SchedulingError(
                f"slot (cycle={cycle}, pe={pe}) out of range"
            )
        self.reserve(cycle + 1)
        was_stall = self._origin_channel[cycle, pe] < 0
        self._row[cycle, pe] = element.row
        self._col[cycle, pe] = element.col
        self._value[cycle, pe] = element.value
        self._origin_channel[cycle, pe] = element.origin_channel
        self._origin_pe[cycle, pe] = element.origin_pe
        if was_stall:
            self._count += 1
        if cycle > self._max_cycle:
            self._max_cycle = cycle
        self.ensure_length(cycle + 1)

    def place(self, cycle: int, pe: int, element: ScheduledElement) -> None:
        if cycle < 0 or not 0 <= pe < self.pes:
            raise SchedulingError(
                f"slot (cycle={cycle}, pe={pe}) out of range"
            )
        if cycle < self._capacity and self._origin_channel[cycle, pe] >= 0:
            raise SchedulingError(
                f"slot (cycle={cycle}, pe={pe}) of channel "
                f"{self.channel_id} is already occupied"
            )
        self.set_slot(cycle, pe, element)

    def clear_slot(self, cycle: int, pe: int) -> None:
        """Turn one occupied slot back into a stall."""
        self._origin_channel[cycle, pe] = STALL_SENTINEL
        self._row[cycle, pe] = STALL_SENTINEL
        self._col[cycle, pe] = STALL_SENTINEL
        self._origin_pe[cycle, pe] = STALL_SENTINEL
        self._value[cycle, pe] = 0.0
        self._count -= 1
        if cycle == self._max_cycle:
            self._max_dirty = True

    def take(self, cycle: int, pe: int) -> ScheduledElement:
        """Remove and return the element at a slot (migration donor side)."""
        element = self.slot(cycle, pe)
        if element is None:
            raise SchedulingError(
                f"slot (cycle={cycle}, pe={pe}) of channel "
                f"{self.channel_id} is empty"
            )
        self.clear_slot(cycle, pe)
        return element

    # -- bulk array API -------------------------------------------------------

    def occupied_mask(self, length: Optional[int] = None) -> np.ndarray:
        """Boolean ``(length, pes)`` mask of occupied slots."""
        if length is None:
            length = self.length
        stored = min(length, self._capacity)
        mask = np.zeros((length, self.pes), dtype=bool)
        if stored:
            mask[:stored] = self._origin_channel[:stored] >= 0
        return mask

    def hole_coords(
        self, length: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cycles, pes)`` of stall slots in stream order."""
        if length is None:
            length = self.length
        flat = np.flatnonzero(~self.occupied_mask(length).ravel())
        return flat // self.pes, flat % self.pes

    def flat_elements(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray]:
        """``(slots, rows, cols, values, origin_channels, origin_pes)`` of
        every occupied slot, in stream order.

        A slot is the flat id ``cycle * pes + pe``: the slot's position in
        stream order and its index into the row-major planes, so each
        field is one flat gather.
        """
        stored = min(self.length, self._capacity) * self.pes
        origin_channels = self._origin_channel.reshape(-1)[:stored]
        slots = np.flatnonzero(origin_channels >= 0)
        return (
            slots,
            self._row.reshape(-1)[slots],
            self._col.reshape(-1)[slots],
            self._value.reshape(-1)[slots],
            origin_channels[slots],
            self._origin_pe.reshape(-1)[slots],
        )

    def element_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray]:
        """``(cycles, pes, rows, cols, values, origin_channels, origin_pes)``
        of every occupied slot, in stream order."""
        slots, *fields = self.flat_elements()
        cycles, pes = np.divmod(slots, self.pes)
        return (cycles, pes, *fields)

    # -- compaction ---------------------------------------------------------

    def trim_trailing_stalls(self) -> None:
        """Drop all-stall cycles from the tail (the compact pass).

        Changes only ``length``.  O(1) thanks to the incrementally tracked
        maximum occupied cycle; only a removal at the old maximum forces a
        (vectorized, read-only) rescan.
        """
        if self._count == 0:
            self.length = 0
            self._max_cycle = -1
            self._max_dirty = False
            return
        if self._max_dirty:
            stored = min(self.length, self._capacity)
            occupied_rows = np.flatnonzero(
                (self._origin_channel[:stored] >= 0).any(axis=1)
            )
            self._max_cycle = int(occupied_rows[-1])
            self._max_dirty = False
        self.length = self._max_cycle + 1

    # -- accounting ---------------------------------------------------------

    @property
    def element_count(self) -> int:
        return self._count

    @property
    def stall_count(self) -> int:
        return self.length * self.pes - self._count

    def iter_elements(
        self,
    ) -> Iterator[Tuple[int, int, ScheduledElement]]:
        """Yield ``(cycle, pe, element)`` in stream order."""
        cycles, pes, rows, cols, values, och, ope = self.element_arrays()
        for cycle, pe, row, col, value, channel, origin_pe in zip(
            cycles.tolist(), pes.tolist(), rows.tolist(), cols.tolist(),
            values.tolist(), och.tolist(), ope.tolist(),
        ):
            yield cycle, pe, ScheduledElement(
                row, col, value, channel, origin_pe
            )

    def holes(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(cycle, pe)`` for every stall slot, in stream order."""
        cycles, pes = self.hole_coords()
        for cycle, pe in zip(cycles.tolist(), pes.tolist()):
            yield cycle, pe

    def own_elements_tail_first(
        self,
    ) -> List[Tuple[int, int, ScheduledElement]]:
        """This channel's private elements, latest cycles first."""
        own = [
            (cycle, pe, element)
            for cycle, pe, element in self.iter_elements()
            if element.origin_channel == self.channel_id
        ]
        own.reverse()
        return own


@dataclass(frozen=True, eq=False)
class TileElements:
    """One tile's scheduled elements as a value: a build's handoff to
    migration.

    Seven parallel read-only arrays hold every element of the tile,
    channel-major and in stream order within a channel (flat ``slots``,
    ``cycle * pes + pe``, ascend per channel): ``channels`` (where each
    element is scheduled), ``slots``, ``rows``, ``cols``, ``values``,
    ``origin_channels`` and ``origin_pes`` — the arguments of
    :meth:`ChannelGrid.tile_grids`.  ``lengths`` holds each channel's
    list length, which may exceed its last occupied cycle + 1 (a padded
    tail is stalls).  :meth:`grids` hands the table on as grids laid
    out on first read, and :meth:`of_grids` reads grids back into one.
    """

    pes: int
    lengths: Tuple[int, ...]
    channels: np.ndarray
    slots: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    origin_channels: np.ndarray
    origin_pes: np.ndarray

    def __post_init__(self) -> None:
        for array in self._fields():
            array.setflags(write=False)

    def _fields(self) -> Tuple[np.ndarray, ...]:
        return (
            self.channels, self.slots, self.rows, self.cols, self.values,
            self.origin_channels, self.origin_pes,
        )

    @classmethod
    def of_grids(cls, grids: Sequence[ChannelGrid]) -> "TileElements":
        """The table of ``grids`` (grid *c* is channel *c*)."""
        live = [grid.flat_elements() for grid in grids]
        slots, rows, cols, values, origin_channels, origin_pes = (
            np.concatenate(field) for field in zip(*live)
        )
        channels = np.repeat(
            np.arange(len(grids)), [fields[0].size for fields in live]
        )
        return cls(
            grids[0].pes, tuple(grid.length for grid in grids), channels,
            slots, rows, cols, values, origin_channels, origin_pes,
        )

    def grids(self) -> List[ChannelGrid]:
        """The table's grids, each list ``lengths[c]`` long, laid out in
        one read-only buffer per field (:meth:`ChannelGrid.tile_grids`)
        on the first plane read (:meth:`ChannelGrid.pending_tile`)."""
        channels = len(self.lengths)
        ends = np.searchsorted(self.channels, np.arange(1, channels + 1))
        counts = np.diff(ends, prepend=0)
        tops = np.full(channels, -1, dtype=np.int64)
        held = counts > 0
        tops[held] = self.slots[ends[held] - 1] // self.pes
        return ChannelGrid.pending_tile(
            self.pes, self.lengths, counts.tolist(), tops.tolist(),
            partial(ChannelGrid.tile_grids, channels, self.pes,
                    *self._fields()),
        )


@dataclass
class Schedule:
    """A complete schedule for one matrix tile.

    ``grids`` has one :class:`ChannelGrid` per sparse channel, all resized
    to equal length; ``scheme`` names the scheduler that produced it.
    """

    config: AcceleratorConfig
    grids: List[ChannelGrid]
    scheme: str
    row_base: int = 0
    col_base: int = 0
    migrated_count: int = 0
    #: Migration span the schedule was built with; ``None`` falls back to
    #: the configuration's span during validation.
    migration_span: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.grids) != self.config.sparse_channels:
            raise SchedulingError(
                f"{self.scheme}: expected {self.config.sparse_channels} "
                f"grids, got {len(self.grids)}"
            )

    # -- shape ---------------------------------------------------------------

    @property
    def stream_cycles(self) -> int:
        """Length of the (equalised) data lists = cycles to stream the tile."""
        return max((len(g) for g in self.grids), default=0)

    def equalise(self) -> None:
        """Resize every channel list to the longest one (§3.1)."""
        length = self.stream_cycles
        for grid in self.grids:
            grid.ensure_length(length)

    # -- accounting -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return sum(g.element_count for g in self.grids)

    @property
    def total_stalls(self) -> int:
        """Stalls counted over the equalised lists (Eq. 4 numerator)."""
        length = self.stream_cycles
        pes = self.config.pes_per_channel
        return length * pes * len(self.grids) - self.nnz

    @property
    def underutilization(self) -> float:
        """Eq. 4 as a fraction in [0, 1]."""
        stalls = self.total_stalls
        denominator = self.nnz + stalls
        if denominator == 0:
            return 0.0
        return stalls / denominator

    @property
    def words_per_channel(self) -> int:
        """512-bit words each channel streams for this tile."""
        return self.stream_cycles

    @property
    def traffic_bytes(self) -> int:
        """Sparse-stream bytes for this tile (all channels)."""
        word_bytes = self.config.pes_per_channel * 8
        return self.stream_cycles * len(self.grids) * word_bytes

    def channel_stalls(self) -> List[int]:
        """Per-channel stall counts over the equalised length."""
        length = self.stream_cycles
        pes = self.config.pes_per_channel
        return [length * pes - g.element_count for g in self.grids]

    def channel_elements(self) -> List[int]:
        return [g.element_count for g in self.grids]

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`SchedulingError`.

        * every occupied slot holds an element whose home channel is this
          channel (``pvt``) or a donor within the migration span;
        * private elements sit in their Eq. 1 PE lane;
        * the RAW dependency distance is respected per (PE, row) within a
          channel (§3.3) — this covers both private and migrated elements.
        """
        span = self.migration_span
        if span is None:
            span = getattr(self.config, "migration_span", 0)
        channels = len(self.grids)
        distance = self.config.accumulator_latency
        for grid in self.grids:
            last_cycle: Dict[Tuple[int, int], int] = {}
            for cycle, pe, element in grid.iter_elements():
                if element.origin_channel == grid.channel_id:
                    if element.origin_pe != pe:
                        raise SchedulingError(
                            f"private element of row {element.row} sits in "
                            f"PE {pe}, expected {element.origin_pe}"
                        )
                else:
                    offset = (
                        element.origin_channel - grid.channel_id
                    ) % channels
                    if not 1 <= offset <= span:
                        raise SchedulingError(
                            f"element migrated from channel "
                            f"{element.origin_channel} to {grid.channel_id} "
                            f"exceeds migration span {span}"
                        )
                key = (pe, element.row)
                previous = last_cycle.get(key)
                if previous is not None and cycle - previous < distance:
                    raise RawHazardError(
                        f"row {element.row} scheduled at cycles {previous} "
                        f"and {cycle} in PE {pe} of channel "
                        f"{grid.channel_id}: distance < {distance}"
                    )
                last_cycle[key] = cycle


@dataclass
class TiledSchedule:
    """Schedules for every (row window × column window) tile of a matrix.

    Tiles stream back-to-back, so aggregate cycle/stall/traffic counts are
    sums over tiles; Eq. 4 is evaluated over the concatenated data lists.
    """

    config: AcceleratorConfig
    tiles: List[Schedule]
    scheme: str
    n_rows: int = 0
    n_cols: int = 0

    @property
    def nnz(self) -> int:
        return sum(t.nnz for t in self.tiles)

    @property
    def stream_cycles(self) -> int:
        return sum(t.stream_cycles for t in self.tiles)

    @property
    def total_stalls(self) -> int:
        return sum(t.total_stalls for t in self.tiles)

    @property
    def migrated_count(self) -> int:
        return sum(t.migrated_count for t in self.tiles)

    @property
    def underutilization(self) -> float:
        stalls = self.total_stalls
        denominator = self.nnz + stalls
        if denominator == 0:
            return 0.0
        return stalls / denominator

    @property
    def words_per_channel(self) -> int:
        return sum(t.words_per_channel for t in self.tiles)

    @property
    def traffic_bytes(self) -> int:
        return sum(t.traffic_bytes for t in self.tiles)

    def channel_stalls(self) -> List[int]:
        totals = [0] * self.config.sparse_channels
        for tile in self.tiles:
            for channel, stalls in enumerate(tile.channel_stalls()):
                totals[channel] += stalls
        return totals

    def channel_elements(self) -> List[int]:
        totals = [0] * self.config.sparse_channels
        for tile in self.tiles:
            for channel, count in enumerate(tile.channel_elements()):
                totals[channel] += count
        return totals

    def validate(self) -> None:
        for tile in self.tiles:
            tile.validate()
