"""CrHCS — Cross-HBM-Channel Out-of-Order non-zero scheduling (§3).

CrHCS extends PE-aware scheduling with *data migration*: stalls in the
data list of channel *c* are filled with non-zero values migrated from the
next channel ``(c+1) % C`` (up to ``migration_span`` neighbours; the paper
implements one, §3.1).  A migrated element carries ``pvt = 0`` and the
3-bit ``PE_src`` of its home PE so the destination PEG can segregate its
partial sum into the right ``URAM_sh`` bank (§3.2).

Two modes are provided:

``mode="migrate"`` (default, the paper's algorithm, Figs. 4/5)
    Start from the PE-aware schedule, handed over as its element table
    (:func:`~repro.scheduling.pe_aware.pe_aware_elements`; no PE-aware
    grid is laid out).  Walk the channels in ring order; for
    each channel fill its stalls — earliest first — with the donor
    channel's *own* elements, taken latest-cycle-first so the donor's list
    shrinks from the tail (the wholesale emptying of Fig. 5b/5c).  A
    candidate is skipped when the same row issued in the destination PE
    fewer than ``distance`` cycles ago (§3.3) and is retried at the next
    stall; repeats in *different* destination PEs are legal because their
    partial sums live in different ScUG banks and only meet in the
    Reduction Unit.  Donated slots become stalls in the donor (Fig. 5d);
    trailing all-stall cycles are trimmed and all lists are resized to the
    longest one (§3.1).  The host runs this as one exact pass per tile
    over flat per-channel arrays (:func:`migrate_elements`; its walk is one
    call to a small C kernel where the host can build one), slot for slot
    the reference walk kept in :mod:`repro.scheduling.legacy`, and lays
    the migrated lists out only when something reads their planes.

``mode="rebuild"``
    An idealised joint construction used for the ablation benchmarks: all
    channels are rescheduled cycle-by-cycle, each PE issuing its own
    eligible work first (greedy longest-remaining-first) and migrating
    work in from the donor's most backlogged rows when it would stall.
    This upper-bounds what cross-channel scheduling can achieve.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..config import DEFAULT_CHASON, AcceleratorConfig
from ..errors import SchedulingError
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from .. import telemetry
from .base import (
    ChannelGrid,
    Schedule,
    ScheduledElement,
    TiledSchedule,
    TileElements,
)
from .passes import (
    PassManager,
    register_builder,
    register_migrator,
    resolve_passes,
)
from .pe_aware import group_rows_by_pe, pe_aware_elements
from . import walk_kernel
from .registry import register_scheme
# Re-exported from its historical location; the class itself lives in
# stats so the pass layer can use it without importing this module.
from .stats import MigrationReport
from .window import Tile, tile_matrix

Matrix = Union[COOMatrix, CSRMatrix]

#: Algorithm revision (cache fingerprint component).  Bump it only when
#: the schedules change: the per-tile list walk builds the same schedules
#: as the vectorized migration that set "2", so store fingerprints and
#: ``.chsn`` images written under "2" stay valid.
CRHCS_VERSION = "2"

#: How many donor elements a stall examines before staying a stall.
#: Bounds the offline scheduling cost; skipped candidates are retried at
#: later stalls, so misses come from empty donors, not exhausted scans —
#: matching the paper's observation that CrHCS "never fails to find a RAW
#: dependency-free value to migrate" (§3.3).
DEFAULT_STEAL_TRIES = 8


def _check_span(migration_span: int, channels: int) -> int:
    """A span lies in ``[0, channels)``, so no channel donates to itself."""
    if not 0 <= migration_span < max(channels, 1):
        raise SchedulingError(
            f"migration span {migration_span} invalid for "
            f"{channels} channels"
        )
    return migration_span


def _resolve_span(
    config: AcceleratorConfig, migration_span: Optional[int]
) -> int:
    if migration_span is None:
        migration_span = getattr(config, "migration_span", 1)
    return _check_span(migration_span, config.sparse_channels)


# ---------------------------------------------------------------------------
# mode="migrate": the paper's hole-filling migration of PE-aware lists.
# ---------------------------------------------------------------------------


def migrate_grids(
    grids: List[ChannelGrid],
    config: AcceleratorConfig,
    migration_span: int,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    report: Optional[MigrationReport] = None,
) -> List[ChannelGrid]:
    """:func:`migrate_elements` over built grids (grid *c* is channel
    *c*), read into their element table first; the grids are left as
    they were."""
    return migrate_elements(
        TileElements.of_grids(grids), config, migration_span,
        steal_tries=steal_tries, report=report,
    )


def migrate_elements(
    elements: TileElements,
    config: AcceleratorConfig,
    migration_span: int,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    report: Optional[MigrationReport] = None,
) -> List[ChannelGrid]:
    """The CrHCS ring migration of one tile (§3.1, Fig. 5).

    Reads the tile's element table and returns the migrated grids, each
    list ending at its last non-zero, as headers whose planes are laid
    out on first read (:meth:`ChannelGrid.pending_tile`).  One exact
    pass, in three phases, the last of them deferred:

    1. *Index.*  The table already holds every element channel-major in
       stream order with its fields (a slot is the flat id ``cycle *
       pes + pe``).  From it build each channel's own elements (slots
       and compact row ids, as int64 arrays with per-channel bounds)
       and, when the table holds foreign elements (moved in by an
       earlier migration), their slots.  A row's id is its rank among
       the distinct own rows, read from a presence table and a rank
       table as long as the tile's largest own row: O(rows in the
       tile), no sort.
    2. *Walk.*  One call per tile, to the compiled kernel
       (``crhcs_walk.c``, built on first use and called through
       :mod:`ctypes`; see :mod:`repro.scheduling.walk_kernel`) or, on a
       host that cannot build it, to :func:`_python_walk`, which is
       also the reference the kernel is tested against.  Both take the
       arrays of phase 1 and return the same results; the kernel
       touches no Python object, so the interpreter lock is released
       for the call.  Each (destination, donor) step walks the
       destination's slots in stream order over the equalised length
       (the longest of the table's list lengths) with a running PE
       index, passing occupied slots.  No occupancy is stored: at its
       turn a destination's occupied slots are exactly its foreign
       elements, its own elements no earlier destination took (its
       queue, already ascending; no channel donates to itself) and what
       its earlier steps moved in, so the walk passes them with a
       pointer into one sorted list of them, and a donated slot is a
       hole when its channel's turn as destination comes (Fig. 5d).  A
       donor's candidate queue is its own-element list read from the
       end (latest first), so taking the first RAW-eligible candidate
       in the ``steal_tries`` window pops it in O(window) and leaves the
       skipped ones in order.  Eligibility is one lookup in the hole
       PE's expiry list, and a take writes its row's expiry from its
       cycle's ``until``.  Once a cycle's worth of holes in a row has
       failed, the walk jumps to the first slot at which any window row
       unblocks in its PE: nothing changes the window or the expiry
       lists until a take, so every hole jumped over would fail the
       same scan, and it is counted in ``raw_skips`` as if scanned
       (``scheduler.crhcs.jumped_holes`` counts them; a bisect of the
       occupied list finds the occupied slots among them).  The walk
       returns every take of the ring as one pair of int64 arrays
       (donor slots and destination holes), one record per step (its
       takes, raw skips, takes before its first raw skip, holes
       jumped) and each channel's queue length and last queued slot.
    3. *Lay out.*  One Python path, whichever walk ran, reads the
       records into the report (a step with raw skips and no take
       still keys its channel pair), the ``scheduler.crhcs.*`` walk
       counters and each channel's header in O(channels): a channel
       holds its foreign elements, the own elements no destination took
       (its queue) and what its steps moved in, and its last occupied
       slot is the largest of the three lists' last (each step fills
       its holes in stream order).  List lengths and element counts are
       all that compaction, trimming, verification and the figures of
       merit read, so the rest of the phase runs on the first read of
       any plane of the tile (:func:`_lay_out_migrated`): a dense table
       from flat slot key to element finds every moved element, whose
       channel and slot are overwritten at once from the take arrays,
       and the grids are laid out in one allocation with one scatter
       per field (:meth:`ChannelGrid.tile_grids`), so each ``capacity``
       is the last occupied cycle + 1 and the planes are read-only.

    The result is slot-for-slot the walk of
    :func:`repro.scheduling.legacy.legacy_migrate_grids`.
    """
    if steal_tries < 1:
        raise SchedulingError("steal_tries must be >= 1")
    channels = len(elements.lengths)
    _check_span(migration_span, channels)
    pes = config.pes_per_channel
    distance = config.accumulator_latency

    # Phase 1.
    elem_channels = elements.channels
    elem_slots = elements.slots
    elem_rows = elements.rows
    elem_origin_channels = elements.origin_channels
    if report is not None:
        report.own_issues += elem_slots.size
    if migration_span == 0 or channels < 2:
        grids = elements.grids()
        for grid in grids:
            grid.trim_trailing_stalls()  # reads the header only
        return grids

    # §3.1: the data lists are resized to the longest one; the padded
    # stalls of short (even empty) channels are exactly the slots
    # migration fills.
    longest = max(elements.lengths)
    end = longest * pes
    # A donor's queue is its own elements in stream order, so the queue
    # front (its latest element) is the end of the list.  A row's id is
    # its rank among the distinct own rows (``row_ids``).
    own = elem_origin_channels == elem_channels
    own_rows = elem_rows[own]
    present = np.zeros(int(own_rows.max(initial=-1)) + 1, dtype=bool)
    present[own_rows] = True
    row_ids = np.flatnonzero(present)
    rank = np.empty(present.size, dtype=np.int64)
    rank[row_ids] = np.arange(row_ids.size)
    ring = np.arange(channels + 1)
    queue_slots = elem_slots[own].astype(np.int64, copy=False)
    queue_rows = rank[own_rows]
    bounds = np.searchsorted(elem_channels[own], ring).astype(np.int64)
    # Foreign elements (migrated in by an earlier pass) are never
    # candidates, so they hold their slots through the whole ring.
    if queue_slots.size < elem_slots.size:
        foreign = ~own
        foreign_slots = elem_slots[foreign].astype(np.int64)
        foreign_bounds = np.searchsorted(
            elem_channels[foreign], ring
        ).astype(np.int64)
    else:
        foreign_slots = np.empty(0, dtype=np.int64)
        foreign_bounds = np.zeros(channels + 1, dtype=np.int64)

    # Phase 2, on the compiled kernel when this host has one.
    walk = walk_kernel.compiled_walk() or _python_walk
    taken, filled, records, queued, queue_tops = walk(
        pes, distance, migration_span, steal_tries, longest, row_ids.size,
        bounds, queue_slots, queue_rows, foreign_bounds, foreign_slots,
    )

    # The walk's records, one per (destination, step), give the report,
    # the counters and, per destination, the elements moved in and the
    # last hole they filled (each step fills its holes in stream order).
    steps: List[Tuple[int, int, int]] = []
    moved_in = [0] * channels
    last_filled = [-1] * channels
    prefix_slots = 0
    walk_slots = 0
    jumped_holes = 0
    at = 0
    record = iter(records)
    for c in range(channels):
        fresh = True
        for step in range(1, migration_span + 1):
            migrated_here, raw_skips, prefix, jumped = next(record)
            jumped_holes += jumped
            donor_id = (c + step) % channels
            if migrated_here:
                steps.append((c, donor_id, migrated_here))
                moved_in[c] += migrated_here
                at += migrated_here
                last_filled[c] = max(last_filled[c], int(filled[at - 1]))
            # The step's prefix (``scheduler.crhcs.prefix_slots``): slots
            # filled before its first RAW skip, counted only while nothing
            # has migrated into this destination yet.
            if not fresh:
                prefix = 0
            elif prefix < 0:
                prefix = migrated_here
            prefix_slots += prefix
            walk_slots += migrated_here - prefix
            fresh = fresh and not migrated_here
            if report is not None and (migrated_here or raw_skips):
                report.own_issues -= migrated_here
                report.migrated += migrated_here
                report.raw_skips += raw_skips
                report.pair_counts[(c, donor_id)] += migrated_here

    t = telemetry.get()
    if t.enabled:
        t.counter("scheduler.crhcs.prefix_slots", prefix_slots)
        t.counter("scheduler.crhcs.walk_slots", walk_slots)
        t.counter("scheduler.crhcs.jumped_holes", jumped_holes)

    # The headers.  After the ring, a channel holds its foreign
    # elements, the own elements no destination took (its queue, whose
    # takes came off the tail) and what its steps moved in.
    foreign_ends = foreign_bounds.tolist()
    counts = []
    top_cycles = []
    for c in range(channels):
        lo, hi = foreign_ends[c], foreign_ends[c + 1]
        counts.append(queued[c] + hi - lo + moved_in[c])
        top_cycles.append(max(
            queue_tops[c], int(foreign_slots[hi - 1]) if hi > lo else -1,
            last_filled[c],
        ) // pes)
    return ChannelGrid.pending_tile(
        pes, [top + 1 for top in top_cycles], counts, top_cycles,
        partial(_lay_out_migrated, elements, pes, end, steps, taken, filled),
    )


def _python_walk(
    pes: int,
    distance: int,
    span: int,
    steal_tries: int,
    longest: int,
    n_rows: int,
    bounds: np.ndarray,
    queue_slots: np.ndarray,
    queue_rows: np.ndarray,
    foreign_bounds: np.ndarray,
    foreign_slots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, list, List[int], List[int]]:
    """Phase 2 of :func:`migrate_elements` in Python: the ring walk.

    Channel *c*'s queue is ``queue_slots``/``queue_rows[bounds[c]:
    bounds[c + 1]]`` (ascending slots, compact row ids) and its foreign
    elements' slots are ``foreign_slots[foreign_bounds[c]:
    foreign_bounds[c + 1]]``.  Returns the takes (donor slots, then
    destination holes, as int64 arrays in ring order), one record per
    (destination, step), destination-major (takes, raw skips, takes
    before the first raw skip or -1, holes jumped), and each channel's
    queue length and last queued slot (-1 when empty) after the ring.
    The compiled kernel (:func:`repro.scheduling.walk_kernel.run_walk`)
    returns the same.
    """
    channels = bounds.size - 1
    end = longest * pes
    bounds = bounds.tolist()
    candidate_slots = queue_slots.tolist()
    candidate_rows = queue_rows.tolist()
    queue_slots = [
        candidate_slots[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]
    queue_rows = [candidate_rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    all_foreign = foreign_slots.tolist()
    foreign_ends = foreign_bounds.tolist()
    foreign = [
        all_foreign[lo:hi] for lo, hi in zip(foreign_ends, foreign_ends[1:])
    ]
    # expiry[pe][row id]: the first cycle at which the row may issue again
    # in that PE of the current destination (§3.3), kept as the flat slot
    # id of that cycle's PE 0 plus ``base``.  Each destination raises
    # ``base`` past every entry its predecessors left, so those read as
    # expired without a reset.
    expiry = [[0] * n_rows for _ in range(pes)]
    reach = distance * pes
    base = 0
    # When the queue front is blocked, the scan reads the window below it
    # by negative offset: all of ``steal_tries`` unless the queue is
    # shorter.
    scan = range(-2, -steal_tries - 1, -1)

    # Every step's takes go on one flat pair of lists: ``taken`` (the
    # donor slots) and ``filled`` (the destination holes).
    taken: List[int] = []
    filled: List[int] = []
    records: List[Tuple[int, int, int, int]] = []
    for c in range(channels):
        # The destination's occupied slots at its turn, ascending: its
        # foreign elements, its own elements no earlier destination took
        # (its queue; no channel donates to itself) and, from its second
        # step on, what its earlier steps moved in.  ``end`` closes the
        # list, so the walk's pointer never runs off it.
        if foreign[c]:
            occupied = sorted(foreign[c] + queue_slots[c])
            occupied.append(end)
        else:
            occupied = queue_slots[c] + [end]
        for step in range(1, span + 1):
            donor_id = (c + step) % channels
            slots = queue_slots[donor_id]
            rows = queue_rows[donor_id]
            if not slots:
                records.append((0, 0, -1, 0))
                continue
            start = len(taken)
            raw_skips = 0
            # Takes before the step's first RAW skip (-1: none yet).
            prefix = -1
            jumped_holes = 0
            # Holes that failed in a row since the last take.
            failed = 0
            # The walk: ``hole`` is the flat slot, ``pe`` its PE and
            # ``now`` its cycle's expiry key (``base`` + the flat id of
            # the cycle's PE 0); a row may issue where its expiry <= now,
            # and a take's row expires at ``until``.  ``busy`` is the
            # first occupied slot at or after ``hole``, ``occupied[at]``.
            hole = -1
            pe = pes - 1
            now = base - pes
            at = 0
            busy = occupied[0]
            while True:
                hole += 1
                pe += 1
                if pe == pes:
                    if hole == end:
                        break
                    pe = 0
                    now += pes
                    until = now + reach
                if hole == busy:
                    at += 1
                    busy = occupied[at]
                    continue
                pe_expiry = expiry[pe]
                if pe_expiry[rows[-1]] <= now:
                    pe_expiry[rows.pop()] = until
                    slot = slots.pop()
                else:
                    if prefix < 0:
                        prefix = len(taken) - start
                    width = len(rows)
                    if width < steal_tries:
                        window_scan = range(-2, -width - 1, -1)
                    else:
                        width = steal_tries
                        window_scan = scan
                    for j in window_scan:
                        if pe_expiry[rows[j]] <= now:
                            break
                    else:
                        raw_skips += width
                        failed += 1
                        if failed < pes:
                            continue
                        # A cycle's worth of holes failed against the same
                        # window.  Until a take changes it, a hole in PE p
                        # fails before the first cycle at which a window
                        # row's expiry in p has passed, so every hole
                        # before the earliest such slot over all PEs
                        # fails the same full scan: jump there.
                        failed = 0
                        window = rows[-width:]
                        target = min(
                            min(map(expiry[p].__getitem__, window)) + p
                            for p in range(pes)
                        ) - base
                        if target > hole + 1:
                            if target > end:
                                target = end
                            passed = bisect_left(occupied, target, at)
                            skipped = target - hole - 1 - (passed - at)
                            jumped_holes += skipped
                            raw_skips += skipped * width
                            hole = target - 1
                            at = passed
                            busy = occupied[at]
                            pe = hole % pes
                            now = base + hole - pe
                            until = now + reach
                        continue
                    raw_skips += -1 - j
                    pe_expiry[rows.pop(j)] = until
                    slot = slots.pop(j)
                failed = 0
                taken.append(slot)
                filled.append(hole)
                if not slots:
                    break

            migrated_here = len(taken) - start
            records.append((migrated_here, raw_skips, prefix, jumped_holes))
            if migrated_here and step < span:
                occupied = sorted(occupied + filled[start:])
        base += (longest + distance) * pes
    return (
        np.array(taken, dtype=np.int64),
        np.array(filled, dtype=np.int64),
        records,
        [len(queue) for queue in queue_slots],
        [queue[-1] if queue else -1 for queue in queue_slots],
    )


def _lay_out_migrated(
    elements: TileElements,
    pes: int,
    end: int,
    steps: List[Tuple[int, int, int]],
    taken: np.ndarray,
    filled: np.ndarray,
) -> List[ChannelGrid]:
    """Phase 3 of :func:`migrate_elements`: the migrated tile's layout.

    ``taken``/``filled`` are the walk's takes (donor slots, destination
    holes) in ring order, ``steps`` their (destination, donor, count)
    runs.  A donor's own elements sit at their original slots until
    taken, and each is taken at most once, so a taken slot's key
    (``channel * end + slot``) names the element (``element_at`` is read
    only at element keys).
    """
    channels = len(elements.lengths)
    elem_channels = elements.channels
    elem_slots = elements.slots
    if steps:
        dests, donors, sizes = zip(*steps)
        keys = elem_channels * end + elem_slots
        element_at = np.empty(channels * end, dtype=np.intp)
        element_at[keys] = np.arange(keys.size)
        moved = element_at[np.repeat(donors, sizes) * end + taken]
        elem_channels = elem_channels.copy()
        elem_slots = elem_slots.copy()
        elem_channels[moved] = np.repeat(dests, sizes)
        elem_slots[moved] = filled
    return ChannelGrid.tile_grids(
        channels, pes, elem_channels, elem_slots, elements.rows,
        elements.cols, elements.values, elements.origin_channels,
        elements.origin_pes,
    )


# ---------------------------------------------------------------------------
# mode="rebuild": idealised joint cycle-by-cycle construction (ablation).
# ---------------------------------------------------------------------------


class _ChannelPool:
    """Undispatched non-zeros of one channel for the rebuild mode.

    The home channel drains rows from the *front* (preserving CSR order);
    migrating neighbours steal from the *back*.  Row priority heaps are
    lazy: entries whose deque emptied under theft are dropped on pop.
    """

    def __init__(self, channel_id: int, pe_groups, distance: int):
        self.channel_id = channel_id
        self.distance = distance
        self.pes = len(pe_groups)
        self.row_elements: Dict[int, Deque[int]] = {}
        self.row_home_pe: Dict[int, int] = {}
        self.ready: List[List[Tuple[int, int]]] = [[] for _ in range(self.pes)]
        self.waiting: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(self.pes)
        ]
        self.steal_heap: List[Tuple[int, int]] = []
        self.remaining = 0
        for pe, rows in enumerate(pe_groups):
            for row, element_indices in rows:
                if len(element_indices) == 0:
                    continue
                queue: Deque[int] = deque(int(i) for i in element_indices)
                self.row_elements[row] = queue
                self.row_home_pe[row] = pe
                heapq.heappush(self.ready[pe], (-len(queue), row))
                heapq.heappush(self.steal_heap, (-len(queue), row))
                self.remaining += len(queue)

    def pop_own(self, pe: int, cycle: int) -> Optional[Tuple[int, int]]:
        """Issue one own element for ``pe`` at ``cycle`` if one is eligible."""
        ready = self.ready[pe]
        waiting = self.waiting[pe]
        while waiting and waiting[0][0] <= cycle:
            _, neg_rem, row = heapq.heappop(waiting)
            heapq.heappush(ready, (neg_rem, row))
        while ready:
            _, row = heapq.heappop(ready)
            queue = self.row_elements[row]
            if not queue:  # drained by a migrating neighbour
                continue
            element_index = queue.popleft()
            self.remaining -= 1
            if queue:
                heapq.heappush(
                    waiting, (cycle + self.distance, -len(queue), row)
                )
            return row, element_index
        return None

    def steal(self, eligible, tries: int):
        """Take one element from the back of the most backlogged row.

        ``eligible(row) -> (ok, expiry)`` implements the §3.3 RAW check at
        the destination.  Returns ``((row, element, home_pe) | None,
        blocked_until, skips)``.
        """
        heap = self.steal_heap
        skipped: List[Tuple[int, int]] = []
        result = None
        blocked_until: Optional[int] = None
        skips = 0
        for _ in range(tries):
            if not heap:
                break
            neg_rem, row = heapq.heappop(heap)
            queue = self.row_elements[row]
            if not queue:
                continue
            ok, expiry = eligible(row)
            if ok:
                element_index = queue.pop()
                self.remaining -= 1
                if queue:
                    heapq.heappush(heap, (-len(queue), row))
                result = (row, element_index, self.row_home_pe[row])
                break
            skips += 1
            skipped.append((neg_rem, row))
            if blocked_until is None or expiry < blocked_until:
                blocked_until = expiry
        for entry in skipped:
            heapq.heappush(heap, entry)
        return result, blocked_until, skips

    def min_waiting_cycle(self) -> Optional[int]:
        heads = [w[0][0] for w in self.waiting if w]
        return min(heads) if heads else None


def rebuild_grids(
    tile: Tile,
    config: AcceleratorConfig,
    migration_span: int,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    report: Optional[MigrationReport] = None,
) -> List[ChannelGrid]:
    """Joint cycle-by-cycle construction of CrHCS grids (rebuild mode)."""
    channels = config.sparse_channels
    pes = config.pes_per_channel
    distance = config.accumulator_latency
    if steal_tries < 1:
        raise SchedulingError("steal_tries must be >= 1")

    groups = group_rows_by_pe(tile, config)
    pools = [_ChannelPool(c, groups[c], distance) for c in range(channels)]
    grids = [ChannelGrid(channel_id=c, pes=pes) for c in range(channels)]
    trackers: List[Dict[Tuple[int, int], int]] = [
        dict() for _ in range(channels)
    ]
    donor_ids = [
        [(c + s) % channels for s in range(1, migration_span + 1)]
        for c in range(channels)
    ]

    total = sum(pool.remaining for pool in pools)
    cycle = 0
    while total > 0:
        placed_any = False
        blocked_min: Optional[int] = None
        filled = [[False] * pes for _ in range(channels)]

        # Phase 1: every PE issues its own work first.
        for c in range(channels):
            pool = pools[c]
            if not pool.remaining:
                continue
            grid = grids[c]
            for pe in range(pes):
                own = pool.pop_own(pe, cycle)
                if own is None:
                    continue
                row, element_index = own
                grid.place(
                    cycle,
                    pe,
                    ScheduledElement(
                        row=row,
                        col=int(tile.cols[element_index]),
                        value=float(tile.values[element_index]),
                        origin_channel=c,
                        origin_pe=pe,
                    ),
                )
                filled[c][pe] = True
                placed_any = True
                total -= 1
                if report is not None:
                    report.own_issues += 1

        # Phase 2: idle PEs migrate data in from their donor channels.
        if migration_span:
            for c in range(channels):
                donors = [d for d in donor_ids[c] if pools[d].remaining]
                if not donors:
                    continue
                grid = grids[c]
                tracker = trackers[c]
                for pe in range(pes):
                    if filled[c][pe]:
                        continue
                    for donor in donors:
                        def _eligible(row, _pe=pe, _tracker=tracker):
                            expiry = _tracker.get((_pe, row), 0)
                            return expiry <= cycle, expiry

                        stolen, blocked, skips = pools[donor].steal(
                            _eligible, steal_tries
                        )
                        if report is not None:
                            report.raw_skips += skips
                        if blocked is not None and (
                            blocked_min is None or blocked < blocked_min
                        ):
                            blocked_min = blocked
                        if stolen is None:
                            continue
                        row, element_index, home_pe = stolen
                        grid.place(
                            cycle,
                            pe,
                            ScheduledElement(
                                row=row,
                                col=int(tile.cols[element_index]),
                                value=float(tile.values[element_index]),
                                origin_channel=donor,
                                origin_pe=home_pe,
                            ),
                        )
                        tracker[(pe, row)] = cycle + distance
                        filled[c][pe] = True
                        placed_any = True
                        total -= 1
                        if report is not None:
                            report.record_migration(c, donor)
                        break

        if placed_any:
            cycle += 1
            continue
        # Nothing could issue: jump ahead to the next cycle where a waiting
        # row (home side) or a RAW-blocked migration (destination side)
        # becomes eligible.  Progress is guaranteed because every non-empty
        # row sits in some home waiting heap.
        candidates = [blocked_min] if blocked_min is not None else []
        for pool in pools:
            if pool.remaining:
                head = pool.min_waiting_cycle()
                if head is not None:
                    candidates.append(head)
        cycle = max(cycle + 1, min(candidates)) if candidates else cycle + 1

    for grid in grids:
        grid.ensure_length(cycle)
    return grids


# ---------------------------------------------------------------------------
# pass-pipeline wiring
# ---------------------------------------------------------------------------


def _crhcs_migrator(elements, config, options, report):
    """Kernel adapter for the pass pipeline (``migrate:crhcs``)."""
    return migrate_elements(
        elements,
        config,
        options["migration_span"],
        steal_tries=options.get("steal_tries", DEFAULT_STEAL_TRIES),
        report=report,
    )


def _rebuild_builder(tile, config, options, report):
    """Kernel adapter for the pass pipeline (``build:crhcs_rebuild``)."""
    return rebuild_grids(
        tile,
        config,
        options["migration_span"],
        steal_tries=options.get("steal_tries", DEFAULT_STEAL_TRIES),
        report=report,
    )


register_migrator(
    "crhcs",
    _crhcs_migrator,
    option_keys=("migration_span", "steal_tries"),
    version=CRHCS_VERSION,
)
register_builder(
    "crhcs_rebuild",
    _rebuild_builder,
    option_keys=("migration_span", "steal_tries"),
    uses_report=True,
    version=CRHCS_VERSION,
)

#: Pass compositions of the two CrHCS modes.
CRHCS_PASSES = (
    "build:pe_aware", "migrate:crhcs", "compact", "trim", "verify",
)
CRHCS_REBUILD_PASSES = ("build:crhcs_rebuild", "compact", "trim", "verify")


def _crhcs_options(config: AcceleratorConfig, kwargs: dict) -> dict:
    """Resolved kernel options (span defaulted from the config)."""
    return {
        "migration_span": _resolve_span(
            config, kwargs.get("migration_span")
        ),
        "steal_tries": kwargs.get("steal_tries", DEFAULT_STEAL_TRIES),
    }


def _crhcs_plan(config: AcceleratorConfig, kwargs: dict):
    mode = kwargs.get("mode", "migrate")
    if mode == "migrate":
        names = CRHCS_PASSES
    elif mode == "rebuild":
        names = CRHCS_REBUILD_PASSES
    else:
        raise SchedulingError(f"unknown CrHCS mode {mode!r}")
    return resolve_passes(names, _crhcs_options(config, kwargs))


def _crhcs_rebuild_plan(config: AcceleratorConfig, kwargs: dict):
    return resolve_passes(
        CRHCS_REBUILD_PASSES, _crhcs_options(config, kwargs)
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def schedule_crhcs_tile(
    tile: Tile,
    config: AcceleratorConfig,
    migration_span: Optional[int] = None,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    mode: str = "migrate",
    report: Optional[MigrationReport] = None,
) -> Schedule:
    """Schedule one tile with CrHCS and equalise the channel lists."""
    span = _resolve_span(config, migration_span)
    tile_report = MigrationReport()
    if mode == "migrate":
        grids = migrate_elements(
            pe_aware_elements(tile, config), config, span,
            steal_tries=steal_tries, report=tile_report,
        )
        scheme = "crhcs"
    elif mode == "rebuild":
        grids = rebuild_grids(
            tile, config, span, steal_tries=steal_tries, report=tile_report
        )
        scheme = "crhcs_rebuild"
    else:
        raise SchedulingError(f"unknown CrHCS mode {mode!r}")
    if report is not None:
        report.merge(tile_report)
    schedule = Schedule(
        config=config,
        grids=grids,
        scheme=scheme,
        row_base=tile.row_base,
        col_base=tile.col_base,
        migrated_count=tile_report.migrated,
        migration_span=span,
    )
    schedule.equalise()
    return schedule


@register_scheme(
    name="crhcs",
    version=CRHCS_VERSION,
    default_config=DEFAULT_CHASON,
    power_key="chason",
    accelerator_name="chason",
    report_kwarg=True,
    description="cross-HBM-channel OoO with data migration (Fig. 2c, §3)",
    passes=CRHCS_PASSES,
    plan=_crhcs_plan,
)
def schedule_crhcs(
    matrix: Matrix,
    config: AcceleratorConfig,
    migration_span: Optional[int] = None,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    mode: str = "migrate",
    max_rows_per_pass: int = 0,
    report: Optional[MigrationReport] = None,
    _pass_cache=None,
) -> TiledSchedule:
    """Schedule a whole matrix with CrHCS (§3)."""
    t = telemetry.get()
    kwargs = {
        "migration_span": migration_span,
        "steal_tries": steal_tries,
        "mode": mode,
    }
    plan = _crhcs_plan(config, kwargs)
    span_value = _resolve_span(config, migration_span)
    manager = PassManager(
        plan,
        scheme="crhcs" if mode == "migrate" else "crhcs_rebuild",
        migration_span=span_value,
    )
    with t.span("schedule.crhcs", nnz=matrix.nnz, mode=mode) as span:
        schedule = manager.run(
            matrix, config,
            max_rows_per_pass=max_rows_per_pass, cache=_pass_cache,
        )
        span.annotate(tiles=len(schedule.tiles))
    # The manager aggregates this call's migrations tile by tile (the
    # caller's report, if any, may span several matrices), so the
    # telemetry counters carry exactly this matrix's contribution.
    local_report = manager.last_report
    if t.enabled and local_report is not None:
        t.counter("scheduler.crhcs.matrices", 1)
        t.counter("scheduler.crhcs.tiles", len(schedule.tiles))
        t.counter("scheduler.crhcs.nnz", matrix.nnz)
        t.counter("scheduler.crhcs.migrated", local_report.migrated)
        t.counter("scheduler.crhcs.own_issues", local_report.own_issues)
        t.counter("scheduler.crhcs.raw_skips", local_report.raw_skips)
        # The §5.3 per-channel-pair migration traffic, folded from the
        # report's (destination, donor) Counter.
        for (dest, donor), count in sorted(local_report.pair_counts.items()):
            t.counter(
                "scheduler.crhcs.migrated_pair", count,
                dest=dest, donor=donor,
            )
    if report is not None and local_report is not None:
        report.merge(local_report)
    return schedule


@register_scheme(
    name="crhcs_rebuild",
    version=CRHCS_VERSION,
    default_config=DEFAULT_CHASON,
    power_key="chason",
    accelerator_name="chason",
    report_kwarg=True,
    description="CrHCS rebuild mode: schedule from scratch, span-aware",
    passes=CRHCS_REBUILD_PASSES,
    plan=_crhcs_rebuild_plan,
)
def schedule_crhcs_rebuild(
    matrix: Matrix,
    config: AcceleratorConfig,
    migration_span: Optional[int] = None,
    steal_tries: int = DEFAULT_STEAL_TRIES,
    max_rows_per_pass: int = 0,
    report: Optional[MigrationReport] = None,
    _pass_cache=None,
) -> TiledSchedule:
    """CrHCS in ``rebuild`` mode under its registry name."""
    return schedule_crhcs(
        matrix,
        config,
        migration_span=migration_span,
        steal_tries=steal_tries,
        mode="rebuild",
        max_rows_per_pass=max_rows_per_pass,
        report=report,
        _pass_cache=_pass_cache,
    )
