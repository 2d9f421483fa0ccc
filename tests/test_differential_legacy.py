"""Differential test: the fast schedulers vs the legacy slot-at-a-time
builders, slot-for-slot, over a seeded mini-corpus, hypothesis-drawn
small configurations and the 128 x 128 all-migrate regime; and a
migrated tile read before its layout vs the same tile read after it."""

import copy
import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.config import DEFAULT_CHASON, DEFAULT_SERPENS, ChasonConfig
from repro.formats.coo import COOMatrix
from repro.matrices.collection import corpus_specs
from repro.matrices.generators import uniform_random
from repro.scheduling.base import Schedule, TiledSchedule, TileElements
from repro.scheduling.crhcs import (
    MigrationReport,
    migrate_elements,
    migrate_grids,
    rebuild_grids,
    schedule_crhcs,
)
from repro.scheduling.legacy import (
    legacy_migrate_grids,
    legacy_schedule_crhcs,
    legacy_schedule_pe_aware,
)
from repro.scheduling.pe_aware import (
    pe_aware_elements,
    pe_aware_grids,
    schedule_pe_aware,
)
from repro.scheduling.serialize import serialize_schedule
from repro.scheduling.window import tile_matrix
from repro.sim.plan import compile_plan

MINI_CORPUS = list(corpus_specs(count=30, nnz_cap=4_000))


def _assert_schedules_identical(fast, slow):
    assert fast.scheme == slow.scheme
    assert len(fast.tiles) == len(slow.tiles)
    for fast_tile, slow_tile in zip(fast.tiles, slow.tiles):
        assert fast_tile.row_base == slow_tile.row_base
        assert fast_tile.col_base == slow_tile.col_base
        assert fast_tile.stream_cycles == slow_tile.stream_cycles
        for fast_grid, slow_grid in zip(fast_tile.grids, slow_tile.grids):
            assert fast_grid.length == slow_grid.length
            assert fast_grid.element_count == slow_grid.element_count
            assert dict(fast_grid.occupied.items()) == dict(
                slow_grid.occupied.items()
            )


@pytest.mark.parametrize(
    "spec", MINI_CORPUS, ids=[f"corpus{s.index}" for s in MINI_CORPUS]
)
def test_pe_aware_matches_legacy(spec):
    matrix = spec.generate()
    fast = schedule_pe_aware(matrix, DEFAULT_SERPENS)
    slow = legacy_schedule_pe_aware(matrix, DEFAULT_SERPENS)
    _assert_schedules_identical(fast, slow)


@pytest.mark.parametrize(
    "spec", MINI_CORPUS, ids=[f"corpus{s.index}" for s in MINI_CORPUS]
)
def test_crhcs_matches_legacy(spec):
    matrix = spec.generate()
    fast_report = MigrationReport()
    slow_report = MigrationReport()
    fast = schedule_crhcs(matrix, DEFAULT_CHASON, report=fast_report)
    slow = legacy_schedule_crhcs(matrix, DEFAULT_CHASON, report=slow_report)
    _assert_schedules_identical(fast, slow)
    assert fast_report.migrated == slow_report.migrated
    assert fast_report.own_issues == slow_report.own_issues
    assert fast_report.raw_skips == slow_report.raw_skips
    assert dict(fast_report.pair_counts) == dict(slow_report.pair_counts)


def test_crhcs_matches_legacy_wider_span():
    """Spans > 1 exercise the cross-step RAW tracker carry-over."""
    from dataclasses import replace

    config = replace(DEFAULT_CHASON, migration_span=2)
    for spec in MINI_CORPUS[:6]:
        matrix = spec.generate()
        fast = schedule_crhcs(matrix, config)
        slow = legacy_schedule_crhcs(matrix, config)
        _assert_schedules_identical(fast, slow)


def _grid_contents(grids):
    """Every field a grid holds, plane bytes included."""
    return [
        (g.channel_id, g.length, g.capacity, g.element_count,
         [plane.tobytes() for plane in (g._value, g._row, g._col,
                                        g._origin_channel, g._origin_pe)])
        for g in grids
    ]


def _assert_reports_identical(fast, slow):
    assert (fast.migrated, fast.own_issues, fast.raw_skips) == (
        slow.migrated, slow.own_issues, slow.raw_skips
    )
    assert dict(fast.pair_counts) == dict(slow.pair_counts)


@st.composite
def migration_cases(draw):
    """A small random configuration, matrix, span and ``steal_tries``."""
    channels = draw(st.integers(2, 6))
    pes = draw(st.integers(1, 8))
    config = ChasonConfig(
        sparse_channels=channels,
        pes_per_channel=pes,
        scug_size=min(4, pes),
        accumulator_latency=draw(st.integers(1, 12)),
    )
    n_rows = draw(st.integers(1, 96))
    n_cols = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = n_rows * n_cols
    nnz = int(rng.integers(0, min(cells, 600) + 1))
    flat = np.sort(rng.choice(cells, size=nnz, replace=False))
    matrix = COOMatrix(
        (n_rows, n_cols), flat // n_cols, flat % n_cols,
        rng.uniform(0.5, 1.5, size=nnz).astype(np.float32),
    )
    span = draw(st.integers(1, channels - 1))
    steal_tries = draw(st.integers(1, 9))
    return config, matrix, span, steal_tries


@settings(max_examples=400, deadline=None)
@given(migration_cases())
def test_migrate_grids_matches_legacy_walk(case):
    """Every tile, report field and slot agrees with the legacy walk."""
    config, matrix, span, steal_tries = case
    for tile in tile_matrix(matrix, config):
        built = pe_aware_grids(tile, config)
        before = _grid_contents(built)
        slow_grids = copy.deepcopy(built)
        fast_report = MigrationReport()
        slow_report = MigrationReport()
        fast_grids = migrate_grids(
            built, config, span,
            steal_tries=steal_tries, report=fast_report,
        )
        assert _grid_contents(built) == before  # the input is untouched
        legacy_migrate_grids(
            slow_grids, config, span,
            steal_tries=steal_tries, report=slow_report,
        )
        assert [(g.length, dict(g.occupied.items())) for g in fast_grids] == [
            (g.length, dict(g.occupied.items())) for g in slow_grids
        ]
        _assert_reports_identical(fast_report, slow_report)


def _foreign_count(grids):
    """Elements scheduled away from their origin channel."""
    return sum(
        int(np.count_nonzero(
            (g._origin_channel >= 0) & (g._origin_channel != g.channel_id)
        ))
        for g in grids
    )


@pytest.mark.parametrize("span", [1, 2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_tables_holding_foreign_elements_match_legacy(seed, span):
    """Migrating grids that already hold migrated elements: the output
    of a first migration and of the rebuild mode.  Foreign elements are
    never candidates and keep their slots, so they stay occupied through
    the whole ring; both walks must agree on every slot and report."""
    rng = np.random.default_rng((seed, span))
    channels = int(rng.integers(span + 1, 9))
    pes = int(rng.integers(1, 9))
    config = ChasonConfig(
        sparse_channels=channels, pes_per_channel=pes,
        scug_size=min(4, pes), accumulator_latency=int(rng.integers(1, 13)),
    )
    n_rows = int(rng.integers(8, 97))
    n_cols = int(rng.integers(4, 49))
    matrix = uniform_random(
        n_rows, n_cols, min(int(rng.integers(20, 301)), n_rows * n_cols),
        seed=seed,
    )
    steal_tries = int(rng.integers(1, 10))
    foreign = 0
    for tile in tile_matrix(matrix, config):
        first_span = int(rng.integers(1, channels))
        sources = (
            migrate_grids(pe_aware_grids(tile, config), config, first_span),
            rebuild_grids(tile, config, first_span),
        )
        for source in sources:
            foreign += _foreign_count(source)
            slow_grids = copy.deepcopy(source)
            fast_report = MigrationReport()
            slow_report = MigrationReport()
            fast_grids = migrate_grids(
                source, config, span,
                steal_tries=steal_tries, report=fast_report,
            )
            legacy_migrate_grids(
                slow_grids, config, span,
                steal_tries=steal_tries, report=slow_report,
            )
            assert [
                (g.length, dict(g.occupied.items())) for g in fast_grids
            ] == [
                (g.length, dict(g.occupied.items())) for g in slow_grids
            ]
            _assert_reports_identical(fast_report, slow_report)
    assert foreign > 0


def _migrate_against_legacy(config, matrix, span, steal_tries):
    """Run both walks on every tile; return the holes the walk jumped."""
    jumped = 0
    for tile in tile_matrix(matrix, config):
        built = pe_aware_grids(tile, config)
        slow_grids = copy.deepcopy(built)
        fast_report = MigrationReport()
        slow_report = MigrationReport()
        with telemetry.capture() as cap:
            fast_grids = migrate_grids(
                built, config, span,
                steal_tries=steal_tries, report=fast_report,
            )
        jumped += sum(
            r["value"] for r in cap.records
            if r["name"] == "scheduler.crhcs.jumped_holes"
        )
        legacy_migrate_grids(
            slow_grids, config, span,
            steal_tries=steal_tries, report=slow_report,
        )
        assert [(g.length, dict(g.occupied.items())) for g in fast_grids] == [
            (g.length, dict(g.occupied.items())) for g in slow_grids
        ]
        _assert_reports_identical(fast_report, slow_report)
    return jumped


def _one_row_matrix(n_rows, row, length, extra=()):
    """One long row (columns 0..length-1) plus ``extra`` (row, col) cells."""
    cells = [(row, col) for col in range(length)] + list(extra)
    rows, cols = zip(*sorted(cells))
    return COOMatrix(
        (n_rows, length), np.array(rows), np.array(cols),
        np.linspace(0.5, 1.5, len(cells)).astype(np.float32),
    )


def test_jump_in_an_empty_destination_matches_legacy():
    """Channel 0 owns no row; its donor's whole list is one long row, so
    after a cycle of takes every PE waits out the RAW distance and the
    walk jumps whole cycles."""
    config = ChasonConfig(
        sparse_channels=2, pes_per_channel=4, scug_size=4,
        accumulator_latency=6,
    )
    matrix = _one_row_matrix(8, row=4, length=40)
    assert _migrate_against_legacy(config, matrix, 1, 8) > 0


def test_jump_in_a_nonempty_destination_with_span_2_matches_legacy():
    """Channel 0 keeps its own row interleaved with the holes it fills
    from the long row next door, so its jumps count around occupied
    slots; at span 2, channel 1's second step (from two channels away)
    jumps after its first step has filled slots."""
    config = ChasonConfig(
        sparse_channels=3, pes_per_channel=2, scug_size=2,
        accumulator_latency=3,
    )
    own = [(0, col) for col in range(0, 30, 2)]
    matrix = _one_row_matrix(6, row=2, length=30, extra=own + [
        (4, col) for col in range(30)
    ])
    grids = pe_aware_grids(tile_matrix(matrix, config)[0], config)
    assert grids[0].element_count == len(own)
    assert _migrate_against_legacy(config, matrix, 2, 8) > 0


def test_steal_tries_beyond_the_donor_queue_matches_legacy():
    """A window wider than the donor's whole queue: every failed hole
    skips the queue length, not ``steal_tries``."""
    config = ChasonConfig(
        sparse_channels=2, pes_per_channel=2, scug_size=2,
        accumulator_latency=5,
    )
    matrix = _one_row_matrix(4, row=2, length=6)
    report = MigrationReport()
    grids = pe_aware_grids(tile_matrix(matrix, config)[0], config)
    migrate_grids(grids, config, 1, steal_tries=50, report=report)
    assert 0 < report.raw_skips
    assert _migrate_against_legacy(config, matrix, 1, 50) > 0


@pytest.mark.parametrize("seed", range(6))
def test_all_migrate_regime_matches_legacy(seed):
    """128 x 128 uniform matrices with 1,800 non-zeros: one row per PE, so
    every non-zero migrates and the walk is all of the migration pass."""
    matrix = uniform_random(128, 128, 1_800, seed=seed)
    fast_report = MigrationReport()
    slow_report = MigrationReport()
    fast = schedule_crhcs(matrix, DEFAULT_CHASON, report=fast_report)
    slow = legacy_schedule_crhcs(matrix, DEFAULT_CHASON, report=slow_report)
    _assert_schedules_identical(fast, slow)
    _assert_reports_identical(fast_report, slow_report)
    assert fast_report.migrated == 1_800
    assert fast_report.own_issues == 0


# -- COO input the generators never produce -----------------------------------

#: Small configurations whose PEs each own several rows in several
#: round-robin windows of a 200-row matrix (windows of 18 and 80 rows).
UNSORTED_CONFIGS = (
    ChasonConfig(sparse_channels=3, pes_per_channel=2, scug_size=2,
                 accumulator_latency=3, column_window=64),
    ChasonConfig(sparse_channels=4, pes_per_channel=4, scug_size=4,
                 accumulator_latency=5, column_window=64),
)


def _shuffled_coo_with_repeats(seed, shape=(200, 150), nnz=1_200):
    """Entries in random order, about 10 % of them repeating an earlier
    coordinate with a different value (kept, not summed)."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    repeat = rng.random(nnz) < 0.1
    source = rng.integers(0, nnz, int(repeat.sum()))
    rows[repeat] = rows[source]
    cols[repeat] = cols[source]
    return COOMatrix(shape, rows, cols, rng.uniform(0.5, 1.5, nnz))


def _assert_both_schemes_match_legacy(matrix, config, max_rows):
    fast = schedule_pe_aware(matrix, config, max_rows_per_pass=max_rows)
    slow = legacy_schedule_pe_aware(matrix, config, max_rows_per_pass=max_rows)
    _assert_schedules_identical(fast, slow)
    fast_report = MigrationReport()
    slow_report = MigrationReport()
    fast = schedule_crhcs(matrix, config, max_rows_per_pass=max_rows,
                          report=fast_report)
    slow = legacy_schedule_crhcs(matrix, config, max_rows_per_pass=max_rows,
                                 report=slow_report)
    _assert_schedules_identical(fast, slow)
    _assert_reports_identical(fast_report, slow_report)


@pytest.mark.parametrize("max_rows", [0, 64])
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("config", UNSORTED_CONFIGS, ids=["3x2", "4x4"])
def test_shuffled_coo_with_repeated_coordinates_matches_legacy(
    config, seed, max_rows
):
    """Ties in the build's (PE, row, column) sort keep input order, as
    the legacy builder's do, so repeated coordinates stream in the order
    they were given."""
    matrix = _shuffled_coo_with_repeats(seed)
    keys = matrix.rows * matrix.n_cols + matrix.cols
    assert np.unique(keys).size < matrix.nnz
    assert np.any(np.diff(keys) < 0)
    _assert_both_schemes_match_legacy(matrix, config, max_rows)


@pytest.mark.parametrize("cells", [
    (),
    ((5, 7),),
    ((0, 0), (70, 3), (70, 3), (140, 90)),
], ids=["empty", "one", "one-per-tile"])
def test_empty_and_one_element_tiles_match_legacy(cells):
    """An all-empty matrix (one empty tile) and tiles holding one
    element (twice at the same coordinate in one of them)."""
    rows = np.array([row for row, _ in cells], dtype=np.int64)
    cols = np.array([col for _, col in cells], dtype=np.int64)
    values = np.linspace(0.5, 1.5, len(cells))
    matrix = COOMatrix((150, 100), rows, cols, values)
    for config in UNSORTED_CONFIGS:
        _assert_both_schemes_match_legacy(matrix, config, 64)


def test_coordinates_past_16_bits_match_legacy():
    """Windows wider than 2^16 rows and columns: the build's sort takes
    two 16-bit passes on each coordinate."""
    wide = 1 << 17
    config = ChasonConfig(sparse_channels=3, pes_per_channel=2, scug_size=2,
                          accumulator_latency=3, column_window=wide)
    matrix = _shuffled_coo_with_repeats(3, shape=(wide, wide), nnz=800)
    assert matrix.rows.max() >= 1 << 16 and matrix.cols.max() >= 1 << 16
    _assert_both_schemes_match_legacy(matrix, config, wide)


# ---------------------------------------------------------------------------
# A pending tile (migrated, not yet laid out) reads like a laid-out one.
# ---------------------------------------------------------------------------


def _planes_of(grid):
    return (grid._value, grid._row, grid._col, grid._origin_channel,
            grid._origin_pe)


def _copies(grids):
    """A copy's contents and whether its planes are writable."""
    return _grid_contents(grids), [
        [plane.flags.writeable for plane in _planes_of(g)] for g in grids
    ]


def _as_schedule(grids, tile, config, span):
    schedule = Schedule(config=config, grids=grids, scheme="crhcs",
                        migration_span=span)
    schedule.equalise()
    return TiledSchedule(config=config, tiles=[schedule], scheme="crhcs",
                         n_rows=tile.n_rows, n_cols=tile.n_cols)


def _plan_fields(plan):
    return [
        value.tobytes() if isinstance(value, np.ndarray) else value
        for value in (getattr(plan, f.name) for f in dataclasses.fields(plan))
    ]


def _table_bytes(table):
    return table.pes, table.lengths, [
        array.tobytes() for array in table._fields()
    ]


def _arrays(read):
    """A per-grid reader of array tuples, as bytes."""
    return lambda grids, *_: [
        [array.tobytes() for array in read(g)] for g in grids
    ]


#: Every way to read a tile's planes: ``reader(grids, tile, config,
#: span)`` returns something comparable.
PLANE_READERS = {
    "slot": lambda grids, *_: [
        [g.slot(cycle, pe) for cycle in range(g.capacity + 1)
         for pe in range(g.pes)] for g in grids
    ],
    "occupied": lambda grids, *_: [
        (dict(g.occupied.items()), list(g.occupied)) for g in grids
    ],
    "flat_elements": _arrays(lambda g: g.flat_elements()),
    "element_arrays": _arrays(lambda g: g.element_arrays()),
    "occupied_mask": _arrays(lambda g: (g.occupied_mask(),
                                        g.occupied_mask(g.length + 2))),
    "hole_coords": _arrays(lambda g: g.hole_coords()),
    "iter_elements": lambda grids, *_: [
        list(g.iter_elements()) for g in grids
    ],
    "own_elements_tail_first": lambda grids, *_: [
        g.own_elements_tail_first() for g in grids
    ],
    "copy.copy": lambda grids, *_: _copies([copy.copy(g) for g in grids]),
    "copy.deepcopy": lambda grids, *_: _copies(copy.deepcopy(grids)),
    "pickle": lambda grids, *_: _copies(pickle.loads(pickle.dumps(grids))),
    "serialize_schedule": lambda grids, *context: serialize_schedule(
        _as_schedule(grids, *context)
    ),
    "compile_plan": lambda grids, tile, config, span: _plan_fields(
        compile_plan(_as_schedule(grids, tile, config, span), config)
    ),
    "Schedule.validate": lambda grids, *context: _as_schedule(
        grids, *context
    ).validate(),
    "TileElements.of_grids": lambda grids, *_: _table_bytes(
        TileElements.of_grids(grids)
    ),
}


def _outcome(read, grids, context):
    """What a reader returns, or the error it raises."""
    try:
        return read(grids, *context)
    except Exception as error:  # compared, not swallowed
        return type(error).__name__, str(error)


def _laid_out(make):
    """A tile migrated and laid out, whose headers (taken before the
    layout) match the planes: each capacity ends at a last occupied
    cycle."""
    grids = make()
    headers = [(g.length, g.capacity, g.element_count) for g in grids]
    for grid in grids:
        _planes_of(grid)
    assert headers == [
        (g.length, g._value.shape[0],
         int(np.count_nonzero(g._origin_channel >= 0)))
        for g in grids
    ]
    assert all(
        g.capacity == 0 or (g._origin_channel[-1] >= 0).any()
        for g in grids
    )
    return grids


def _assert_reads_like_laid_out(make, tile, config, span):
    """``make()`` migrates one tile afresh.  Every plane reader returns
    on a pending tile what it returns once the tile is laid out, and
    lays the tile out once."""
    context = (tile, config, span)
    for name, read in PLANE_READERS.items():
        expected = _outcome(read, _laid_out(make), context)
        pending = make()
        with telemetry.capture() as cap:
            got = _outcome(read, pending, context)
        assert got == expected, name
        layouts = sum(r["value"] for r in cap.records
                      if r["name"] == "scheduler.layout.tiles")
        # Once; a reader may skip the planes of a tile with no element.
        assert layouts == 1 or (layouts == 0 and not tile.nnz), name


@pytest.mark.parametrize("span", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_a_pending_tile_reads_like_a_laid_out_one(seed, span):
    """Each tile's PE-aware table migrated, and second migrations of a
    first migration's and of the rebuild mode's grids (tables holding
    foreign elements), over ``steal_tries`` 1-20."""
    rng = np.random.default_rng((seed, span, 30))
    channels = int(rng.integers(max(span, 1) + 1, 9))
    pes = int(rng.integers(1, 9))
    # Every donor offset gets its ScUG, so the simulator compiles
    # second migrations too.
    config = ChasonConfig(
        sparse_channels=channels, pes_per_channel=pes,
        scug_size=min(4, pes), accumulator_latency=int(rng.integers(1, 13)),
        migration_span=channels - 1,
    )
    n_rows = int(rng.integers(8, 97))
    n_cols = int(rng.integers(4, 49))
    matrix = uniform_random(
        n_rows, n_cols, min(int(rng.integers(20, 301)), n_rows * n_cols),
        seed=seed,
    )
    steal_tries = int(rng.integers(1, 21))
    for tile in tile_matrix(matrix, config):
        first_span = int(rng.integers(0, channels))
        for table in (
            pe_aware_elements(tile, config),
            TileElements.of_grids(migrate_grids(
                pe_aware_grids(tile, config), config, first_span)),
            TileElements.of_grids(rebuild_grids(tile, config, first_span)),
        ):
            _assert_reads_like_laid_out(
                partial(migrate_elements, table, config, span,
                        steal_tries=steal_tries),
                tile, config, span,
            )


@settings(max_examples=40, deadline=None)
@given(migration_cases(), st.integers(0, 3), st.integers(1, 20))
def test_a_drawn_pending_tile_reads_like_a_laid_out_one(
    case, span, steal_tries
):
    config, matrix, _, _ = case
    span = min(span, config.sparse_channels - 1)
    for tile in tile_matrix(matrix, config):
        grids = pe_aware_grids(tile, config)
        _assert_reads_like_laid_out(
            partial(migrate_grids, grids, config, span,
                    steal_tries=steal_tries),
            tile, config, span,
        )
