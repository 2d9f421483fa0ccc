"""Grids are values: a tile's lists are laid out once, right-sized and
read-only, on the first plane read, from the build's or migration's
element table, and ``reschedule`` snapshots share their planes."""

import copy
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.config import DEFAULT_CHASON, ChasonConfig, HBMConfig
from repro.formats.coo import COOMatrix
from repro.matrices.generators import power_law_rows, uniform_random
from repro.pipeline import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling import walk_kernel
from repro.scheduling.base import ChannelGrid, Schedule, ScheduledElement
from repro.scheduling.greedy import greedy_grids
from repro.scheduling.legacy import legacy_migrate_grids
from repro.scheduling.passes import (
    PassManager,
    resolve_passes,
    schedules_identical,
    tiles_identical,
)
from repro.scheduling.serialize import (
    deserialize_schedule,
    serialize_schedule,
)
from repro.scheduling.stats import MigrationReport
from repro.scheduling.window import tile_matrix


def _planes(grid):
    return (grid._value, grid._row, grid._col, grid._origin_channel,
            grid._origin_pe)


def _assert_read_only(schedule):
    for tile in schedule.tiles:
        for grid in tile.grids:
            assert not any(plane.flags.writeable for plane in _planes(grid))
    grid = next(g for t in schedule.tiles for g in t.grids if g.capacity)
    cycle, pe, element = next(grid.iter_elements())
    with pytest.raises(ValueError):
        grid._value[cycle, pe] = element.value + 1.0
    with pytest.raises(ValueError):
        grid.set_slot(cycle, pe, element._replace(value=element.value + 1.0))
    assert grid.slot(cycle, pe) == element


def test_cached_crhcs_schedules_hold_only_live_rows():
    """Each grid's capacity is its last occupied cycle + 1, and a tile's
    distinct plane buffers hold exactly those rows: 40 bytes a slot."""
    runner = PipelineRunner(store=ArtifactStore(capacity=64))
    for seed in range(20):
        matrix = uniform_random(128, 128, 1_800, seed=seed)
        schedule = runner.schedule(matrix, "crhcs").schedule
        buffers = {}
        live = 0
        for tile in schedule.tiles:
            for grid in tile.grids:
                cycles = grid.element_arrays()[0]
                last = int(cycles[-1]) if cycles.size else -1
                assert grid.capacity == last + 1
                live += grid.capacity * grid.pes * 40
                for plane in _planes(grid):
                    base = plane if plane.base is None else plane.base
                    buffers[id(base)] = base.nbytes
        assert sum(buffers.values()) == live


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_a_pending_tile_holds_no_more_than_a_laid_out_one(
    monkeypatch, kernel
):
    """A cached, never-read ``crhcs`` analysis keeps its migration's
    element table and takes (two int64 arrays) until its first plane
    read; that costs no more memory than the laid-out planes it waits
    for (traced allocations per matrix, 20 uniform 128 x 128 matrices
    with 1,800 non-zeros, on the kernels or the NumPy build and Python
    walk)."""
    if not kernel:
        monkeypatch.setattr(walk_kernel, "compiled_build", lambda: None)
        monkeypatch.setattr(walk_kernel, "compiled_walk", lambda: None)
    matrices = [uniform_random(128, 128, 1_800, seed=s) for s in range(20)]
    runner = PipelineRunner(store=ArtifactStore(capacity=256))
    runner.analyze(uniform_random(128, 128, 1_800, seed=99), "crhcs")
    runner = PipelineRunner(store=ArtifactStore(capacity=256))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for matrix in matrices:
            runner.analyze(matrix, "crhcs")
        gc.collect()
        pending = tracemalloc.get_traced_memory()[0] - base
        for matrix in matrices:
            for tile in runner.schedule(matrix, "crhcs").schedule.tiles:
                for grid in tile.grids:
                    grid._value
        gc.collect()
        laid_out = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert pending <= laid_out


def test_cached_and_decoded_schedules_are_read_only():
    runner = PipelineRunner(store=ArtifactStore(capacity=8))
    matrix = uniform_random(128, 128, 1_800, seed=41)
    cold = runner.schedule(matrix, "crhcs")
    cached = runner.schedule(matrix, "crhcs")
    assert runner.store.stage_hits("schedule") == 1
    assert cached.schedule is cold.schedule
    _assert_read_only(cached.schedule)
    decoded = deserialize_schedule(
        serialize_schedule(cached.schedule), DEFAULT_CHASON
    )
    assert schedules_identical(decoded, cached.schedule)
    _assert_read_only(decoded)


def test_place_built_schedules_are_read_only():
    """Builders that place elements one at a time hand back writable
    grids; the build pass makes them values too."""
    runner = PipelineRunner()
    matrix = uniform_random(128, 128, 1_800, seed=42)
    for scheme in ("greedy_ooo", "row_based", "row_split", "crhcs_rebuild"):
        _assert_read_only(runner.schedule(matrix, scheme).schedule)


def test_warm_reschedule_shares_planes_with_its_snapshots(monkeypatch):
    rng = np.random.default_rng(11)
    n, nnz = 1200, 8_000
    matrix = COOMatrix(
        shape=(n, n),
        rows=rng.integers(0, n, nnz),
        cols=rng.integers(0, n, nnz),
        values=rng.random(nnz) + 0.5,
    ).sum_duplicates()
    runner = PipelineRunner()
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    store = runner._reschedule_store
    restored = []
    get = store.get

    def recording_get(kind, digest):
        snapshot = get(kind, digest)
        if snapshot is not None:
            restored.append(snapshot)
        return snapshot

    monkeypatch.setattr(store, "get", recording_get)
    matrix.values[0] += 1.0
    warm = runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    tiles = warm.schedule.tiles
    assert 0 < len(restored) == runner.last_reschedule_stats.skipped[
        "migrate:crhcs"] < len(tiles)

    # Tiles resume in order, each from one snapshot: new grid headers
    # over the snapshot's planes.
    pending = list(restored)
    for tile in tiles:
        snapshot = pending[0] if pending else None
        shared = snapshot is not None and all(
            np.shares_memory(mine, theirs)
            for grid, kept in zip(tile.grids, snapshot.grids)
            if grid.capacity
            for mine, theirs in zip(_planes(grid), _planes(kept))
        )
        if shared:
            assert all(
                grid is not kept and grid.length >= kept.length
                for grid, kept in zip(tile.grids, snapshot.grids)
            )
            pending.pop(0)
    assert pending == []

    cold = PipelineRunner().schedule(matrix, "crhcs", max_rows_per_pass=150)
    assert schedules_identical(warm.schedule, cold.schedule)


def test_a_failed_write_leaves_the_grid_as_it_was():
    runner = PipelineRunner()
    schedule = runner.schedule(
        uniform_random(64, 64, 400, seed=7), "crhcs"
    ).schedule
    grid = next(g for t in schedule.tiles for g in t.grids if g.capacity)
    hole = next(
        (cycle, pe) for cycle in range(grid.capacity)
        for pe in range(grid.pes) if grid.slot(cycle, pe) is None
    )
    count = grid.element_count
    with pytest.raises(ValueError):
        grid.set_slot(*hole, ScheduledElement(0, 0, 1.0, 0, 0))
    assert grid.element_count == count
    assert grid.slot(*hole) is None


def _random_coo(seed, n, nnz):
    rng = np.random.default_rng(seed)
    return COOMatrix(
        shape=(n, n),
        rows=rng.integers(0, n, nnz),
        cols=rng.integers(0, n, nnz),
        values=rng.random(nnz) + 0.5,
    ).sum_duplicates()


@pytest.fixture
def layouts(monkeypatch):
    """Counts grid layouts (``ChannelGrid.tile_grids`` calls and the
    cycle rows they fill) and grid read-backs (``flat_elements`` calls)."""
    counts = {"layouts": 0, "rows": 0, "reads": 0}
    tile_grids = ChannelGrid.tile_grids
    flat_elements = ChannelGrid.flat_elements

    def counting_tile_grids(cls, *args, **kwargs):
        grids = tile_grids(*args, **kwargs)
        counts["layouts"] += 1
        counts["rows"] += sum(grid.capacity for grid in grids)
        return grids

    def counting_flat_elements(self):
        counts["reads"] += 1
        return flat_elements(self)

    monkeypatch.setattr(ChannelGrid, "tile_grids",
                        classmethod(counting_tile_grids))
    monkeypatch.setattr(ChannelGrid, "flat_elements", counting_flat_elements)
    return counts


def _read_every_plane(schedule):
    """Read a plane of every grid (``occupied_mask`` reads no table back)."""
    for tile in schedule.tiles:
        for grid in tile.grids:
            grid.occupied_mask()


@pytest.mark.parametrize("scheme, nnz, n, max_rows, expected", [
    # The PE-aware table goes to migration as it is; only the migrated
    # lists are laid out (the PE-aware lists would fill 2,876 rows).
    ("crhcs", 1_800, 128, 0, (1, 336)),
    ("crhcs", 20_000, 2048, 256, (8, 2_683)),
    # With nothing after the build that takes a table, the PE-aware
    # table is what a read lays out.
    ("pe_aware", 1_800, 128, 0, (1, 2_876)),
])
def test_a_cold_schedule_lays_each_tile_out_once(
    layouts, scheme, nnz, n, max_rows, expected
):
    """Compact, trim, verify and the schedule's accounting read only
    lengths and counts, so a cold schedule lays nothing out; the first
    plane read lays each tile out once, and later reads lay out nothing."""
    matrix = uniform_random(n, n, nnz, seed=0 if n == 128 else 1)
    schedule = PipelineRunner().schedule(
        matrix, scheme, max_rows_per_pass=max_rows
    ).schedule
    assert schedule.nnz == nnz and schedule.underutilization > 0
    assert (layouts["layouts"], layouts["rows"]) == (0, 0)
    _read_every_plane(schedule)
    assert (layouts["layouts"], layouts["rows"]) == expected
    _read_every_plane(schedule)
    assert (layouts["layouts"], layouts["rows"]) == expected
    assert layouts["reads"] == 0


def test_the_disk_tier_writes_the_laid_out_image(tmp_path, layouts):
    """Writing a cold schedule's ``.chsn`` image lays each tile out once,
    and the image is the one an eagerly laid-out schedule encodes."""
    matrix = uniform_random(128, 128, 1_800, seed=5)
    runner = PipelineRunner(
        store=ArtifactStore(capacity=8, disk_dir=str(tmp_path))
    )
    runner.schedule(matrix, "crhcs")
    assert layouts["layouts"] == 1
    (image,) = tmp_path.glob("*.chsn")
    eager = PipelineRunner(store=ArtifactStore(capacity=8)).schedule(
        matrix, "crhcs").schedule
    _read_every_plane(eager)
    assert image.read_bytes() == serialize_schedule(eager)


def _image_and_copies(schedule):
    copies = copy.deepcopy(schedule.tiles[0].grids)
    return serialize_schedule(schedule), [
        (grid.length, [plane.tobytes() for plane in _planes(grid)])
        for grid in copies
    ]


def test_two_threads_read_one_cached_pending_schedule(layouts):
    """A device runs two workers over one store, so two requests may
    read the planes of one cached, pending schedule at once: both get
    them, and each tile is laid out once."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(40):
            matrix = uniform_random(128, 128, 1_800, seed=seed)
            runner = PipelineRunner(store=ArtifactStore(capacity=8))
            tiles = len(runner.schedule(matrix, "crhcs").schedule.tiles)
            start = threading.Barrier(2)
            results = []

            def read():
                start.wait(timeout=30)
                try:
                    results.append(_image_and_copies(
                        runner.schedule(matrix, "crhcs").schedule))
                except Exception as error:  # reported below
                    results.append(error)

            before = layouts["layouts"]
            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert layouts["layouts"] - before == tiles
            eager = PipelineRunner(store=ArtifactStore(capacity=8)).schedule(
                matrix, "crhcs").schedule
            assert results == [_image_and_copies(eager)] * 2
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("nnz, n, max_rows", [
    (1_800, 128, 0), (20_000, 2048, 256),
])
def test_a_cold_crhcs_build_sorts_without_lexsort_or_unique(
    monkeypatch, nnz, n, max_rows
):
    """The PE-aware build orders its elements with stable radix passes
    and migration numbers its rows with a presence table: neither calls
    ``np.lexsort`` or ``np.unique`` (once each per tile before)."""
    matrix = uniform_random(n, n, nnz, seed=0 if n == 128 else 1)
    calls = {"lexsort": 0, "unique": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    PipelineRunner().schedule(matrix, "crhcs", max_rows_per_pass=max_rows)
    assert calls == {"lexsort": 0, "unique": 0}


def test_reschedule_lays_out_only_what_it_runs(layouts):
    """A warm tile resumed after its last cacheable pass lays nothing
    out; a rebuilt one lays out its build snapshot and its migrated
    lists, and migration reads the table the tile kept, not the grids."""
    matrix = _random_coo(11, 1200, 8_000)
    runner = PipelineRunner()
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    tiles = runner.last_reschedule_stats.executed["migrate:crhcs"]
    assert layouts["layouts"] == 2 * tiles and layouts["reads"] == 0

    layouts.update(layouts=0, reads=0)
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    assert runner.last_reschedule_stats.skipped["migrate:crhcs"] == tiles
    assert layouts["layouts"] == layouts["reads"] == 0

    matrix.values[0] += 1.0
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    stats = runner.last_reschedule_stats
    assert stats.executed["migrate:crhcs"] == 1
    assert layouts["layouts"] == 2 and layouts["reads"] == 0

    # A migrate-only change resumes every tile from its build snapshot,
    # whose grids migration reads back, one channel at a time.
    layouts.update(layouts=0, reads=0)
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150, steal_tries=4)
    assert runner.last_reschedule_stats.skipped["build:pe_aware"] == tiles
    assert layouts["layouts"] == tiles
    assert layouts["reads"] == tiles * DEFAULT_CHASON.sparse_channels

    layouts.update(layouts=0, reads=0)
    runner.reschedule(matrix, "pe_aware", max_rows_per_pass=150)
    runner.reschedule(matrix, "pe_aware", max_rows_per_pass=150)
    assert runner.last_reschedule_stats.skipped["build:pe_aware"] == tiles
    assert layouts["layouts"] == tiles and layouts["reads"] == 0


SMALL = ChasonConfig(
    sparse_channels=3, pes_per_channel=2, accumulator_latency=3,
    column_window=32, row_window=64, scug_size=2,
    hbm=HBMConfig(total_channels=8),
)


@pytest.mark.parametrize("config, matrix, span", [
    (DEFAULT_CHASON, uniform_random(128, 128, 1_800, seed=3), 1),
    (DEFAULT_CHASON, power_law_rows(300, 300, 3_000, seed=2), 2),
    (SMALL, power_law_rows(150, 90, 900, seed=5), 1),
    (SMALL, uniform_random(200, 64, 1_500, seed=6), 2),
])
def test_a_slot_at_a_time_build_feeds_migration(layouts, config, matrix,
                                                span):
    """``build:greedy`` grids go through migration: the pass list
    equals the legacy walk over writable copies of the same grids, tile
    for tile and report for report, each tile's grids are read back
    once, and the migrated lists are laid out once per tile, on the
    first plane read."""
    options = {"migration_span": span, "steal_tries": 8}
    manager = PassManager(
        resolve_passes(
            ("build:greedy", "migrate:crhcs", "compact", "trim", "verify"),
            options,
        ),
        scheme="crhcs",
        migration_span=span,
    )
    schedule = manager.run(matrix, config)
    tiles = tile_matrix(matrix, config)
    assert layouts["layouts"] == 0
    assert layouts["reads"] == len(tiles) * config.sparse_channels
    _read_every_plane(schedule)
    assert layouts["layouts"] == len(tiles)

    expected = MigrationReport()
    assert len(schedule.tiles) == len(tiles)
    for tile, got in zip(tiles, schedule.tiles):
        grids = greedy_grids(tile, config)
        report = MigrationReport()
        legacy_migrate_grids(grids, config, span, steal_tries=8,
                             report=report)
        reference = Schedule(
            config=config, grids=grids, scheme="crhcs",
            row_base=tile.row_base, col_base=tile.col_base,
            migrated_count=report.migrated, migration_span=span,
        )
        reference.equalise()
        assert tiles_identical(got, reference)
        expected.merge(report)
    report = manager.last_report
    assert (report.migrated, report.own_issues, report.raw_skips) == (
        expected.migrated, expected.own_issues, expected.raw_skips)
    assert report.pair_counts == expected.pair_counts
    assert report.migrated > 0
