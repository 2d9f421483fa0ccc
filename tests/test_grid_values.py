"""Grids are values: migration lays each tile's lists out once, right-sized
and read-only, and ``reschedule`` snapshots share their planes."""

import numpy as np
import pytest

from repro.config import DEFAULT_CHASON
from repro.formats.coo import COOMatrix
from repro.matrices.generators import uniform_random
from repro.pipeline import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling.base import ScheduledElement
from repro.scheduling.passes import schedules_identical
from repro.scheduling.serialize import (
    deserialize_schedule,
    serialize_schedule,
)


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
