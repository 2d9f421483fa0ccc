"""The compiled CrHCS walk: slot for slot the Python walk, and a loader
that builds it once per user, reuses it, refuses a damaged copy and
falls back to the Python walk, with one warning, where it cannot build
it."""

import ctypes
import logging
import os
import subprocess
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.config import ChasonConfig
from repro.errors import SchedulingError
from repro.formats.coo import COOMatrix
from repro.matrices.generators import uniform_random
from repro.scheduling import walk_kernel
from repro.scheduling.base import TileElements
from repro.scheduling.crhcs import (
    MigrationReport,
    migrate_elements,
    migrate_grids,
    rebuild_grids,
)
from repro.scheduling.pe_aware import pe_aware_elements, pe_aware_grids
from repro.scheduling.window import tile_matrix

needs_kernel = pytest.mark.skipif(
    walk_kernel.backend() != "c", reason="no C compiler on this host"
)


def _migration(table, config, span, steal_tries):
    """Everything one migration hands on: the headers (read before any
    plane), the planes, the report with its pair keys, the walk
    counters, or the error it raises."""
    report = MigrationReport()
    try:
        with telemetry.capture() as cap:
            grids = migrate_elements(
                table, config, span, steal_tries=steal_tries, report=report
            )
    except SchedulingError as error:
        return str(error)
    headers = [(g.length, g.capacity, g.element_count) for g in grids]
    planes = [
        [plane.tobytes() for plane in (g._value, g._row, g._col,
                                       g._origin_channel, g._origin_pe)]
        for g in grids
    ]
    return (
        headers, planes,
        (report.migrated, report.own_issues, report.raw_skips,
         list(report.pair_counts.items())),
        [(r["name"], r["value"]) for r in cap.records
         if r["name"].startswith("scheduler.crhcs.")],
    )


@st.composite
def walk_cases(draw):
    """A configuration, a matrix and the migration to run on each tile's
    PE-aware table and on second-migration tables (a first migration's
    output and the rebuild mode's)."""
    channels = draw(st.integers(2, 16))
    pes = draw(st.integers(1, 8))
    config = ChasonConfig(
        sparse_channels=channels,
        pes_per_channel=pes,
        scug_size=min(4, pes),
        accumulator_latency=draw(st.integers(1, 12)),
    )
    n_rows = draw(st.integers(1, 160))
    n_cols = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = n_rows * n_cols
    nnz = int(rng.integers(0, min(cells, 900) + 1))
    flat = np.sort(rng.choice(cells, size=nnz, replace=False))
    matrix = COOMatrix(
        (n_rows, n_cols), flat // n_cols, flat % n_cols,
        rng.uniform(0.5, 1.5, size=nnz),
    )
    span = draw(st.integers(0, channels - 1))
    first_span = draw(st.integers(0, channels - 1))
    steal_tries = draw(st.integers(1, 20))
    return config, matrix, span, first_span, steal_tries


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_the_kernel_walks_like_the_python_walk(case):
    config, matrix, span, first_span, steal_tries = case
    for tile in tile_matrix(matrix, config):
        for table in (
            pe_aware_elements(tile, config),
            TileElements.of_grids(migrate_grids(
                pe_aware_grids(tile, config), config, first_span)),
            TileElements.of_grids(rebuild_grids(tile, config, first_span)),
        ):
            on_kernel = _migration(table, config, span, steal_tries)
            with mock.patch.object(walk_kernel, "compiled_walk",
                                   lambda: None):
                on_python = _migration(table, config, span, steal_tries)
            assert on_kernel == on_python


def test_an_invalid_span_reads_the_same_on_both_walks():
    config = ChasonConfig(sparse_channels=3, pes_per_channel=2,
                          scug_size=2, accumulator_latency=3)
    table = pe_aware_elements(
        tile_matrix(uniform_random(12, 12, 40, seed=1), config)[0], config
    )
    on_kernel = _migration(table, config, 3, 8)
    with mock.patch.object(walk_kernel, "compiled_walk", lambda: None):
        assert _migration(table, config, 3, 8) == on_kernel
    assert "migration span 3 invalid for 3 channels" in on_kernel


# -- the loader ---------------------------------------------------------------


CONFIG = ChasonConfig(sparse_channels=4, pes_per_channel=4, scug_size=4,
                      accumulator_latency=5)


def _outputs():
    """A few migrations' full outputs on whichever walk is loaded."""
    matrix = uniform_random(64, 64, 500, seed=3)
    return [
        _migration(pe_aware_elements(tile, CONFIG), CONFIG, span, 8)
        for tile in tile_matrix(matrix, CONFIG) for span in (1, 2, 3)
    ]


@pytest.fixture
def compiler_runs(monkeypatch):
    """The compiler commands the loader runs."""
    runs = []
    real_run = subprocess.run

    def run(command, *args, **kwargs):
        runs.append(command)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(walk_kernel.subprocess, "run", run)
    return runs


def test_without_a_compiler_the_python_walk_runs_with_one_warning(
    tmp_path, monkeypatch, caplog, compiler_runs
):
    expected = _outputs()
    monkeypatch.setattr(walk_kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(walk_kernel, "_LOADER",
                        walk_kernel.KernelLoader(tmp_path))
    telemetry.reset_warnings()
    with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
        assert walk_kernel.backend() == "python"
        assert _outputs() == expected
        assert _outputs() == expected
    warnings = [r.message for r in caplog.records
                if "CrHCS walk" in r.message]
    assert len(warnings) == 1
    assert "no C compiler" in warnings[0]
    assert compiler_runs == []
    assert list(tmp_path.glob("*.so")) == []


@needs_kernel
def test_a_second_load_reuses_the_cached_library(tmp_path, compiler_runs):
    cache = tmp_path / "cache"
    assert walk_kernel.KernelLoader(cache).walk() is not None
    assert len(compiler_runs) == 1
    (library,) = cache.glob("*.so")
    assert os.stat(cache).st_mode & 0o777 == 0o700
    assert walk_kernel.KernelLoader(cache).walk() is not None
    assert len(compiler_runs) == 1
    assert list(cache.glob("*.so")) == [library]


@needs_kernel
def test_a_truncated_library_is_never_loaded(
    tmp_path, monkeypatch, compiler_runs
):
    walk_kernel.KernelLoader(tmp_path).walk()
    (library,) = tmp_path.glob("*.so")
    whole = library.read_bytes()
    # A new file in its place: the copy this process mapped stays whole.
    cut = tmp_path / "cut"
    cut.write_bytes(whole[:len(whole) // 2])
    cut.chmod(0o700)
    os.replace(cut, library)
    loaded = []
    real_cdll = ctypes.CDLL

    def cdll(path, *args, **kwargs):
        loaded.append(Path(path).read_bytes())
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(walk_kernel.ctypes, "CDLL", cdll)
    with monkeypatch.context() as no_compiler:
        no_compiler.setattr(walk_kernel.shutil, "which", lambda name: None)
        assert walk_kernel.KernelLoader(tmp_path).walk() is None
    assert loaded == []
    # With a compiler the loader builds it again, and loads it whole.
    assert walk_kernel.KernelLoader(tmp_path).walk() is not None
    assert len(compiler_runs) == 2
    assert len(loaded) == 1 and len(loaded[0]) == len(whole)


@needs_kernel
def test_a_library_other_users_can_write_is_never_loaded(
    tmp_path, monkeypatch
):
    walk_kernel.KernelLoader(tmp_path).walk()
    tmp_path.chmod(0o770)
    loaded = []
    monkeypatch.setattr(walk_kernel.ctypes, "CDLL",
                        lambda *args, **kwargs: loaded.append(args))
    assert walk_kernel.KernelLoader(tmp_path).walk() is None
    assert loaded == []


@needs_kernel
def test_threads_that_load_at_once_build_once(tmp_path, compiler_runs):
    loader = walk_kernel.KernelLoader(tmp_path)
    start = threading.Barrier(4)
    loaded = []

    def load():
        start.wait(timeout=30)
        loaded.append(loader.walk())

    threads = [threading.Thread(target=load) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(compiler_runs) == 1
    assert len(loaded) == 4 and loaded[0] is not None
    assert all(function is loaded[0] for function in loaded)
