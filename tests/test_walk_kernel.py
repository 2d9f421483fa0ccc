"""The compiled CrHCS kernels: the PE-aware build table for table the
NumPy build, the walk slot for slot the Python walk, and a loader that
builds them once per user, reuses them, removes stale builds, refuses a
damaged copy and falls back to the NumPy build and the Python walk, with
one warning, where it cannot build them."""

import ctypes
import logging
import os
import subprocess
import sysconfig
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
    _python_walk,
    migrate_elements,
    migrate_grids,
    rebuild_grids,
)
from repro.scheduling.pe_aware import (
    _numpy_build,
    pe_aware_elements,
    pe_aware_grids,
)
from repro.scheduling.window import Tile, tile_matrix

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


def _walk_outputs(walk, table, config, span, steal_tries):
    """One walk's results on ``table``, records as tuples."""
    taken, filled, records, counts, tops = walk(
        len(table.lengths), config.pes_per_channel,
        config.accumulator_latency, span, steal_tries, max(table.lengths),
        table.channels, table.slots, table.rows, table.origin_channels,
    )
    assert taken.dtype == filled.dtype == np.int64
    return (taken.tolist(), filled.tolist(), [tuple(r) for r in records],
            counts, tops)


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_the_kernel_walks_like_the_python_walk(case):
    """Both walks take the element table: a tile's PE-aware table and
    second-migration tables (a first migration's output and the rebuild
    mode's, which hold foreign elements)."""
    config, matrix, span, first_span, steal_tries = case
    for tile in tile_matrix(matrix, config):
        for table in (
            pe_aware_elements(tile, config),
            TileElements.of_grids(migrate_grids(
                pe_aware_grids(tile, config), config, first_span)),
            TileElements.of_grids(rebuild_grids(tile, config, first_span)),
        ):
            if span:
                assert _walk_outputs(
                    walk_kernel.compiled_walk(), table, config, span,
                    steal_tries,
                ) == _walk_outputs(
                    _python_walk, table, config, span, steal_tries
                )
            on_kernel = _migration(table, config, span, steal_tries)
            with mock.patch.object(walk_kernel, "compiled_walk",
                                   lambda: None):
                on_python = _migration(table, config, span, steal_tries)
            assert on_kernel == on_python


# -- the PE-aware build -------------------------------------------------------


@st.composite
def build_cases(draw):
    """A configuration and a hand-made tile: unsorted COO with repeated
    coordinates, empty rows and windows, sometimes one long row, tall
    tiles with coordinates past 16 bits, and empty and one-element
    tiles."""
    config = ChasonConfig(
        sparse_channels=draw(st.integers(2, 16)),
        pes_per_channel=draw(st.integers(1, 8)),
        scug_size=1,
        accumulator_latency=draw(st.integers(1, 12)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cols = draw(st.sampled_from(
        [(1, 1), (40, 30), (300, 200), ((1 << 17) + 5, 1 << 17)]
    ))
    nnz = draw(st.sampled_from([0, 1, 2, 50, 700]))
    # Rows from a few random ones, so most rows and windows are empty.
    used = rng.integers(0, n_rows, max(1, nnz // draw(st.integers(1, 40))))
    rows = rng.choice(used, nnz)
    if nnz and draw(st.booleans()):  # one long row
        rows[rng.random(nnz) < 0.4] = used[0]
    cols = rng.integers(0, n_cols, nnz)
    values = rng.uniform(0.5, 1.5, nnz).astype(
        draw(st.sampled_from([np.float32, np.float64]))
    )
    return config, Tile(0, 0, n_rows, n_cols, rows, cols, values)


@needs_kernel
@settings(max_examples=400, deadline=None)
@given(build_cases())
def test_the_kernel_builds_like_the_numpy_build(case):
    config, tile = case
    on_kernel = pe_aware_elements(tile, config)
    with mock.patch.object(walk_kernel, "compiled_build", lambda: None):
        on_numpy = pe_aware_elements(tile, config)
    assert on_kernel.pes == on_numpy.pes
    assert on_kernel.lengths == on_numpy.lengths
    assert all(isinstance(n, int) for n in on_kernel.lengths)
    for built, reference in zip(on_kernel._fields(), on_numpy._fields()):
        assert built.dtype == reference.dtype
        assert built.shape == reference.shape
        assert built.tobytes() == reference.tobytes()
        assert not built.flags.writeable
    for table in (on_kernel, on_numpy):
        assert table.channels is table.origin_channels


@pytest.mark.parametrize("build", ["kernel", "numpy"])
def test_a_negative_coordinate_is_refused_with_an_error(build):
    config = ChasonConfig(sparse_channels=4, pes_per_channel=2,
                          scug_size=2, accumulator_latency=3)
    if build == "kernel" and walk_kernel.compiled_build() is None:
        pytest.skip("no C compiler on this host")
    run = (walk_kernel.compiled_build() if build == "kernel"
           else _numpy_build)
    for rows, cols in (([0, -1, 3], [1, 2, 3]), ([0, 1, 3], [1, -2, 3])):
        with pytest.raises(SchedulingError, match="non-negative"):
            run(4, 2, 3, np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64), np.ones(3))


@needs_kernel
def test_the_walk_kernel_refuses_a_table_out_of_order():
    config = ChasonConfig(sparse_channels=3, pes_per_channel=2,
                          scug_size=2, accumulator_latency=3)
    table = pe_aware_elements(
        tile_matrix(uniform_random(12, 12, 40, seed=1), config)[0], config
    )
    walk = walk_kernel.compiled_walk()
    longest = max(table.lengths)
    for channels, slots, rows in (
        (table.channels[::-1], table.slots, table.rows),
        (table.channels, table.slots[::-1], table.rows),
        (table.channels, table.slots + longest * 2, table.rows),
        (table.channels, table.slots, -1 - table.rows),
    ):
        with pytest.raises(ValueError, match="refused"):
            walk(3, 2, 3, 1, 8, longest, channels, slots, rows,
                 table.origin_channels)


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
    """A few tiles' built tables and migrations' full outputs on
    whichever build and walk are loaded."""
    matrix = uniform_random(64, 64, 500, seed=3)
    outputs = []
    for tile in tile_matrix(matrix, CONFIG):
        table = pe_aware_elements(tile, CONFIG)
        outputs.append((table.lengths, [a.tobytes() for a in table._fields()]))
        outputs += [_migration(table, CONFIG, span, 8) for span in (1, 2, 3)]
    return outputs


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


def test_without_a_compiler_both_entry_points_fall_back_with_one_warning(
    tmp_path, monkeypatch, caplog, compiler_runs
):
    expected = _outputs()
    monkeypatch.setattr(walk_kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(walk_kernel, "_LOADER",
                        walk_kernel.KernelLoader(tmp_path))
    telemetry.reset_warnings()
    with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
        assert walk_kernel.backend() == "python"
        assert walk_kernel.compiled_build() is None
        assert walk_kernel.compiled_walk() is None
        assert _outputs() == expected
        assert _outputs() == expected
    warnings = [r.message for r in caplog.records
                if "CrHCS kernels" in r.message]
    assert len(warnings) == 1
    assert "no C compiler" in warnings[0]
    assert compiler_runs == []
    assert list(tmp_path.glob("*.so")) == []


@needs_kernel
def test_a_second_load_reuses_the_cached_library(tmp_path, compiler_runs):
    cache = tmp_path / "cache"
    kernels = walk_kernel.KernelLoader(cache).kernels()
    assert kernels.build is not None and kernels.walk is not None
    assert len(compiler_runs) == 1
    (library,) = cache.glob("*.so")
    assert os.stat(cache).st_mode & 0o777 == 0o700
    assert walk_kernel.KernelLoader(cache).kernels() is not None
    assert len(compiler_runs) == 1
    assert list(cache.glob("*.so")) == [library]


@needs_kernel
def test_a_build_removes_this_users_libraries_of_other_digests(
    tmp_path, monkeypatch
):
    """Only the library and stamp of this platform and source digest
    remain; other platforms, other prefixes, symlinks and other files
    stay."""
    platform = sysconfig.get_platform()
    other_source = tmp_path / "crhcs_walk.c"
    other_source.write_bytes(walk_kernel.SOURCE.read_bytes() + b"/* */\n")
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setattr(walk_kernel, "SOURCE", other_source)
        assert walk_kernel.KernelLoader(cache).kernels() is not None
    (first,) = cache.glob("*.so")
    kept = [
        "crhcs_walk-0123456789abcdef-other-platform.so",
        f"other_kernel-0123456789abcdef-{platform}.so",
        f"crhcs_walk-0123456789abcdef-{platform}.so.bak",
        "notes.txt",
    ]
    for name in kept:
        (cache / name).write_text("x")
    target = tmp_path / "elsewhere.so"
    target.write_text("x")
    link = f"crhcs_walk-fedcba9876543210-{platform}.so"
    (cache / link).symlink_to(target)
    assert walk_kernel.KernelLoader(cache).kernels() is not None
    (second,) = (path for path in cache.glob(f"crhcs_walk-*-{platform}.so")
                 if not path.is_symlink())
    assert second != first
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        kept + [link, second.name, f"{second.name}.sha256"]
    )
    assert target.exists()


@needs_kernel
def test_a_truncated_library_is_never_loaded(
    tmp_path, monkeypatch, compiler_runs
):
    walk_kernel.KernelLoader(tmp_path).kernels()
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
        assert walk_kernel.KernelLoader(tmp_path).kernels() is None
    assert loaded == []
    # With a compiler the loader builds it again, and loads it whole.
    kernels = walk_kernel.KernelLoader(tmp_path).kernels()
    assert kernels.build is not None and kernels.walk is not None
    assert len(compiler_runs) == 2
    assert len(loaded) == 1 and len(loaded[0]) == len(whole)


@needs_kernel
def test_a_library_other_users_can_write_is_never_loaded(
    tmp_path, monkeypatch
):
    walk_kernel.KernelLoader(tmp_path).kernels()
    tmp_path.chmod(0o770)
    loaded = []
    monkeypatch.setattr(walk_kernel.ctypes, "CDLL",
                        lambda *args, **kwargs: loaded.append(args))
    assert walk_kernel.KernelLoader(tmp_path).kernels() is None
    assert loaded == []


@needs_kernel
def test_threads_that_load_at_once_build_once(tmp_path, compiler_runs):
    loader = walk_kernel.KernelLoader(tmp_path)
    start = threading.Barrier(4)
    loaded = []

    def load():
        start.wait(timeout=30)
        loaded.append(loader.kernels())

    threads = [threading.Thread(target=load) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(compiler_runs) == 1
    assert len(loaded) == 4 and loaded[0] is not None
    assert all(kernels is loaded[0] for kernels in loaded)
