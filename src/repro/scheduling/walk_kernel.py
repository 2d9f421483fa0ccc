"""The compiled CrHCS host kernels: ``crhcs_walk.c``, built on first use.

The library has two entry points, each called once per tile where this
host can build it: ``pe_aware_build`` is
:func:`repro.scheduling.pe_aware.pe_aware_elements`, and ``crhcs_walk``
is phases 1 and 2 of :func:`repro.scheduling.crhcs.migrate_elements` (the
index and the ring walk), fed the build's element table.  So a cold
``crhcs`` tile is two C calls.  The first process that needs them
compiles the source shipped beside this module with the interpreter's C
compiler (``sysconfig``'s ``CC``, else ``cc``; ``-O2 -shared -fPIC``)
into a per-user cache directory (``~/.cache/repro``, mode 0700), under a
name keyed by the source digest and the platform, and then removes this
user's libraries built from another digest of the source.  The library
and a stamp holding its digest are each written atomically, and later
processes load the library without running the compiler once its bytes
match the stamp.  Nothing is loaded from a directory or file that
another user could write.

With no compiler, or a build or load that fails, :func:`compiled_build`
and :func:`compiled_walk` return ``None`` after one
:func:`~repro.telemetry.warn_once`, and the NumPy build in
:mod:`repro.scheduling.pe_aware` and the Python walk in
:mod:`repro.scheduling.crhcs` run: they are the only path on such hosts
and the reference the kernels are tested against.  :func:`backend`
reports which path runs.  No setting chooses between them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import SchedulingError
from .base import TileElements

#: The kernels' source, shipped as package data beside this module.
SOURCE = Path(__file__).with_name("crhcs_walk.c")

#: Library names: ``crhcs_walk-<16 hex digits of the source digest>-<platform>.so``.
_PREFIX = "crhcs_walk-"

#: ``pe_aware_build``: four int64 scalars, then six int64 buffers.
_BUILD_ARGTYPES = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 6

#: ``crhcs_walk``: seven int64 scalars, then ten int64 buffers.
_WALK_ARGTYPES = [ctypes.c_int64] * 7 + [ctypes.c_void_p] * 10

#: What both builds raise for a tile with a negative coordinate.
NEGATIVE_COORDINATE = "tile coordinates must be non-negative"


class _Unavailable(Exception):
    """The kernels cannot be built or loaded on this host."""


class Kernels(NamedTuple):
    """The loaded entry points, bound to :func:`run_build` and
    :func:`run_walk`."""

    build: Callable[..., TileElements]
    walk: Callable[..., tuple]


def _compiler() -> List[str]:
    """The interpreter's C compiler command, else ``cc``."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    if configured and shutil.which(configured[0]):
        return configured
    if shutil.which("cc"):
        return ["cc"]
    raise _Unavailable("no C compiler found (sysconfig CC or cc)")


def _private(st: os.stat_result) -> bool:
    """Owned by this user and writable by no other."""
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


class KernelLoader:
    """Builds or loads the kernels once, on the first :meth:`kernels`.

    ``cache_dir`` defaults to ``~/.cache/repro``; tests point it at a
    temporary directory.
    """

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self._cache_dir = cache_dir
        self._lock = threading.Lock()
        self._loaded = False
        self._kernels: Optional[Kernels] = None

    def kernels(self) -> Optional[Kernels]:
        """Both entry points, or ``None`` when the NumPy build and the
        Python walk run."""
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._kernels = self._load()
                    self._loaded = True
        return self._kernels

    def _load(self) -> Optional[Kernels]:
        try:
            library = ctypes.CDLL(str(self._library()))
            build, walk = library.pe_aware_build, library.crhcs_walk
        except (AttributeError, OSError, subprocess.SubprocessError,
                _Unavailable) as error:
            telemetry.warn_once(
                "crhcs_kernels_python",
                f"CrHCS kernels: the compiled library is unavailable "
                f"({error}); running the NumPy build and the Python walk",
            )
            return None
        build.argtypes = _BUILD_ARGTYPES
        walk.argtypes = _WALK_ARGTYPES
        build.restype = walk.restype = ctypes.c_int64
        return Kernels(partial(run_build, build), partial(run_walk, walk))

    def _library(self) -> Path:
        """The verified library, built first when the cache lacks it."""
        if not hasattr(os, "getuid"):
            raise _Unavailable("no per-user cache on this platform")
        source = SOURCE.read_bytes()
        try:
            directory = self._cache_dir or Path.home() / ".cache" / "repro"
        except RuntimeError as error:  # no home directory
            raise _Unavailable(str(error)) from error
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(os.stat(directory)):
            raise _Unavailable(f"{directory} is writable by other users")
        platform = sysconfig.get_platform()
        name = (
            f"{_PREFIX}{hashlib.sha256(source).hexdigest()[:16]}"
            f"-{platform}.so"
        )
        library = directory / name
        stamp = directory / f"{name}.sha256"
        if not _verified(library, stamp):
            _build(source, directory, library, stamp)
            if not _verified(library, stamp):
                raise _Unavailable(f"{library} does not match its stamp")
            _remove_stale(directory, name, platform)
        return library


def _verified(library: Path, stamp: Path) -> bool:
    """The library is private and its bytes match the stamp's digest."""
    try:
        expected = stamp.read_text().strip()
        with open(library, "rb") as handle:
            private = _private(os.fstat(handle.fileno()))
            data = handle.read()
    except FileNotFoundError:
        return False
    return private and hashlib.sha256(data).hexdigest() == expected


def _build(source: bytes, directory: Path, library: Path,
           stamp: Path) -> None:
    """Compile ``source`` and move the library, then its stamp, into
    place, each by an atomic rename from a private temporary directory."""
    command = _compiler()
    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        source_path = Path(workdir, "crhcs_walk.c")
        source_path.write_bytes(source)
        built = Path(workdir, "crhcs_walk.so")
        result = subprocess.run(
            [*command, "-O2", "-shared", "-fPIC", "-o", str(built),
             str(source_path)],
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode:
            raise _Unavailable(
                f"{command[0]} exited {result.returncode}: "
                f"{result.stderr.strip()[-400:]}"
            )
        os.chmod(built, 0o700)
        digest = hashlib.sha256(built.read_bytes()).hexdigest()
        built_stamp = Path(workdir, "stamp")
        built_stamp.write_text(digest + "\n")
        os.replace(built, library)
        os.replace(built_stamp, stamp)


def _remove_stale(directory: Path, current: str, platform: str) -> None:
    """Remove this user's libraries and stamps of ``platform`` built from
    another digest of the source: regular files only, never a symlink.
    A process still running an old library keeps its mapped copy."""
    stale = re.compile(
        rf"{_PREFIX}[0-9a-f]{{16}}-{re.escape(platform)}\.so(\.sha256)?"
    )
    with os.scandir(directory) as entries:
        for entry in entries:
            if (not stale.fullmatch(entry.name)
                    or entry.name.startswith(current)
                    or not entry.is_file(follow_symlinks=False)):
                continue
            try:
                if entry.stat(follow_symlinks=False).st_uid == os.getuid():
                    os.unlink(entry.path)
            except OSError:  # removed by another process meanwhile
                pass


_LOADER = KernelLoader()


def compiled_build():
    """The process's compiled PE-aware build, built or loaded on the
    first call: called like :func:`repro.scheduling.pe_aware._numpy_build`,
    or ``None`` when the NumPy build runs."""
    kernels = _LOADER.kernels()
    return None if kernels is None else kernels.build


def compiled_walk():
    """The process's compiled walk, built or loaded on the first call:
    called like :func:`repro.scheduling.crhcs._python_walk`, or ``None``
    when the Python walk runs."""
    kernels = _LOADER.kernels()
    return None if kernels is None else kernels.walk


def backend() -> str:
    """``"c"`` when both compiled entry points run in this process, else
    ``"python"``."""
    compiled = compiled_build() is not None and compiled_walk() is not None
    return "c" if compiled else "python"


def run_build(
    function, channels: int, pes: int, distance: int, rows: np.ndarray,
    cols: np.ndarray, values: np.ndarray,
) -> TileElements:
    """One ``pe_aware_build`` call: the table of
    :func:`repro.scheduling.pe_aware._numpy_build`, with the same
    arguments (a tile of at least one element).

    The inputs are copied into one int64 work buffer (the values as
    float64 words) and the table written into another, whose six rows
    the table's arrays view.
    """
    n = rows.size
    work = np.empty(5 * n + channels, dtype=np.int64)
    work[:n] = rows
    work[n:2 * n] = cols
    work[2 * n:3 * n].view(np.float64)[:] = values
    table = np.empty((6, n), dtype=np.int64)
    address = work.ctypes.data
    status = function(
        channels, pes, distance, n, address, address + 8 * n,
        address + 16 * n, table.ctypes.data, address + 24 * n,
        address + 8 * (3 * n + channels),
    )
    if status == -2:
        raise SchedulingError(NEGATIVE_COORDINATE)
    if status < 0:
        raise ValueError("the PE-aware kernel refused its buffers")
    elem_channels, slots, elem_rows, elem_cols, elem_values, elem_pes = table
    return TileElements(
        pes, tuple(work[3 * n:3 * n + channels].tolist()), elem_channels,
        slots, elem_rows, elem_cols, elem_values.view(np.float64),
        elem_channels, elem_pes,
    )


def run_walk(
    function, channels: int, pes: int, distance: int, span: int,
    steal_tries: int, longest: int, elem_channels: np.ndarray,
    elem_slots: np.ndarray, elem_rows: np.ndarray,
    elem_origins: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, list, List[int], List[int]]:
    """One ``crhcs_walk`` call: the index and walk of
    :func:`repro.scheduling.crhcs._python_walk`, with the same arguments
    and results.

    The kernel's buffers are consecutive pieces of one int64 array, so
    the call converts one address; the table's four fields are copied
    into it and the takes copied out of it.
    """
    n = elem_slots.size
    records = 4 * channels * span
    sizes = (
        n, n, n, n, n, n, records, channels, channels,
        (5 + pes) * n + 3 * channels + 4,
    )
    offsets = list(accumulate(sizes, initial=0))
    work = np.empty(offsets[-1], dtype=np.int64)
    for lo, given in zip(offsets, (
        elem_channels, elem_slots, elem_rows, elem_origins,
    )):
        work[lo:lo + n] = given
    address = work.ctypes.data
    count = function(
        channels, pes, distance, span, steal_tries, longest, n,
        *(address + 8 * lo for lo in offsets[:-1]),
    )
    if count < 0:
        raise ValueError("the CrHCS kernel refused its buffers")
    taken, filled, walk_records, counts, tops = (
        work[lo:hi] for lo, hi in zip(offsets[4:9], offsets[5:10])
    )
    return (
        taken[:count].copy(), filled[:count].copy(),
        walk_records.reshape(-1, 4).tolist(), counts.tolist(), tops.tolist(),
    )
