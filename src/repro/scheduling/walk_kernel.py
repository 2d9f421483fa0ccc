"""The compiled CrHCS ring walk: ``crhcs_walk.c``, built on first use.

Phase 2 of :func:`repro.scheduling.crhcs.migrate_elements` (the ring
walk) runs as one C call per tile when this host can build the kernel.
The first process that needs it compiles the source shipped beside this
module with the interpreter's C compiler (``sysconfig``'s ``CC``, else
``cc``; ``-O2 -shared -fPIC``) into a per-user cache directory
(``~/.cache/repro``, mode 0700), under a name keyed by the source digest
and the platform.  The library and a stamp holding its digest are each
written atomically, and later processes load the library without running
the compiler once its bytes match the stamp.  Nothing is loaded from a
directory or file that another user could write.

With no compiler, or a build or load that fails, :func:`compiled_walk`
returns ``None`` after one :func:`~repro.telemetry.warn_once`, and the
Python walk in :mod:`repro.scheduling.crhcs` runs: it is the only walk on
such hosts and the reference the kernel is tested against.
:func:`backend` reports which walk runs.  No setting chooses between
them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .. import telemetry

#: The kernel's source, shipped as package data beside this module.
SOURCE = Path(__file__).with_name("crhcs_walk.c")

#: ``crhcs_walk``: nine int64 scalars, then twelve int64 buffers.
_ARGTYPES = [ctypes.c_int64] * 9 + [ctypes.c_void_p] * 12


class _Unavailable(Exception):
    """The kernel cannot be built or loaded on this host."""


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
    """Builds or loads the kernel once, on the first :meth:`walk`.

    ``cache_dir`` defaults to ``~/.cache/repro``; tests point it at a
    temporary directory.
    """

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self._cache_dir = cache_dir
        self._lock = threading.Lock()
        self._loaded = False
        self._walk = None

    def walk(self):
        """:func:`run_walk` bound to the kernel's ``crhcs_walk``, or
        ``None`` when the Python walk runs."""
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._walk = self._load()
                    self._loaded = True
        return self._walk

    def _load(self):
        try:
            function = ctypes.CDLL(str(self._library())).crhcs_walk
        except (OSError, subprocess.SubprocessError, _Unavailable) as error:
            telemetry.warn_once(
                "crhcs_walk_python",
                f"CrHCS walk: the compiled kernel is unavailable ({error}); "
                f"running the Python walk",
            )
            return None
        function.argtypes = _ARGTYPES
        function.restype = ctypes.c_int64
        return partial(run_walk, function)

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
        name = (
            f"crhcs_walk-{hashlib.sha256(source).hexdigest()[:16]}"
            f"-{sysconfig.get_platform()}.so"
        )
        library = directory / name
        stamp = directory / f"{name}.sha256"
        if not _verified(library, stamp):
            _build(source, directory, library, stamp)
            if not _verified(library, stamp):
                raise _Unavailable(f"{library} does not match its stamp")
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


_LOADER = KernelLoader()


def compiled_walk():
    """The process's compiled walk, built or loaded on the first call:
    called like :func:`repro.scheduling.crhcs._python_walk`, or ``None``
    when the Python walk runs."""
    return _LOADER.walk()


def backend() -> str:
    """Which CrHCS walk runs in this process: ``"c"`` or ``"python"``."""
    return "python" if compiled_walk() is None else "c"


def run_walk(
    function, pes: int, distance: int, span: int, steal_tries: int,
    longest: int, n_rows: int, bounds: np.ndarray, queue_slots: np.ndarray,
    queue_rows: np.ndarray, foreign_bounds: np.ndarray,
    foreign_slots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, list, List[int], List[int]]:
    """One ``crhcs_walk`` call: the walk of
    :func:`repro.scheduling.crhcs._python_walk`, with the same arguments
    and results.

    The kernel's twelve buffers are consecutive pieces of one int64
    array, so the call converts one address; the inputs are copied into
    it (the kernel packs each queue's remaining slots at the front of its
    segment) and the takes copied out of it.
    """
    channels = bounds.size - 1
    own = queue_slots.size
    total = own + foreign_slots.size
    sizes = (
        channels + 1, own, own, channels + 1, foreign_slots.size,
        pes * n_rows, total + 1, total + 1, own, own, channels * span * 4,
        channels,
    )
    offsets = list(accumulate(sizes, initial=0))
    work = np.empty(offsets[-1], dtype=np.int64)
    pieces = [work[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    for piece, given in zip(pieces, (
        bounds, queue_slots, queue_rows, foreign_bounds, foreign_slots,
    )):
        piece[:] = given
    pieces[5][:] = 0  # expiry
    address = work.ctypes.data
    count = function(
        channels, pes, distance, span, steal_tries, longest, n_rows, own,
        foreign_slots.size, *(address + 8 * lo for lo in offsets[:-1]),
    )
    if count < 0:
        raise ValueError("the CrHCS kernel refused its buffers")
    slots = pieces[1]
    left = pieces[11].tolist()
    tops = [
        int(slots[lo + n - 1]) if n else -1
        for lo, n in zip(bounds.tolist(), left)
    ]
    return (
        pieces[8][:count].copy(), pieces[9][:count].copy(),
        pieces[10].reshape(-1, 4).tolist(), left, tops,
    )
