"""Loading the *real* SuiteSparse/SNAP matrices when available.

The reproduction ships synthetic stand-ins for every Table 2 matrix, but
a user with local copies of the real collections gets higher fidelity for
free: point ``REPRO_DATA_DIR`` (or the ``data_dir`` argument) at a
directory containing ``<name>.mtx[.gz]`` (SuiteSparse MatrixMarket) or
``<name>.txt[.gz]`` (SNAP edge lists) and :func:`load_named` returns the
real matrix, falling back to the synthetic generator otherwise.

The loader normalises real matrices the way the paper's preprocessing
does: duplicates summed, explicit zeros dropped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from ..errors import DatasetError
from ..formats.coo import COOMatrix
from ..formats.io import load_matrix_market, load_snap_edgelist
from ..knobs import knob
from .named import NAMED_MATRICES, generate_named

_PathLike = Union[str, Path]

#: Environment variable naming the local dataset directory.
DATA_DIR_ENV = "REPRO_DATA_DIR"

_DATA_DIR = knob(DATA_DIR_ENV)

_SUFFIXES = (".mtx", ".mtx.gz", ".txt", ".txt.gz")


def dataset_path(name: str, data_dir: _PathLike) -> Optional[Path]:
    """The on-disk file for ``name`` under ``data_dir``, if present."""
    base = Path(data_dir)
    for suffix in _SUFFIXES:
        candidate = base / f"{name}{suffix}"
        if candidate.exists():
            return candidate
    return None


def _normalise(matrix: COOMatrix) -> COOMatrix:
    return matrix.sum_duplicates().prune(0.0)


def load_named(
    name: str,
    data_dir: Optional[_PathLike] = None,
) -> Tuple[COOMatrix, str]:
    """Load a Table 2 matrix, real if available, synthetic otherwise.

    Returns ``(matrix, source)`` where ``source`` is ``"real"`` or
    ``"synthetic"``.
    """
    if name not in NAMED_MATRICES:
        known = ", ".join(sorted(NAMED_MATRICES))
        raise DatasetError(f"unknown matrix {name!r}; known: {known}")
    directory = data_dir or _DATA_DIR.current
    if directory:
        path = dataset_path(name, directory)
        if path is not None:
            if path.name.endswith((".txt", ".txt.gz")):
                matrix = load_snap_edgelist(path)
            else:
                matrix = load_matrix_market(path)
            return _normalise(matrix), "real"
    return generate_named(name), "synthetic"
