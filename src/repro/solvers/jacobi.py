"""(Weighted) Jacobi iteration with accelerated SpMV."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.accelerator import StreamingAccelerator
from ..errors import ShapeError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from .result import SolverResult
from .steps import jacobi_init, jacobi_split, jacobi_step

Matrix = Union[COOMatrix, CSRMatrix]


def jacobi(
    accelerator: StreamingAccelerator,
    matrix: Matrix,
    b: np.ndarray,
    omega: float = 1.0,
    tolerance: float = 1e-6,
    max_iterations: int = 500,
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Solve ``A x = b`` by (weighted) Jacobi iteration.

    Each iteration's ``R @ x`` runs on the accelerator; the schedule of
    the off-diagonal remainder is computed once and streamed every
    iteration.  Requires a non-zero diagonal (the usual Jacobi
    prerequisite).
    """
    coo = to_coo(matrix)
    if coo.n_rows != coo.n_cols:
        raise ShapeError("Jacobi needs a square system")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (coo.n_rows,):
        raise ShapeError(f"b of shape {b.shape} incompatible with {coo.shape}")

    diagonal, remainder = jacobi_split(coo)
    state = jacobi_init(coo, b, omega, diagonal, x0=x0)
    schedule = accelerator.schedule(remainder)

    def spmv(vector: np.ndarray):
        execution, _report = accelerator.run(
            remainder, vector, schedule=schedule
        )
        return execution

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        jacobi_step(spmv, state, iteration)
        if state.finished(tolerance):
            break
    return state.result(iteration, tolerance)
