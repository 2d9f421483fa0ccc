"""Iterative-solver sessions with device-resident state.

The serving and cluster layers treat every SpMV as a one-shot request:
load, schedule, execute, answer.  Iterative solvers break that model —
power iteration, CG and Jacobi run the *same* (matrix, scheme, config)
work hundreds of times with only the iterate vector changing, so a
one-shot-per-iteration client pays the load + schedule + fingerprint
round trip on every step.

A :class:`SolverSession` fixes the amortization: the client opens a
session against a matrix, the cluster routes it **once** (same
consistent-hash affinity as one-shot traffic), the device builds — or
cache-hits — the schedule **once**, and the iterate stays
device-resident in the engine's
:class:`~repro.serving.resident.ResidentStateStore`.  Each ``step``
re-executes only the simulate/estimate stage.  Sessions inherit
priority/deadline/SLO class onto every iteration, interleave fairly
with one-shot traffic on the shared admission queue, and survive device
loss by deterministic re-materialization — replaying the completed
iterations on the new device reproduces the lost state byte for byte.

See ``docs/sessions.md`` for the lifecycle, the failover story and the
``REPRO_SESSION_*`` knobs.
"""

from .manager import SessionManager
from .programs import (
    SolverProgram,
    get_program,
    register_program,
    solver_programs,
)
from .session import SolverSession
from .spec import (
    ITER_BATCH_ENV,
    SESSION_MAX_ENV,
    SessionSpec,
    session_iter_batch,
    session_max,
)
from .work import FetchWork, ResidentEntry, StepWork

__all__ = [
    "FetchWork",
    "ITER_BATCH_ENV",
    "ResidentEntry",
    "SESSION_MAX_ENV",
    "SessionManager",
    "SessionSpec",
    "SolverProgram",
    "SolverSession",
    "StepWork",
    "get_program",
    "register_program",
    "session_iter_batch",
    "session_max",
    "solver_programs",
]
