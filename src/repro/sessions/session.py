"""The client-side session handle.

A :class:`SolverSession` is what ``SessionManager.open`` hands back: a
small bookkeeping object that knows how many iterations the device has
acknowledged and submits :class:`~repro.sessions.work.StepWork` /
:class:`~repro.sessions.work.FetchWork` items through its manager.  The
iterate itself never lives here — it stays device-resident; the handle
only ever sees the per-step summary payloads and, on :meth:`result`,
the final solution vector.

Handles are context managers; closing releases the device-resident
state and emits the session's ``session.request`` root span.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..errors import SessionError
from ..solvers.result import SolverResult
from ..telemetry.tracing import TraceContext
from .spec import SessionSpec, session_iter_batch
from .work import FetchWork, StepWork


class SolverSession:
    """One open iterative solve with device-resident state."""

    def __init__(self, manager: Any, session_id: str, spec: SessionSpec,
                 trace: Optional[TraceContext] = None):
        self.manager = manager
        self.session_id = session_id
        self.spec = spec
        self.trace = trace
        #: The leased device handle (cluster mode; ``None`` over a bare
        #: engine).  The manager re-points this on failover.
        self.device: Any = None
        self.status = "open"
        #: Iterations the device has acknowledged completing.
        self.completed = 0
        self.residual = float("inf")
        self.converged = False
        self.accelerator_seconds = 0.0
        #: Acknowledged steps (a fetch is no step), failovers and
        #: re-materializations; ``SessionManager.submit`` counts all three.
        self.steps = 0
        self.failovers = 0
        self.rematerializations = 0
        self.opened_at = 0.0
        self._finished = False
        self._result: Optional[SolverResult] = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the device-resident state (idempotent)."""
        self.manager.close(self)

    @property
    def finished(self) -> bool:
        """Converged, halted, or out of iterations."""
        return self._finished

    # -- iteration -------------------------------------------------------

    def step(self, iterations: Optional[int] = None,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Advance up to ``iterations`` (default: the batch knob).

        Blocks for the device's acknowledgement; returns the step
        payload (iterations made, new residual, finished flag).  The
        one-in-flight-at-a-time discipline here is what keeps a
        session's iterations in order while thousands of sessions
        interleave on the shared admission queue.
        """
        if self.status == "closed":
            raise SessionError(
                f"session {self.session_id} is closed"
            )
        batch = int(iterations) if iterations else session_iter_batch()
        if batch < 1:
            raise SessionError("iterations must be >= 1")
        work = StepWork(self.session_id, self.spec, self.completed, batch)
        payload = self.manager.submit(self, work, timeout=timeout)
        self.completed = int(payload["completed"])
        self.residual = float(payload["residual"])
        self.converged = bool(payload["converged"])
        self.accelerator_seconds = float(payload["accelerator_seconds"])
        if payload["finished"] or not payload["iterations"]:
            self._finished = True
            if self.status == "open":
                self.status = "finished"
        return payload

    def run(self, timeout: Optional[float] = None) -> SolverResult:
        """Iterate to convergence (or the iteration cap) and fetch.

        Byte-identical to the offline solver loop for the same spec:
        the device executes the same step math against the same
        schedule, in the same order.
        """
        while not self._finished:
            self.step(timeout=timeout)
        return self.result(timeout=timeout)

    def result(self, timeout: Optional[float] = None) -> SolverResult:
        """Fetch the current solution as a :class:`SolverResult`."""
        if self.status == "closed" and self._result is not None:
            return self._result
        work = FetchWork(self.session_id, self.spec, self.completed)
        payload = self.manager.submit(self, work, timeout=timeout)
        result = SolverResult(
            solution=np.asarray(payload["solution"]),
            iterations=int(payload["completed"]),
            converged=bool(payload["converged"]),
            residual=float(payload["residual"]),
            accelerator_seconds=float(payload["accelerator_seconds"]),
            history=list(payload["history"]),
        )
        self._result = result
        return result
