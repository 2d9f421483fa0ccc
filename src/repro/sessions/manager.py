"""The session manager: admission, routing, retry and failover.

:class:`SessionManager` fronts either a single
:class:`~repro.serving.engine.ServingEngine` or a whole
:class:`~repro.cluster.cluster.Cluster`:

* ``open`` admits a session (bounded by ``REPRO_SESSION_MAX``), starts
  its trace, and — in cluster mode — *leases* a device once via the
  router's consistent-hash affinity.  Every subsequent iteration of the
  session goes straight to the leased device; the per-request routing
  work is paid exactly once per session.
* ``submit`` drives one work item through the leased device's admission
  queue and blocks for the acknowledgement.  A device fault or a shed
  answer triggers the same failover policy as one-shot cluster traffic:
  charge the device's health ledger, re-lease among the survivors, and
  resubmit — the work item re-materializes the session state on the new
  device deterministically, so the retried iteration picks up exactly
  where the crashed device stopped.  ``submit`` is also the one place
  that counts steps, iterations, failovers and re-materializations: on
  the session handle, in :attr:`SessionManager.stats` and as telemetry.
* ``close`` releases the device-resident state and emits the session's
  ``session.request`` root span, the single root that parents every
  per-step and per-iteration span of the session's tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..cluster.faults import FAULT_DETAIL_PREFIX, retryable
from ..config import AcceleratorConfig
from ..errors import ConfigError, SessionError
from ..serving.request import STATUS_OK, SpMVRequest
from ..telemetry import tracing
from ..tenancy import normalize_tenant
from .programs import get_program
from .session import SolverSession
from .spec import SessionSpec, session_max

#: Engine-mode retry budget for shed work (cluster mode uses the
#: cluster's own ``max_attempts``).
_ENGINE_ATTEMPTS = 3

#: Process-wide session id source (also the trace-sampling draw key).
_SESSION_IDS = itertools.count(1)


class SessionManager:
    """Opens, drives and closes solver sessions over an engine/cluster."""

    def __init__(
        self,
        engine: Any = None,
        cluster: Any = None,
        max_sessions: Optional[int] = None,
        timeout: float = 60.0,
    ):
        if (engine is None) == (cluster is None):
            raise ConfigError(
                "SessionManager needs exactly one of engine= or cluster="
            )
        self.engine = engine
        self.cluster = cluster
        self.max_sessions = (
            max_sessions if max_sessions is not None else session_max()
        )
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sessions: Dict[str, SolverSession] = {}
        self.stats: Dict[str, int] = {
            "opened": 0,
            "closed": 0,
            "steps": 0,
            "iterations": 0,
            "failovers": 0,
            "rematerializations": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close_all()

    def open(
        self,
        source: Any,
        solver: str = "power_iteration",
        scheme: str = "crhcs",
        config: Optional[AcceleratorConfig] = None,
        config_overrides: Optional[Dict[str, Any]] = None,
        tolerance: float = 1e-8,
        max_iterations: int = 200,
        params: Optional[Dict[str, Any]] = None,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
        tenant: Optional[str] = None,
        spec: Optional[SessionSpec] = None,
    ) -> SolverSession:
        """Admit one session; raises :class:`SessionError` at capacity
        or, in cluster mode, when no device can be leased.

        An explicit ``spec`` wins over the keyword form.  Opening is
        cheap and device-side lazy — the load + schedule work happens on
        the session's first step (and is a schedule-cache hit when the
        leased device already serves that matrix).  A refused open
        changes none of the manager's counts and holds no slot.
        """
        if spec is None:
            spec = SessionSpec(
                source=source,
                solver=solver,
                scheme=scheme,
                config=config,
                config_overrides=config_overrides,
                tolerance=tolerance,
                max_iterations=max_iterations,
                params=dict(params or {}),
                priority=priority,
                deadline_ms=deadline_ms,
                slo_class=slo_class,
                tenant=normalize_tenant(tenant),
            )
        get_program(spec.solver)  # fail fast on unknown solvers
        self._check_capacity(self.active)
        device = (
            self._lease(spec, tried=()) if self.cluster is not None
            else None
        )
        number = next(_SESSION_IDS)
        session = SolverSession(
            manager=self,
            session_id=f"s{number:06d}",
            spec=spec,
            trace=tracing.maybe_start_trace(number),
        )
        session.device = device
        with self._lock:
            # Re-checked: a concurrent open may have taken the last slot
            # while this one leased.
            self._check_capacity(len(self._sessions))
            self._sessions[session.session_id] = session
            active = len(self._sessions)
            self.stats["opened"] += 1
        session.opened_at = time.monotonic()
        t = telemetry.get()
        if t.enabled:
            t.counter("sessions.opened", 1, solver=spec.solver)
            t.gauge("sessions.active", active)
        return session

    def close(self, session: SolverSession) -> None:
        """Release a session's device-resident state (idempotent)."""
        if session.status == "closed":
            return
        outcome = session.status  # "open" (abandoned) or "finished"
        session.status = "closed"
        with self._lock:
            self._sessions.pop(session.session_id, None)
            active = len(self._sessions)
            self.stats["closed"] += 1
        resident = None
        if self.engine is not None:
            resident = self.engine.resident
        elif session.device is not None:
            resident = session.device.engine.resident
        if resident is not None:
            resident.discard(session.session_id)
        t = telemetry.get()
        if t.enabled:
            t.counter("sessions.closed", 1)
            t.gauge("sessions.active", active)
            if session.trace is not None:
                t.emit_span(
                    "session.request",
                    session.trace,
                    max(time.monotonic() - session.opened_at, 0.0),
                    session=session.session_id,
                    solver=session.spec.solver,
                    scheme=session.spec.scheme,
                    status=outcome,
                    iterations=session.completed,
                    converged=session.converged,
                    failovers=session.failovers,
                    rematerializations=session.rematerializations,
                )

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            self.close(session)

    @property
    def active(self) -> int:
        with self._lock:
            return len(self._sessions)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            stats = dict(self.stats)
            stats["active"] = len(self._sessions)
        return stats

    def _check_capacity(self, active: int) -> None:
        if active >= self.max_sessions:
            raise SessionError(
                f"session limit reached "
                f"({self.max_sessions} concurrent sessions)"
            )

    # -- the submit/retry/failover loop ----------------------------------

    def _lease(self, spec: SessionSpec, tried) -> Any:
        device = self.cluster.lease(spec.work_fingerprint(), tried)
        if device is None and tried:
            # Every device tried once this submit: revisit survivors.
            device = self.cluster.lease(spec.work_fingerprint(), ())
        if device is None:
            raise SessionError("no alive device to lease")
        return device

    def submit(self, session: SolverSession, work: Any,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Drive one work item to an acknowledged payload.

        Raises :class:`SessionError` when the session is closed, when
        retries are exhausted, or when the work fails with a real
        (non-fault) library error.
        """
        if session.status == "closed":
            raise SessionError(
                f"session {session.session_id} is closed"
            )
        timeout = timeout if timeout is not None else self.timeout
        spec = session.spec
        max_attempts = (
            self.cluster.max_attempts if self.cluster is not None
            else _ENGINE_ATTEMPTS
        )
        t = telemetry.get()
        tried: List[str] = []
        last_detail = ""
        with tracing.scope(session.trace):
            for attempt in range(1, max_attempts + 1):
                if attempt > 1:
                    time.sleep(min(0.005 * (2 ** (attempt - 2)), 0.05))
                with t.span(
                    f"session.{work.kind}",
                    session=session.session_id,
                    attempt=attempt,
                ):
                    request = SpMVRequest(
                        source=spec.source,
                        scheme=spec.scheme,
                        priority=spec.priority,
                        deadline_ms=spec.deadline_ms,
                        slo_class=spec.slo_class,
                        tenant=spec.tenant,
                        trace=tracing.current(),
                        work=work,
                    )
                    target = (
                        session.device if self.cluster is not None
                        else self.engine
                    )
                    started = time.monotonic()
                    response = target.submit(request).result(timeout)
                    elapsed = max(time.monotonic() - started, 0.0)
                if response.status == STATUS_OK:
                    if self.cluster is not None:
                        self.cluster.report_success(
                            target.device_id, elapsed
                        )
                    payload = response.payload or {}
                    step = work.kind == "step"
                    made = int(payload.get("iterations", 0))
                    remat = bool(payload.get("rematerialized"))
                    session.steps += step
                    session.rematerializations += remat
                    with self._lock:
                        self.stats["steps"] += step
                        self.stats["iterations"] += made
                        self.stats["rematerializations"] += remat
                    if t.enabled:
                        if step:
                            t.counter("sessions.iterations", made)
                        if remat:
                            t.counter("sessions.rematerialized", 1)
                    return payload
                last_detail = response.detail or response.status
                if not retryable(response):
                    raise SessionError(
                        f"session {session.session_id} {work.kind} "
                        f"failed: {last_detail}"
                    )
                if self.cluster is not None:
                    # Fault or shed: charge the device, fail the session
                    # over to the next healthy replica.
                    device_id = target.device_id
                    fault = response.detail.startswith(
                        FAULT_DETAIL_PREFIX
                    )
                    if fault:
                        self.cluster.report_failure(
                            device_id,
                            crashed="crash" in response.detail,
                        )
                    tried.append(device_id)
                    session.device = self._lease(spec, tuple(tried))
                    session.failovers += 1
                    with self._lock:
                        self.stats["failovers"] += 1
                    if t.enabled:
                        t.counter("sessions.failover", 1,
                                  from_device=device_id)
        raise SessionError(
            f"session {session.session_id} {work.kind} failed after "
            f"{max_attempts} attempt(s): {last_detail}"
        )
