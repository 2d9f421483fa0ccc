"""The serving engine: admission, micro-batching, coalescing, workers.

Request lifecycle::

    submit ──▶ admission queue ──▶ dispatch ──▶ execute ──▶ response
       │            │                  │
       │            │ (full)           │ (deadline passed)
       │            ▼                  ▼
       │        Rejected            expired
       │
       │ (identical work already in flight)
       ▼
    coalesce: share the leader's execution

Three mechanisms turn N concurrent callers into less than N executions:

* **coalescing** — a submitted request whose *work fingerprint*
  (matrix source + scheme + version + config, the same digest chain the
  pipeline caches by) matches an in-flight request attaches to that
  leader and receives a copy of its response.  One execution, N answers.
* **micro-batching** — a worker that dequeues a request also collects up
  to ``REPRO_SERVE_BATCH - 1`` more queued requests from the same
  ``(scheme, config)`` group and executes them as one batch under one
  ``serving.execute`` span, amortising dispatch overhead and keeping the
  artifact store hot for the group.
* **whole-flow caching** — workers share one thread-safe
  :class:`~repro.pipeline.store.ArtifactStore`, so repeat work that is
  no longer in flight still skips recomputation stage by stage.

Overload degrades, it never raises: the bounded queue sheds (policy in
:class:`repro.tenancy.fair_queue.FairAdmissionQueue`) with structured
``rejected`` responses, and requests dequeued past their deadline answer
``expired``.  Shutdown is graceful by default — ``shutdown()`` drains
queued work while new submissions are shed with ``engine is draining``.
``ServingEngine(workers=0)`` starts no thread: its caller steps it with
``run_once()``, the worker loop's body (``docs/serving.md``).

Each outcome is counted once, in the engine's
:class:`~repro.serving.slo.OutcomeLedger`, by ``_resolve`` or by one of
the two answers given at the door (malformed request, draining engine);
``stats`` and every summary read the ledger.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import ReproError, ServingError
from ..knobs import knob
from ..telemetry import tracing
from ..telemetry.tracing import TraceContext
from ..estimator.calibration import DEFAULT_CALIBRATION, CalibrationTable
from ..estimator.fidelity import (
    resolve_audit_rate,
    resolve_fidelity,
    should_audit,
)
from ..pipeline.fingerprint import fingerprint, fingerprint_config
from ..pipeline.runner import PipelineRunner
from ..pipeline.stages import LoadStage
from ..pipeline.store import ArtifactStore
from ..scheduling.registry import get_scheme
from ..tenancy import TenantPolicy, policy_from_env
from ..tenancy.fair_queue import FairAdmissionQueue
from ..tenancy.tenant import normalize_tenant
from .resident import ResidentStateStore
from .request import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    SpMVRequest,
    SpMVResponse,
)
from .slo import BURN_WINDOWS_S, OUTCOMES, OutcomeLedger

WORKERS_ENV = "REPRO_SERVE_WORKERS"
QUEUE_ENV = "REPRO_SERVE_QUEUE"
BATCH_ENV = "REPRO_SERVE_BATCH"

_WORKERS = knob(WORKERS_ENV)
_QUEUE = knob(QUEUE_ENV)
_BATCH = knob(BATCH_ENV)


class _SessionSpec:
    """Stand-in scheme spec for session-work entries.

    Session work carries its own scheme/config inside the work item (it
    was resolved when the session opened), so the engine's per-entry
    spec only feeds telemetry labels and batching groups.
    """

    __slots__ = ()
    name = "session"
    version = ""


_SESSION_SPEC = _SessionSpec()


def serve_worker_count() -> int:
    """Configured worker-thread count (``REPRO_SERVE_WORKERS``)."""
    return _WORKERS.read()


def serve_queue_capacity() -> int:
    """Configured admission-queue capacity (``REPRO_SERVE_QUEUE``)."""
    return _QUEUE.read()


def serve_max_batch() -> int:
    """Configured micro-batch limit (``REPRO_SERVE_BATCH``)."""
    return _BATCH.read()


class _Entry:
    """Engine-internal state of one admitted request."""

    __slots__ = (
        "request", "seq", "priority", "spec", "config", "group",
        "work_fp", "submitted_at", "deadline_at", "followers", "done",
        "event", "response", "trace", "owns_root", "tenant", "slo_class",
        "described", "hooks",
    )

    def __init__(self, request: SpMVRequest, seq: int, spec, config,
                 group: Tuple[str, str], work_fp: str, now: float,
                 trace: Optional[TraceContext] = None,
                 owns_root: bool = False,
                 described: Optional[Tuple[str, str, str]] = None):
        self.request = request
        #: The source's :meth:`LoadStage.describe` triple, hashed once
        #: at admission and reused by every execution of this entry.
        self.described = described
        #: Tenant and SLO class, resolved once — the fair queue orders
        #: and sheds by them without touching the request again.
        self.tenant = normalize_tenant(request.tenant)
        self.slo_class = request.effective_slo_class()
        #: The request's trace context, carried explicitly because
        #: worker threads do not inherit the submitter's contextvars.
        self.trace = trace
        #: Whether *this engine* created the trace (and therefore emits
        #: the root ``serving.request`` span at resolution).  False when
        #: the cluster attached the trace upstream — it owns the root.
        self.owns_root = owns_root
        self.seq = seq
        self.priority = request.priority
        self.spec = spec
        self.config = config
        self.group = group
        self.work_fp = work_fp
        self.submitted_at = now
        self.deadline_at = (
            now + request.deadline_ms * 1e-3
            if request.deadline_ms is not None
            else None
        )
        self.followers: List["_Entry"] = []
        self.done = False
        self.event = threading.Event()
        #: Completion hooks :meth:`ServingEngine._resolve` runs after
        #: setting :attr:`event` (see :meth:`Ticket.add_done_callback`).
        self.hooks: List[Callable[[], None]] = []
        self.response: Optional[SpMVResponse] = None

    def expired_at(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at


class Ticket:
    """The submitter's handle on one request's eventual response."""

    def __init__(self, entry: Optional[_Entry] = None,
                 response: Optional[SpMVResponse] = None):
        self._entry = entry
        self._response = response

    @property
    def request_id(self) -> int:
        if self._response is not None:
            return self._response.request_id
        return self._entry.request.request_id

    def done(self) -> bool:
        return self._response is not None or self._entry.event.is_set()

    def add_done_callback(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` once the response is available.

        The thread that resolves the request calls it right after
        :meth:`done` turns true; a hook added to a ticket that is
        already done (answered at the door, or resolved before the hook
        arrives) is called at once, on the caller's thread.  A race
        between adding and resolving may call it twice, never zero
        times, so a hook must be idempotent, quick and must not raise.
        """
        if self._response is None:
            # Append before testing the event: a resolution that has
            # not set it yet will see the hook in the list.
            self._entry.hooks.append(hook)
            if not self._entry.event.is_set():
                return
        hook()

    def result(self, timeout: Optional[float] = None) -> SpMVResponse:
        """Block until the response is available (or raise on timeout)."""
        if self._response is not None:
            return self._response
        if not self._entry.event.wait(timeout):
            raise ServingError(
                f"request {self._entry.request.request_id} did not "
                f"complete within {timeout}s"
            )
        return self._entry.response


class ServingEngine:
    """A batched, coalescing SpMV request service over the pipeline."""

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_capacity: Optional[int] = None,
        max_batch: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
        fidelity: Optional[str] = None,
        audit_rate: Optional[float] = None,
        calibration: Optional[CalibrationTable] = None,
        tenancy: Optional[TenantPolicy] = None,
    ):
        self.workers = workers if workers is not None else serve_worker_count()
        self.max_batch = (
            max_batch if max_batch is not None else serve_max_batch()
        )
        # Serving defaults to the estimate tier — the order-of-magnitude
        # throughput lever — with a sampled exact-sim audit behind it;
        # ``REPRO_FIDELITY`` overrides the default, an explicit argument
        # overrides both.
        self.fidelity = resolve_fidelity(fidelity, default="estimate")
        self.audit_rate = resolve_audit_rate(audit_rate)
        self.calibration = (
            calibration if calibration is not None else DEFAULT_CALIBRATION
        )
        #: Schemes demoted to the exact tier by the audit gate.
        self._demoted: set = set()
        self.audit_stats: Dict[str, Any] = {
            "sampled": 0, "violations": 0, "errors": 0,
            "max_rel_error": 0.0, "mean_rel_error": 0.0, "_error_sum": 0.0,
        }
        capacity = (
            queue_capacity if queue_capacity is not None
            else serve_queue_capacity()
        )
        self.tenancy = tenancy if tenancy is not None else policy_from_env()
        # The fair queue is a drop-in for AdmissionQueue and degenerates
        # to its exact policy with a single tenant at default weights —
        # the pre-tenancy behavior, pinned by differential tests.
        self.queue = FairAdmissionQueue(
            capacity, policy=self.tenancy, pressure=self._interactive_hot
        )
        # An engine-private store (one shared LRU, no pass snapshots)
        # keeps cross-request reuse observable per engine.
        self.store = store if store is not None else ArtifactStore(
            capacity=max(4 * capacity, 64)
        )
        self.runner = PipelineRunner(self.store)
        #: Device-resident session state (schedules + iterate vectors).
        self.resident = ResidentStateStore()
        #: Every request outcome, counted once (see the module docstring).
        self.ledger = OutcomeLedger()
        self._seq = itertools.count()
        self._lock = threading.RLock()
        #: work fingerprint → leader entry (queued or executing).
        self._inflight: Dict[str, _Entry] = {}
        self._threads: List[threading.Thread] = []
        self._state = "new"  # new → running → draining/stopping → stopped

    def _interactive_hot(self) -> bool:
        """Whether the interactive SLO class is burning its budget hot.

        The fair queue's shed-policy hook: while hot, batch-class
        entries become preferred shed victims.  Called under the queue's
        lock on overload pushes; one O(buckets) ledger read.
        """
        return (self.ledger.burn("interactive", BURN_WINDOWS_S[0])
                > self.tenancy.burn_shed_threshold)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServingEngine":
        if self._state != "new":
            raise ServingError(f"engine already {self._state}")
        self._state = "running"
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"repro-serve-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self) -> None:
        """Stop admitting; queued and in-flight work still completes.

        Closes the queue: each worker returns once it finds it empty.
        """
        if self._state in ("running", "new"):
            self._state = "draining"
        self.queue.close()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the engine; graceful (drain queued work) by default.

        With ``drain=False`` queued entries are shed immediately with
        ``rejected`` responses; the in-flight batch still finishes.  An
        engine without worker threads drains on the caller's thread.
        """
        if self._state == "stopped":
            return
        if drain:
            self.drain()
            if not self._threads:
                while self.run_once():
                    pass
        else:
            self._state = "stopping"
            for entry in self.queue.drain():
                self._finish_shed(entry, "engine shutdown")
            self.queue.close()
        for thread in self._threads:
            thread.join(timeout)
        self._state = "stopped"
        self._emit_slo_gauges()

    def __enter__(self) -> "ServingEngine":
        return self.start() if self._state == "new" else self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown(drain=True)

    # -- submission ------------------------------------------------------

    def submit(
        self,
        request: SpMVRequest,
        described: Optional[Tuple[str, str, str]] = None,
    ) -> Ticket:
        """Admit one request; always returns a ticket, never raises on
        overload (rejections are structured responses).

        ``described`` is the caller's :meth:`LoadStage.describe` of
        ``request.source`` (the cluster router hashes the matrix once
        and hands the triple down); without it the engine describes the
        source itself.  Either way the matrix is hashed once per submit,
        and it must not change until the request is answered.
        """
        t = telemetry.get()
        request, trace, owns_root = request.ensure_trace()
        with tracing.scope(trace), t.span(
            "serving.enqueue", scheme=request.scheme
        ):
            if self._state == "new":
                raise ServingError("engine not started (call start())")
            if self._state != "running":
                return self._reject_ticket(
                    request, "engine is draining",
                    trace=trace, owns_root=owns_root,
                )
            now = time.monotonic()
            if request.work is not None:
                return self._submit_session(request, now, trace,
                                            owns_root, t)
            try:
                spec = get_scheme(request.scheme)
                config = request.resolve_config(spec)
                if described is None:
                    described = LoadStage.describe(request.source)
            except ReproError as error:
                # Malformed work (unknown scheme/matrix, bad override)
                # answers immediately — a structured error, not a crash.
                self.ledger.record(normalize_tenant(request.tenant), None,
                                   STATUS_ERROR, 0.0)
                if t.enabled:
                    t.counter("serving.errors", 1, phase="admission")
                if owns_root and trace is not None:
                    t.emit_span("serving.request", trace, 0.0,
                                status=STATUS_ERROR,
                                request_id=request.request_id)
                return Ticket(response=SpMVResponse(
                    request_id=request.request_id,
                    status=STATUS_ERROR,
                    detail=str(error),
                    trace_id=trace.trace_id if trace else "",
                ))
            config_fp = fingerprint_config(config)
            work_fp = fingerprint(
                "serve", described[2], spec.name, spec.version, config_fp
            )
            entry = _Entry(
                request, next(self._seq), spec, config,
                group=(spec.name, config_fp), work_fp=work_fp, now=now,
                trace=trace, owns_root=owns_root, described=described,
            )
            with self._lock:
                leader = self._inflight.get(work_fp)
                if leader is not None and not leader.done:
                    leader.followers.append(entry)
                    self.ledger.admit(entry.tenant, coalesced=True)
                    if t.enabled:
                        t.counter("serving.coalesced", 1, scheme=spec.name)
                        # The causal edge between the follower's tree and
                        # the leader execution it will share.
                        if trace is not None:
                            t.event(
                                "trace.link",
                                kind="coalesce",
                                peer_trace_id=(
                                    leader.trace.trace_id
                                    if leader.trace else ""
                                ),
                                scheme=spec.name,
                            )
                    coalesced_onto = leader
                else:
                    self._inflight[work_fp] = entry
                    coalesced_onto = None
            if coalesced_onto is not None:
                # A hot follower drags its queued leader forward so the
                # shared execution honours the most urgent caller.
                self.queue.reprioritize(coalesced_onto, entry.priority)
                return Ticket(entry=entry)
            return self._admit(entry, now, t)

    def _submit_session(self, request: SpMVRequest, now: float,
                        trace, owns_root: bool, t) -> Ticket:
        """Admit one session work item.

        Session work rides the same admission queue (priority, deadline,
        displacement) as one-shot requests — that is the cross-session
        fairness mechanism — but never coalesces (each iteration slice
        is unique work) and only batches with work of its own session,
        which preserves per-session in-order execution.
        """
        work = request.work
        entry = _Entry(
            request, next(self._seq), _SESSION_SPEC, None,
            group=("session", work.session_id),
            work_fp=fingerprint(
                "session-work", work.session_id, str(request.request_id)
            ),
            now=now, trace=trace, owns_root=owns_root,
        )
        return self._admit(entry, now, t)

    def _admit(self, entry: _Entry, now: float, t) -> Ticket:
        """Push ``entry`` onto the admission queue and settle the
        outcome of every entry the push decided: expired entries it
        swept, the entry it displaced, and ``entry`` itself when the
        queue refused it."""
        admitted, displaced, expired = self.queue.push(entry, now=now)
        for stale in expired:
            self._finish_expired(stale)
        if displaced is not None:
            self._finish_shed(
                displaced,
                "displaced by higher-priority request",
                reason_key="displaced",
            )
        if not admitted:
            reason, reason_key = self._overload_reason(entry.tenant)
            self._finish_shed(entry, reason, reason_key=reason_key)
            return Ticket(entry=entry)
        self.ledger.admit(entry.tenant)
        if t.enabled:
            t.counter("serving.accepted", 1, scheme=entry.spec.name)
            t.counter("serving.tenant.accepted", 1, tenant=entry.tenant)
            t.gauge("serving.queue_depth", len(self.queue))
        return Ticket(entry=entry)

    def _overload_reason(self, tenant: str) -> Tuple[str, str]:
        """Why an un-admitted push was shed (quota vs global overload)."""
        quota = self.queue.tenant_quota()
        if (quota < self.queue.capacity
                and self.queue.tenant_depth(tenant) >= quota):
            return (
                f"tenant {tenant!r} over quota "
                f"({quota} of {self.queue.capacity} slots)",
                "tenant_quota",
            )
        return f"queue full (capacity {self.queue.capacity})", "queue_full"

    def submit_wait(self, request: SpMVRequest,
                    timeout: Optional[float] = None) -> SpMVResponse:
        """Submit and block for the response (the in-process client path)."""
        return self.submit(request).result(timeout)

    # -- dispatch --------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        # Blocks in ``pop``; returns once the queue is closed and empty.
        while self._dispatch(index, None):
            pass

    def run_once(self) -> bool:
        """Run the worker loop's body once on the caller's thread, without
        blocking; whether it dispatched or expired anything."""
        return self._dispatch(0, 0)

    def _dispatch(self, worker: int, timeout: Optional[float]) -> bool:
        """Pop one entry (waiting up to ``timeout``), settle what expired,
        execute the micro-batch; ``False`` if the pop found nothing."""
        t = telemetry.get()
        entry, expired = self.queue.pop(timeout)
        for stale in expired:
            self._finish_expired(stale)
        if entry is None:
            return bool(expired)
        with tracing.scope(entry.trace), t.span(
            "serving.dispatch", worker=worker
        ):
            if entry.expired_at(time.monotonic()):
                self._finish_expired(entry)
                return True
            # Batch only within the leader's tenant: micro-batching
            # amortises dispatch, it must not let one tenant's backlog
            # ride along on another tenant's fair-share turn.
            batch = [entry] + self.queue.pop_group(
                lambda other: (other.group == entry.group
                               and other.tenant == entry.tenant),
                self.max_batch - 1,
            )
            if t.enabled:
                t.gauge("serving.queue_depth", len(self.queue))
                t.gauge("serving.batch_size", len(batch),
                        scheme=entry.spec.name)
        # Each batch member executes under its *own* trace so the
        # pipeline spans nest into the right request tree; members
        # beyond the first link back to the batch leader's tree.
        for item in batch:
            with tracing.scope(item.trace):
                if t.enabled and len(batch) > 1 and item is not entry \
                        and item.trace is not None:
                    t.event(
                        "trace.link",
                        kind="batch",
                        peer_trace_id=(
                            entry.trace.trace_id if entry.trace else ""
                        ),
                        scheme=entry.spec.name,
                    )
                if item.expired_at(time.monotonic()):
                    self._finish_expired(item)
                else:
                    with t.span(
                        "serving.execute",
                        scheme=entry.spec.name,
                        batch=len(batch),
                        worker=worker,
                    ):
                        self._execute(item)
        return True

    def _tier_for(self, scheme: str) -> str:
        """The fidelity tier this scheme executes at right now."""
        if self.fidelity == "exact":
            return "exact"
        with self._lock:
            if scheme in self._demoted:
                return "exact"
        return self.fidelity

    def _execute(self, entry: _Entry) -> None:
        if entry.request.work is not None:
            self._execute_session(entry)
            return
        started = time.monotonic()
        queue_s = max(started - entry.submitted_at, 0.0)
        result = None
        try:
            result = self.runner.analyze(
                entry.request.source, entry.spec, entry.config,
                fidelity=self._tier_for(entry.spec.name),
                calibration=self.calibration,
                described=entry.described,
            )
            service_s = max(time.monotonic() - started, 0.0)
            response = SpMVResponse(
                request_id=entry.request.request_id,
                status=STATUS_OK,
                report=result.report,
                cache_status="fresh",
                queue_s=queue_s,
                service_s=service_s,
                fidelity=result.fidelity,
            )
        except ReproError as error:
            service_s = max(time.monotonic() - started, 0.0)
            response = SpMVResponse(
                request_id=entry.request.request_id,
                status=STATUS_ERROR,
                detail=str(error),
                queue_s=queue_s,
                service_s=service_s,
            )
        self._fulfill(entry, response, exec_started=started)
        # The audit runs *after* fulfilment so the sampled exact re-run
        # never delays the response the caller is waiting on.
        if result is not None and result.fidelity == "estimate":
            if should_audit(entry.work_fp, self.audit_rate):
                self._audit(entry, result)

    def _execute_session(self, entry: _Entry) -> None:
        """Run one session work item against the resident-state store."""
        started = time.monotonic()
        queue_s = max(started - entry.submitted_at, 0.0)
        work = entry.request.work
        try:
            payload = work.execute(self.runner, self.resident)
            response = SpMVResponse(
                request_id=entry.request.request_id,
                status=STATUS_OK,
                cache_status="resident",
                queue_s=queue_s,
                service_s=max(time.monotonic() - started, 0.0),
                payload=payload,
            )
        except ReproError as error:
            response = SpMVResponse(
                request_id=entry.request.request_id,
                status=STATUS_ERROR,
                detail=str(error),
                queue_s=queue_s,
                service_s=max(time.monotonic() - started, 0.0),
            )
        self._fulfill(entry, response, exec_started=started)

    def _audit(self, entry: _Entry, estimate) -> None:
        """Differential gate: re-run one estimate-tier response through
        the exact simulator, record the relative total-cycle error, and
        demote the scheme to ``exact`` when the calibrated bound is
        exceeded."""
        t = telemetry.get()
        scheme = entry.spec.name
        with t.span("serving.audit", scheme=scheme):
            try:
                exact = self.runner.analyze(
                    entry.request.source, entry.spec, entry.config,
                    fidelity="exact", described=entry.described,
                )
            except ReproError:
                # The request was already answered ok: a failed re-run
                # is an audit error, not a second outcome.
                with self._lock:
                    self.audit_stats["errors"] += 1
                if t.enabled:
                    t.counter("serving.errors", 1, phase="audit")
                return
        estimated_total = estimate.report.total_cycles
        exact_total = exact.report.total_cycles
        rel_error = abs(estimated_total - exact_total) / max(exact_total, 1)
        tolerance = estimate.estimate_artifact.tolerance
        violated = rel_error > tolerance
        with self._lock:
            stats = self.audit_stats
            stats["sampled"] += 1
            stats["_error_sum"] += rel_error
            stats["max_rel_error"] = max(stats["max_rel_error"], rel_error)
            stats["mean_rel_error"] = stats["_error_sum"] / stats["sampled"]
            if violated:
                stats["violations"] += 1
                self._demoted.add(scheme)
        if t.enabled:
            t.counter("serving.audit.sampled", 1, scheme=scheme)
            t.gauge("serving.audit.rel_error", rel_error, scheme=scheme)
            if violated:
                t.counter("serving.audit.violations", 1, scheme=scheme)
        if violated:
            telemetry.warn_once(
                f"audit_demoted_{scheme}",
                f"estimate-tier audit for scheme {scheme!r} measured "
                f"relative cycle error {rel_error:.4f} above the "
                f"calibrated tolerance {tolerance:.4f}; scheme demoted "
                f"to the exact tier for this engine",
            )

    # -- fulfillment -----------------------------------------------------

    def _claim(self, entry: _Entry) -> List[_Entry]:
        """Mark the leader done and detach its followers, atomically
        against new followers attaching in :meth:`submit`."""
        with self._lock:
            entry.done = True
            if self._inflight.get(entry.work_fp) is entry:
                del self._inflight[entry.work_fp]
            followers, entry.followers = entry.followers, []
            return followers

    def _resolve(self, entry: _Entry, response: SpMVResponse,
                 shed_reason: str = "") -> SpMVResponse:
        """Answer one admitted entry — the only place its outcome is
        counted, its outcome telemetry emitted and its completion hooks
        called.

        ``shed_reason`` labels a shed leader's ``serving.shed`` counter.
        """
        if entry.trace is not None and not response.trace_id:
            response = dataclasses.replace(
                response, trace_id=entry.trace.trace_id
            )
        entry.response = response
        status = response.status
        latency_ms = response.total_s * 1e3
        self.ledger.record(entry.tenant, entry.slo_class, status,
                           latency_ms, coalesced=response.coalesced)
        t = telemetry.get()
        if t.enabled:
            scheme = entry.spec.name
            # Leader counters count executions, sheds and expiries once;
            # a coalesced follower only counts as served.
            if response.coalesced:
                if response.ok:
                    t.counter("serving.coalesced_served", 1, scheme=scheme)
            elif status == STATUS_OK:
                t.counter("serving.completed", 1, scheme=scheme)
            elif status == STATUS_EXPIRED:
                t.counter("serving.expired", 1, scheme=scheme)
            elif status == STATUS_ERROR:
                t.counter("serving.errors", 1, phase=(
                    "execute" if entry.request.work is None else "session"
                ))
            else:
                t.counter("serving.shed", 1, reason=shed_reason)
            t.histogram("serving.latency_ms", latency_ms,
                        slo_class=entry.slo_class)
            t.counter(f"serving.tenant.{OUTCOMES[status]}", 1,
                      tenant=entry.tenant)
            if response.ok:
                t.histogram("serving.tenant.latency_ms", latency_ms,
                            tenant=entry.tenant)
            if response.queue_s:
                t.histogram("serving.queue_ms", response.queue_s * 1e3)
            # The root of the request's causal tree: emitted exactly once
            # per trace, by the layer that created it.
            if entry.owns_root and entry.trace is not None:
                t.emit_span(
                    "serving.request",
                    entry.trace,
                    max(time.monotonic() - entry.submitted_at, 0.0),
                    status=status,
                    scheme=entry.request.scheme,
                    request_id=entry.request.request_id,
                    slo_class=entry.slo_class,
                    coalesced=response.coalesced,
                )
        entry.event.set()
        for hook in tuple(entry.hooks):
            hook()
        return response

    def _fulfill(self, entry: _Entry, response: SpMVResponse,
                 exec_started: Optional[float] = None) -> None:
        followers = self._claim(entry)
        self._resolve(entry, response)
        for follower in followers:
            share_point = (
                exec_started if exec_started is not None
                else follower.submitted_at
            )
            self._resolve(follower, SpMVResponse(
                request_id=follower.request.request_id,
                status=response.status,
                report=response.report,
                detail=response.detail,
                coalesced=True,
                cache_status=(
                    "coalesced" if response.ok else response.cache_status
                ),
                queue_s=max(share_point - follower.submitted_at, 0.0),
                service_s=response.service_s,
                fidelity=response.fidelity,
            ))

    def _finish_expired(self, entry: _Entry) -> None:
        followers = self._claim(entry)
        waited = max(time.monotonic() - entry.submitted_at, 0.0)
        for item in [entry] + followers:
            self._resolve(item, SpMVResponse(
                request_id=item.request.request_id,
                status=STATUS_EXPIRED,
                detail=(
                    f"deadline of {entry.request.deadline_ms:g} ms "
                    f"passed after {waited * 1e3:.1f} ms in queue"
                ),
                coalesced=item is not entry,
                queue_s=waited,
            ))

    def _finish_shed(self, entry: _Entry, reason: str,
                     reason_key: str = "shutdown") -> None:
        followers = self._claim(entry)
        for item in [entry] + followers:
            self._resolve(item, SpMVResponse(
                request_id=item.request.request_id,
                status=STATUS_REJECTED,
                detail=reason,
                coalesced=item is not entry,
                queue_s=max(time.monotonic() - item.submitted_at, 0.0),
            ), shed_reason=reason_key)

    def _reject_ticket(
        self, request: SpMVRequest, reason: str,
        trace: Optional[TraceContext] = None, owns_root: bool = False,
    ) -> Ticket:
        tenant = normalize_tenant(request.tenant)
        self.ledger.record(tenant, None, STATUS_REJECTED, 0.0)
        t = telemetry.get()
        if t.enabled:
            t.counter("serving.shed", 1, reason="draining")
            t.counter("serving.tenant.shed", 1, tenant=tenant)
            if owns_root and trace is not None:
                t.emit_span("serving.request", trace, 0.0,
                            status=STATUS_REJECTED,
                            request_id=request.request_id)
        return Ticket(response=SpMVResponse(
            request_id=request.request_id,
            status=STATUS_REJECTED,
            detail=reason,
            trace_id=trace.trace_id if trace else "",
        ))

    # -- accounting ------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Admissions, plus one count per execution, shed, expiry and
        error — coalesced followers count only as ``coalesced``."""
        tenants = self.ledger.tenant_counts().values()
        stats = {key: sum(row[key] for row in tenants)
                 for key in ("accepted", "coalesced")}
        leaders = self.ledger.status_totals(coalesced=False)
        for status, outcome in OUTCOMES.items():
            stats[outcome] = leaders.get(status, 0)
        return stats

    def tenant_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant outcome counts plus served-latency percentiles,
        all read from the ledger; every answer counts toward its own
        tenant (coalesced followers included)."""
        tenants: Dict[str, Dict[str, Any]] = self.ledger.tenant_counts()
        for tenant, summary in tenants.items():
            summary["latency"] = self.ledger.latency_summary(tenant)
        return tenants

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max of served request latency (ms)."""
        return self.ledger.latency_summary()

    def slo_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-class error-budget burn (see
        :meth:`repro.serving.slo.OutcomeLedger.burn_rates`)."""
        return self.ledger.burn_rates()

    def demoted_schemes(self) -> Tuple[str, ...]:
        """Schemes the audit gate has demoted to the exact tier."""
        with self._lock:
            return tuple(sorted(self._demoted))

    def audit_summary(self) -> Dict[str, Any]:
        """Sampled-audit bookkeeping: counts, error stats, demotions."""
        with self._lock:
            return {
                "fidelity": self.fidelity,
                "audit_rate": self.audit_rate,
                "sampled": self.audit_stats["sampled"],
                "violations": self.audit_stats["violations"],
                "errors": self.audit_stats["errors"],
                "max_rel_error": self.audit_stats["max_rel_error"],
                "mean_rel_error": self.audit_stats["mean_rel_error"],
                "demoted": sorted(self._demoted),
            }

    def _emit_slo_gauges(self) -> None:
        t = telemetry.get()
        if not t.enabled:
            return
        summary = self.latency_summary()
        for key, value in summary.items():
            t.gauge(f"serving.latency.{key}", value)
        self.ledger.emit_slo_gauges(t, "serving")
        for key, value in self.stats.items():
            if value:
                t.counter(f"serving.final.{key}", value)
        for tenant, counts in sorted(self.ledger.tenant_counts().items()):
            for key, value in counts.items():
                if value:
                    t.counter(f"serving.tenant.final.{key}", value,
                              tenant=tenant)
            latency = self.ledger.latency_summary(tenant)
            if latency["count"]:
                t.gauge("serving.tenant.p99_ms", latency["p99_ms"],
                        tenant=tenant)
        resident = self.resident.snapshot()
        if resident["hits"] or resident["misses"]:
            t.counter("serving.resident.final.hits", resident["hits"])
            t.counter("serving.resident.final.misses",
                      resident["misses"])
            if resident["evictions"]:
                t.counter("serving.resident.final.evictions",
                          resident["evictions"])
        audit = self.audit_summary()
        if audit["sampled"]:
            t.counter("serving.audit.final.sampled", audit["sampled"])
            t.gauge("serving.audit.max_rel_error", audit["max_rel_error"])
            t.gauge("serving.audit.mean_rel_error", audit["mean_rel_error"])
            if audit["violations"]:
                t.counter(
                    "serving.audit.final.violations", audit["violations"]
                )
            t.gauge("serving.audit.demoted_schemes", len(audit["demoted"]))
