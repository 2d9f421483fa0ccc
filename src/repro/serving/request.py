"""Typed requests and responses of the SpMV serving layer.

A :class:`SpMVRequest` names the work — a matrix source, a registered
scheme, optional config overrides — plus the service parameters the
engine schedules by: **priority** (higher runs first) and an optional
relative **deadline**.  A :class:`SpMVResponse` always comes back, for
every submitted request, with a structured ``status``:

========== ==========================================================
status     meaning
========== ==========================================================
ok         executed (or coalesced onto an identical in-flight
           execution); ``report`` is the :class:`SpMVReport`
rejected   shed by admission control (queue full, displaced by a
           higher-priority request, or the engine was draining);
           never executed
expired    dequeued after its deadline had already passed; never
           executed
error      execution failed with a library error; ``detail`` carries
           the message
========== ==========================================================

Rejection and expiry are *responses*, not exceptions — under overload
the serving layer degrades by answering quickly, not by raising.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..config import AcceleratorConfig
from ..errors import ConfigError
from ..pipeline.artifacts import SpMVReport
from ..pipeline.fingerprint import fingerprint, fingerprint_config
from ..pipeline.stages import LoadStage
from ..scheduling.registry import SchedulerSpec, get_scheme
from ..telemetry import tracing
from ..telemetry.tracing import TraceContext
from ..tenancy import DEFAULT_TENANT, normalize_tenant
from .slo import DEFAULT_SLOS, classify_request

#: Process-wide request id source (monotonic, thread-safe by the GIL).
_REQUEST_IDS = itertools.count(1)

#: Response statuses, in the order of the table above.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "expired"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class SpMVRequest:
    """One unit of serving work.

    ``source`` is anything :meth:`repro.pipeline.runner.PipelineRunner.load`
    accepts: a named-matrix string, a ``MatrixSpec``/``CorpusSpec``, or
    an in-memory matrix.  ``config`` overrides the scheme's default
    configuration wholesale; ``config_overrides`` patches individual
    fields of it (applied with :func:`dataclasses.replace`).

    An in-memory matrix is hashed once per submit, and the answer is
    computed and cached under that digest: the matrix must not change
    while the request is in flight.  Editing it between submits is
    fine; the next submit hashes it again.
    """

    source: Any
    scheme: str = "crhcs"
    config: Optional[AcceleratorConfig] = None
    #: Field-level patches applied to the effective config.
    config_overrides: Optional[Dict[str, Any]] = None
    #: Higher priorities dispatch first; ties run in submission order.
    priority: int = 0
    #: Relative deadline in milliseconds from submission; ``None`` waits
    #: forever.  A request dequeued past its deadline answers ``expired``.
    deadline_ms: Optional[float] = None
    #: SLO class (``interactive``/``batch``); ``None`` classifies by
    #: priority and deadline (see :func:`repro.serving.slo.classify_request`).
    slo_class: Optional[str] = None
    #: Tenant this request is scheduled and accounted under.  Requests
    #: that never mention a tenant share :data:`~repro.tenancy.tenant
    #: .DEFAULT_TENANT` — the single-tenant path, where the fair queue
    #: degenerates to the original global policy.  Like priority and
    #: deadline, the tenant affects *when* work runs, never *what* it
    #: computes, so it stays out of the work fingerprint (identical work
    #: from different tenants still coalesces and caches together).
    tenant: str = DEFAULT_TENANT
    #: Trace context of this request's causal tree.  ``None`` until the
    #: first tracing-aware layer (cluster or engine) attaches one; the
    #: explicit field is what carries the trace across thread boundaries.
    trace: Optional[TraceContext] = None
    #: Session work item, or ``None`` for a plain one-shot SpMV.  When
    #: set, the engine dispatches through the item's
    #: ``execute(runner, resident)`` instead of the analyze flow — the
    #: duck-typed contract is: attributes ``session_id`` (str) and
    #: ``kind`` (str), and ``execute`` returning a JSON-ish payload
    #: dict.  Priority/deadline/SLO class on *this* request still govern
    #: admission — a session inherits them onto every iteration.
    work: Optional[Any] = None
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def effective_slo_class(self) -> str:
        """The SLO class this request is accounted under."""
        if self.slo_class and self.slo_class in DEFAULT_SLOS:
            return self.slo_class
        return classify_request(self.priority, self.deadline_ms)

    def ensure_trace(
        self,
    ) -> Tuple["SpMVRequest", Optional[TraceContext], bool]:
        """``(request, trace, owns_root)``: this request with a trace
        context attached if tracing wants one.

        A request that arrives with a trace keeps it, and the layer that
        attached it owns the root span.  Otherwise the outermost
        tracing-aware layer that calls this starts the trace (sampling
        permitting) and owns the root.
        """
        if self.trace is not None:
            return self, self.trace, False
        trace = tracing.maybe_start_trace(self.request_id)
        if trace is None:
            return self, None, False
        return dataclasses.replace(self, trace=trace), trace, True

    def resolve_config(self, spec: SchedulerSpec) -> AcceleratorConfig:
        """The effective configuration for this request under ``spec``."""
        config = self.config if self.config is not None else spec.default_config
        if self.config_overrides:
            try:
                config = dataclasses.replace(config, **self.config_overrides)
            except TypeError as error:
                raise ConfigError(
                    f"invalid config override for scheme "
                    f"{spec.name!r}: {error}"
                ) from error
        return config

    def work_fingerprint(
        self, described: Optional[Tuple[str, str, str]] = None
    ) -> str:
        """Content fingerprint of the *work* (not the service params).

        Two requests with equal work fingerprints produce byte-identical
        reports, which is the coalescing rule: priority and deadline
        affect *when* work runs, never *what* it computes, so they stay
        out of the digest.  Matches the fingerprint chain the pipeline
        itself uses, so a coalesced hit is exactly a whole-flow cache
        hit.  ``described`` is the caller's :meth:`LoadStage.describe`
        of ``source``; without it the source is described (an in-memory
        matrix hashed) here.
        """
        spec = get_scheme(self.scheme)
        config = self.resolve_config(spec)
        if described is None:
            described = LoadStage.describe(self.source)
        return fingerprint(
            "serve",
            described[2],
            spec.name,
            spec.version,
            fingerprint_config(config),
        )


@dataclass(frozen=True)
class SpMVResponse:
    """The structured answer to one :class:`SpMVRequest`."""

    request_id: int
    status: str
    report: Optional[SpMVReport] = None
    #: Human-readable reason for non-``ok`` statuses.
    detail: str = ""
    #: ``True`` when this response shared another request's execution.
    coalesced: bool = False
    #: ``fresh`` (executed), ``coalesced`` (shared an in-flight
    #: execution), or ``none`` (no report produced).
    cache_status: str = "none"
    #: Seconds spent queued before dispatch.
    queue_s: float = 0.0
    #: Seconds spent executing (0 for shed/expired requests).
    service_s: float = 0.0
    #: Which tier produced the report: ``exact`` (cycle simulator),
    #: ``estimate`` (calibrated analytical model), or ``""`` when no
    #: report was produced.
    fidelity: str = ""
    #: The request's trace id (``""`` for untraced requests) — the key
    #: into the exported causal tree for this request.
    trace_id: str = ""
    #: Session-work result payload (iteration counts, residuals, and for
    #: fetches the solution itself); ``None`` for one-shot responses.
    payload: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def total_s(self) -> float:
        return self.queue_s + self.service_s

    def to_json(self) -> str:
        """One compact JSON object (the ``repro serve`` output line)."""
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "status": self.status,
            "coalesced": self.coalesced,
            "cache_status": self.cache_status,
            "queue_ms": round(self.queue_s * 1e3, 3),
            "service_ms": round(self.service_s * 1e3, 3),
        }
        if self.detail:
            payload["detail"] = self.detail
        if self.fidelity:
            payload["fidelity"] = self.fidelity
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.report is not None:
            payload["report"] = dataclasses.asdict(self.report)
        if self.payload is not None:
            payload["payload"] = {
                key: (value.tolist() if hasattr(value, "tolist")
                      else value)
                for key, value in self.payload.items()
            }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def request_from_json(line: str) -> SpMVRequest:
    """Parse one ``repro serve`` JSONL request line.

    Recognised keys: ``matrix`` (a named-matrix string, required),
    ``scheme``, ``priority``, ``deadline_ms``, ``slo_class``,
    ``tenant``, ``config`` (a dict of field overrides).  Unknown keys
    raise :class:`ConfigError` so a typo (``priorty``) cannot silently
    lose its intent.  A line without ``tenant`` belongs to the default
    tenant — existing request files behave exactly as before.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ConfigError(f"request line is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ConfigError("request line must be a JSON object")
    known = {"matrix", "scheme", "priority", "deadline_ms", "slo_class",
             "tenant", "config"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(
            f"unknown request fields {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    if "matrix" not in payload:
        raise ConfigError("request line needs a 'matrix' field")
    overrides = payload.get("config")
    if overrides is not None and not isinstance(overrides, dict):
        raise ConfigError("'config' must be an object of field overrides")
    slo_class = payload.get("slo_class")
    if slo_class is not None and slo_class not in DEFAULT_SLOS:
        raise ConfigError(
            f"unknown slo_class {slo_class!r}; "
            f"known: {sorted(DEFAULT_SLOS)}"
        )
    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ConfigError("'tenant' must be a string")
    return SpMVRequest(
        source=payload["matrix"],
        scheme=payload.get("scheme", "crhcs"),
        config_overrides=overrides,
        priority=int(payload.get("priority", 0)),
        deadline_ms=(
            float(payload["deadline_ms"])
            if payload.get("deadline_ms") is not None
            else None
        ),
        slo_class=slo_class,
        tenant=normalize_tenant(tenant),
    )
