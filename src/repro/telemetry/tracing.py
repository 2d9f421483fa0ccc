"""Request-scoped trace contexts: one causal tree per request.

A :class:`TraceContext` names a position in one request's causal tree:
the ``trace_id`` every record of the request shares, and the
``span_id`` of the span that is the *current parent* — any span opened
while the context is active becomes that span's child.  Contexts are
immutable; descending into a child span produces a new context.

Propagation is two-mode, matching how requests actually move:

* **within a thread** — a :mod:`contextvars` variable holds the active
  context.  :class:`~repro.telemetry.core.Span` reads it on ``__enter__``
  (allocating its own span id and installing a child context) and
  restores it on ``__exit__``, so ordinary nested spans chain with zero
  call-site changes.
* **across threads and layers** — the context rides explicitly on
  :class:`~repro.serving.request.SpMVRequest` (and the engine's queue
  entries), because serving workers do not inherit the submitter's
  contextvars.  A worker re-enters the request's tree with
  :func:`scope` before touching the pipeline.

The root of each tree is the *request span* (``serving.request`` /
``cluster.request``), emitted by whichever layer created the trace when
the request resolves.  Coalesced followers, hedged duplicates and
micro-batch members keep their causal relationship through ``trace.link``
events (see :meth:`~repro.telemetry.core.Telemetry.event`).

Sampling is governed by ``REPRO_TRACE_SAMPLE`` (fraction of requests
traced, default 1.0 — every request — when telemetry is enabled;
tracing is always off when telemetry is disabled).  The draw is
deterministic in the request id so replays trace the same subset.
"""

from __future__ import annotations

import contextvars
import itertools
import uuid
from dataclasses import dataclass
from typing import Any, Optional

from ..knobs import knob

TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

_SAMPLE = knob(TRACE_SAMPLE_ENV)

#: Process-wide span id source.  Span ids only need to be unique within
#: one process's records (parent references never cross processes).
_SPAN_IDS = itertools.count(1)

#: The active trace context of the current thread (``None`` = untraced).
_CURRENT: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_context", default=None)
)

#: Knuth multiplicative hash constant for the deterministic sample draw.
_HASH_MULT = 2654435761
_HASH_MOD = 2 ** 32


@dataclass(frozen=True)
class TraceContext:
    """One position in a request's causal tree (immutable)."""

    #: 16-hex id shared by every record of one request's tree.
    trace_id: str
    #: The span that parents anything opened under this context.  For a
    #: freshly started trace this is the *root* span's id — the request
    #: span emitted when the request resolves.
    span_id: str

    def child(self, span_id: str) -> "TraceContext":
        """The context a child span installs while it is open."""
        return TraceContext(self.trace_id, span_id)


def new_trace_id() -> str:
    """A fresh 16-hex trace id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh span id (unique within this process)."""
    return f"{next(_SPAN_IDS):012x}"


def start_trace() -> TraceContext:
    """A root context: fresh trace id, fresh root span id."""
    return TraceContext(new_trace_id(), new_span_id())


def current() -> Optional[TraceContext]:
    """The active context of this thread (``None`` when untraced)."""
    return _CURRENT.get()


#: Public alias: ``telemetry.current_trace()`` reads better at call sites.
current_trace = current


def activate(context: Optional[TraceContext]) -> Any:
    """Install ``context`` as active; returns the restore token."""
    return _CURRENT.set(context)


def restore(token: Any) -> None:
    """Undo one :func:`activate`."""
    _CURRENT.reset(token)


class scope:
    """Context manager installing a trace context for a block.

    ``scope(None)`` is an explicit no-op — call sites can pass an
    optional context through without branching.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, context: Optional[TraceContext]):
        self._context = context
        self._token = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._context is not None:
            self._token = _CURRENT.set(self._context)
        return self._context

    def __exit__(self, *_exc: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


def resolve_trace_sample(value: Optional[float] = None) -> float:
    """Resolve the trace sampling fraction: explicit > env > default.

    An explicit value is clamped to [0, 1]; the environment value is
    read under the knob rule of :mod:`repro.knobs`.
    """
    if value is not None:
        return min(max(float(value), 0.0), 1.0)
    return _SAMPLE.read()


def sample_draw(request_id: int) -> float:
    """Deterministic uniform draw in [0, 1) from a request id."""
    return ((request_id * _HASH_MULT) % _HASH_MOD) / _HASH_MOD


def maybe_start_trace(
    request_id: int, sample: Optional[float] = None
) -> Optional[TraceContext]:
    """Start a root context for a request, or ``None`` when untraced.

    Untraced means: telemetry disabled (no records would ever be
    emitted), or the request's deterministic draw falls outside the
    sampling fraction.
    """
    from . import core  # function-local: core imports this module

    if not core.get().enabled:
        return None
    rate = resolve_trace_sample(sample)
    if rate <= 0.0:
        return None
    if rate < 1.0 and sample_draw(request_id) >= rate:
        return None
    return start_trace()
