"""The telemetry registry: spans, counters, and gauges.

One :class:`Telemetry` instance owns a sink and three instrument kinds:

* **spans** — wall-clock timers (``time.perf_counter``) opened with the
  context-manager :meth:`Telemetry.span`.  Spans nest; a span's record
  carries its full ``/``-joined path ("corpus.run/corpus.spec/…"), so the
  trace reconstructs the call tree without explicit parent ids.  A record
  is emitted when the span *closes*, so children precede parents in the
  stream — exactly the order a depth-first timer pops.
* **counters** — monotonic accumulators keyed by ``(name, attrs)``.
  Increments are buffered in-process and emitted as one record per key at
  :meth:`Telemetry.flush` (called automatically on :meth:`close` and at
  interpreter exit).
* **gauges** — last-value-wins samples that also aggregate
  count/min/max/mean into the record's attributes (FIFO high-water
  marks, throughput samples).
* **histograms** — log-bucketed latency distributions
  (:mod:`repro.telemetry.hist`): each sample lands in an exponential
  bucket, and flush emits one mergeable snapshot record per
  ``(name, attrs)`` bucket — the distribution itself, not pre-chewed
  percentiles.
* **events** — immediate point-in-time records (kind ``"event"``),
  used for the trace ``link`` events that tie coalesced followers,
  hedged duplicates, and micro-batch members into request trees.

Spans participate in request tracing (:mod:`repro.telemetry.tracing`):
when a :class:`TraceContext` is active on the current thread, an opening
span allocates its own span id, emits ``trace_id``/``span_id``/
``parent_span_id`` on its record, and installs itself as the parent of
anything opened inside it.  Untraced spans emit exactly as before.

The **disabled path is near-zero-cost**: :func:`get` returns the shared
:data:`NULL` singleton whose ``span`` hands back one reusable no-op
context manager and whose counter/gauge methods return immediately.  Call
sites guard any non-trivial bookkeeping with ``if telemetry.enabled:``.

Configuration follows the environment by default: ``REPRO_TELEMETRY`` set
to a path appends JSONL records there (``-`` streams to stderr); unset
leaves telemetry disabled.  :func:`configure`, :func:`disable` and the
test helper :func:`capture` override the environment explicitly.
"""

from __future__ import annotations

import atexit
import logging
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple, Union

from ..knobs import knob
from . import tracing
from .hist import Histogram
from .sinks import JsonlSink, MemorySink, Sink
from .tracing import TraceContext

#: Environment variable enabling the JSONL sink (a path, or ``-`` = stderr).
TELEMETRY_ENV = "REPRO_TELEMETRY"

logger = logging.getLogger("repro.telemetry")

#: Attribute key tuple used to bucket counters/gauges: sorted (key, value).
_AttrKey = Tuple[Tuple[str, Any], ...]


def _attr_key(attrs: Dict[str, Any]) -> _AttrKey:
    return tuple(sorted(attrs.items()))


class Span:
    """One open span; emits its record on ``__exit__``.

    When a trace context is active on this thread, the span joins the
    request tree: it allocates a span id, records its parent, and
    installs a child context so nested spans chain under it.
    """

    __slots__ = (
        "_telemetry", "name", "attrs", "_path", "_start",
        "_span_id", "_parent_id", "_trace_id", "_token",
    )

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self._path = ""
        self._start = 0.0
        self._span_id: Optional[str] = None
        self._parent_id: Optional[str] = None
        self._trace_id: Optional[str] = None
        self._token: Any = None

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._telemetry._stack
        self._path = (
            f"{stack[-1]}/{self.name}" if stack else self.name
        )
        stack.append(self._path)
        context = tracing.current()
        if context is not None:
            self._trace_id = context.trace_id
            self._parent_id = context.span_id
            self._span_id = tracing.new_span_id()
            self._token = tracing.activate(context.child(self._span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        duration = time.perf_counter() - self._start
        if self._token is not None:
            tracing.restore(self._token)
            self._token = None
        stack = self._telemetry._stack
        if stack and stack[-1] == self._path:
            stack.pop()
        self._telemetry._emit(
            kind="span",
            name=self._path,
            duration_s=round(duration, 9),
            attrs=self.attrs or None,
            trace_id=self._trace_id,
            span_id=self._span_id,
            parent_span_id=self._parent_id,
        )


class _NullSpan:
    """The reusable no-op span of the disabled path."""

    __slots__ = ()

    def annotate(self, **_attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    Shared singleton (:data:`NULL`); call sites check :attr:`enabled`
    before doing any bookkeeping of their own.
    """

    enabled = False
    run_id = "disabled"

    def span(self, name: str, **attrs: Any) -> _NullSpan:  # noqa: ARG002
        return _NULL_SPAN

    def counter(self, name: str, value: Union[int, float] = 1,
                **attrs: Any) -> None:
        return None

    def gauge(self, name: str, value: Union[int, float],
              **attrs: Any) -> None:
        return None

    def histogram(self, name: str, value: float, **attrs: Any) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def emit_span(self, name: str, trace: Optional["TraceContext"],
                  duration_s: float, **attrs: Any) -> None:
        return None

    def counter_total(self, name: str) -> Union[int, float]:  # noqa: ARG002
        return 0

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


class Telemetry:
    """An enabled telemetry registry bound to one sink.

    Safe to share across threads: span nesting is tracked per thread
    (each serving worker gets its own stack), while record emission and
    counter/gauge accumulation serialise on one internal lock.
    """

    enabled = True

    def __init__(self, sink: Sink, run_id: Optional[str] = None):
        self.sink = sink
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._seq = 0
        self._origin = time.perf_counter()
        # Span nesting is per *thread*: the serving engine's worker
        # threads each keep their own open-span stack, so concurrent
        # spans cannot corrupt each other's paths.  Sequence numbers,
        # counters and gauges stay registry-global under ``_lock``.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: "Dict[Tuple[str, _AttrKey], Union[int, float]]" = {}
        self._gauges: Dict[Tuple[str, _AttrKey], Dict[str, float]] = {}
        self._hists: Dict[Tuple[str, _AttrKey], Histogram] = {}
        self._closed = False

    @property
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- emission -----------------------------------------------------------

    def _emit(
        self,
        kind: str,
        name: str,
        duration_s: Optional[float] = None,
        value: Optional[Union[int, float]] = None,
        attrs: Optional[Dict[str, Any]] = None,
        worker: Optional[int] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
    ) -> None:
        with self._lock:
            record: Dict[str, Any] = {
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": round(time.perf_counter() - self._origin, 9),
                "kind": kind,
                "name": name,
            }
            self._seq += 1
            if duration_s is not None:
                record["duration_s"] = duration_s
            if value is not None:
                record["value"] = value
            if worker is not None:
                record["worker"] = worker
            if trace_id is not None:
                record["trace_id"] = trace_id
            if span_id is not None:
                record["span_id"] = span_id
            if parent_span_id is not None:
                record["parent_span_id"] = parent_span_id
            if attrs:
                record["attrs"] = attrs
            self.sink.write(record)

    def emit_merged(self, record: Dict[str, Any], worker: int) -> None:
        """Re-emit one captured worker record under this registry.

        Used by the parallel corpus runner: per-worker records come back
        with the results, ordered by spec index, and are re-stamped with
        this registry's run id and sequence — the merged trace is one
        self-consistent stream regardless of worker count.
        """
        with self._lock:
            merged = dict(record)
            merged["run_id"] = self.run_id
            merged["seq"] = self._seq
            merged["worker"] = worker
            self._seq += 1
            self.sink.write(merged)

    # -- instruments --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a nested wall-clock span (use as a context manager)."""
        return Span(self, name, attrs)

    def counter(self, name: str, value: Union[int, float] = 1,
                **attrs: Any) -> None:
        """Add ``value`` to the counter ``name`` (bucketed by attrs)."""
        key = (name, _attr_key(attrs))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: Union[int, float],
              **attrs: Any) -> None:
        """Record a sample of gauge ``name`` (last value wins)."""
        key = (name, _attr_key(attrs))
        with self._lock:
            state = self._gauges.get(key)
            if state is None:
                self._gauges[key] = {
                    "last": value, "min": value, "max": value,
                    "sum": value, "count": 1,
                }
            else:
                state["last"] = value
                state["min"] = min(state["min"], value)
                state["max"] = max(state["max"], value)
                state["sum"] += value
                state["count"] += 1

    def histogram(self, name: str, value: float, **attrs: Any) -> None:
        """Record ``value`` into the log-bucketed histogram ``name``.

        Snapshots are emitted at :meth:`flush` as ``kind="hist"``
        records whose attrs carry the mergeable bucket counts.
        """
        key = (name, _attr_key(attrs))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = Histogram()
        hist.record(value)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an immediate point-in-time record (kind ``"event"``).

        Events carry the active trace context, which makes them the
        vehicle for ``trace.link`` records — the edges tying coalesced
        followers, hedged duplicates, and batch members into one tree.
        """
        context = tracing.current()
        self._emit(
            kind="event",
            name=name,
            attrs=attrs or None,
            trace_id=context.trace_id if context else None,
            parent_span_id=context.span_id if context else None,
        )

    def emit_span(self, name: str, trace: Optional["TraceContext"],
                  duration_s: float, **attrs: Any) -> None:
        """Emit a span record directly, without timing a ``with`` block.

        This is how *root* request spans are written: the request's
        lifetime straddles threads (submit on one, fulfil on another),
        so no single ``with`` block can time it.  The layer that created
        ``trace`` calls this at resolution with the measured duration;
        the record's ``span_id`` is the trace's root span id and it has
        no parent — exactly one such record per trace.
        """
        self._emit(
            kind="span",
            name=name,
            duration_s=round(duration_s, 9),
            attrs=attrs or None,
            trace_id=trace.trace_id if trace else None,
            span_id=trace.span_id if trace else None,
        )

    def counter_total(self, name: str) -> Union[int, float]:
        """Unflushed total of ``name`` summed across attribute buckets."""
        with self._lock:
            return sum(
                value for (key, _), value in self._counters.items()
                if key == name
            )

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Emit one record per pending counter/gauge bucket and reset them.

        Buckets are emitted in sorted (name, attrs) order so a flush is
        deterministic for a deterministic workload.
        """
        with self._lock:
            counters, self._counters = self._counters, {}
            gauges, self._gauges = self._gauges, {}
            hists, self._hists = self._hists, {}
        for (name, attr_key) in sorted(counters, key=repr):
            self._emit(
                kind="counter",
                name=name,
                value=counters[(name, attr_key)],
                attrs=dict(attr_key) or None,
            )
        for (name, attr_key) in sorted(gauges, key=repr):
            state = gauges[(name, attr_key)]
            summary = {
                "min": state["min"],
                "max": state["max"],
                "mean": state["sum"] / state["count"],
                "count": state["count"],
            }
            self._emit(
                kind="gauge",
                name=name,
                value=state["last"],
                attrs={**dict(attr_key), **summary},
            )
        for (name, attr_key) in sorted(hists, key=repr):
            snap = hists[(name, attr_key)].snapshot()
            self._emit(
                kind="hist",
                name=name,
                value=snap["count"],
                attrs={**dict(attr_key), **snap},
            )
        self.sink.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        self.sink.close()


#: The shared disabled singleton.
NULL = NullTelemetry()

TelemetryLike = Union[Telemetry, NullTelemetry]

#: ``None`` means "not yet resolved from the environment".
_active: Optional[TelemetryLike] = None


def _from_env() -> TelemetryLike:
    target = knob(TELEMETRY_ENV).current
    if target is None:
        return NULL
    telemetry = Telemetry(JsonlSink(target))
    atexit.register(telemetry.close)
    logger.debug("telemetry enabled via %s=%s", TELEMETRY_ENV, target)
    return telemetry


def get() -> TelemetryLike:
    """The active telemetry (resolved from ``REPRO_TELEMETRY`` once)."""
    global _active
    if _active is None:
        _active = _from_env()
    return _active


def configure(target: Union[str, Sink]) -> Telemetry:
    """Explicitly enable telemetry on a path, ``-`` (stderr), or sink.

    Like the environment's telemetry, it is closed at interpreter exit
    (a no-op once the caller has closed it), so buffered records and
    pending counters reach the sink.
    """
    global _active
    sink = target if isinstance(target, Sink) else JsonlSink(target)
    _active = Telemetry(sink)
    atexit.register(_active.close)
    return _active


def swap(telemetry: Optional[TelemetryLike]) -> Optional[TelemetryLike]:
    """Install ``telemetry`` as active, returning the previous value.

    Passing the previous value back restores it — the mechanism behind
    :func:`capture` and the parallel runner's per-worker capture.
    """
    global _active
    previous = _active
    _active = telemetry
    return previous


def disable() -> None:
    """Force-disable telemetry (ignoring the environment)."""
    swap(NULL)


def reset() -> None:
    """Forget the active instance; the next :func:`get` re-reads the env."""
    swap(None)


class capture:
    """Context manager installing a memory-sink telemetry (tests, workers).

    >>> with capture() as tel:
    ...     with tel.span("work"):
    ...         tel.counter("items", 3)
    >>> [r["kind"] for r in tel.records]
    ['span', 'counter']
    """

    def __init__(self) -> None:
        self.sink = MemorySink()
        self.telemetry = Telemetry(self.sink)
        self._previous: Optional[TelemetryLike] = None

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self.sink.records

    def __enter__(self) -> "capture":
        self._previous = swap(self.telemetry)
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.telemetry.flush()
        swap(self._previous)

    # Convenience passthroughs so the context object doubles as the
    # registry in test bodies.
    def span(self, name: str, **attrs: Any) -> Span:
        return self.telemetry.span(name, **attrs)

    def counter(self, name: str, value: Union[int, float] = 1,
                **attrs: Any) -> None:
        self.telemetry.counter(name, value, **attrs)

    def gauge(self, name: str, value: Union[int, float],
              **attrs: Any) -> None:
        self.telemetry.gauge(name, value, **attrs)

    def histogram(self, name: str, value: float, **attrs: Any) -> None:
        self.telemetry.histogram(name, value, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.telemetry.event(name, **attrs)

    def flush(self) -> None:
        self.telemetry.flush()


# -- one-time warnings ------------------------------------------------------

_warned_keys: set = set()


def warn_once(key: str, message: str) -> bool:
    """Log ``message`` once per process and count it in the telemetry.

    The shared path for "your environment variable is garbage" signals:
    a ``logging`` warning (visible without telemetry configured) plus a
    ``telemetry.warnings`` counter bucketed by ``key``.  Returns ``True``
    when the warning fired, ``False`` when it was already emitted.
    """
    if key in _warned_keys:
        return False
    _warned_keys.add(key)
    logger.warning(message)
    telemetry = get()
    if telemetry.enabled:
        telemetry.counter("telemetry.warnings", 1, key=key)
    return True


def reset_warnings() -> None:
    """Clear the one-time warning registry (test isolation)."""
    _warned_keys.clear()
