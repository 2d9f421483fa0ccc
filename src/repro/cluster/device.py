"""One simulated device: a serving engine plus a private store + health.

A :class:`DeviceHandle` models one accelerator card in the fleet: its
own :class:`~repro.serving.engine.ServingEngine` over one *private*
:class:`~repro.pipeline.store.ArtifactStore` — a fixed per-device cache
budget, the way each card owns a fixed slice of HBM: at most
``store_capacity`` shared artifacts plus ``schedule_capacity``
schedules, and nothing else.  Each budget is a segmented LRU, so the
hot set a device keeps hitting stays resident while the one-off
matrices around it evict each other.  Sharding multiplies the fleet's
aggregate cache, which is exactly what the router's fingerprint
affinity exploits.

The handle also owns the device's *health ledger*
(:class:`DeviceHealth`): live queue depth, an EWMA of served latency,
consecutive-failure counting, and the alive/dead flag the router skips
on.  Fault injection hooks in here too — the engine's runner is wrapped
so injected slow/stall/crash behaviour happens inside the execution
path, indistinguishable from a genuinely degraded device.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from ..pipeline.store import ArtifactStore
from ..serving.engine import ServingEngine, Ticket
from ..serving.request import SpMVRequest
from .faults import FaultInjector

#: Consecutive failures after which the router considers a device
#: unhealthy and the cluster fails it over.
FAILURE_THRESHOLD = 3

#: EWMA smoothing factor for served latency (~10-sample memory).
_EWMA_ALPHA = 0.2

#: Per-device cache budget defaults (artifacts, schedules).  Deliberately
#: finite: a device is a card with a fixed memory slice, and the cluster's
#: scaling story is that sharding multiplies the *aggregate* budget.
DEFAULT_STORE_CAPACITY = 64
DEFAULT_SCHEDULE_CAPACITY = 16


class DeviceHealth:
    """Thread-safe health ledger of one device."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.alive = True
        self.completed = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.ewma_latency_ms: Optional[float] = None

    def record_success(self, latency_s: float) -> None:
        with self._lock:
            self.completed += 1
            self.consecutive_failures = 0
            sample = latency_s * 1e3
            if self.ewma_latency_ms is None:
                self.ewma_latency_ms = sample
            else:
                self.ewma_latency_ms += _EWMA_ALPHA * (
                    sample - self.ewma_latency_ms
                )

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1

    def mark_dead(self) -> None:
        with self._lock:
            self.alive = False

    @property
    def healthy(self) -> bool:
        return self.alive and self.consecutive_failures < FAILURE_THRESHOLD


class _InjectedRunner:
    """Wraps a device's pipeline runner with its fault injector.

    Both execution paths are covered: one-shot ``analyze`` calls and
    the per-iteration ``execute`` calls a resident session's
    :class:`~repro.pipeline.runner.PreparedSpMV` makes (``prepare``
    re-points the handle's runner at this wrapper), so an injected
    crash hits a session mid-iteration exactly like a one-shot.
    Everything else delegates to the wrapped runner unchanged.
    """

    def __init__(self, runner: Any, injector: FaultInjector):
        self._runner = runner
        self._injector = injector

    def analyze(self, source: Any, spec: Any, config: Any, **kwargs: Any):
        self._injector.before_execute()
        return self._runner.analyze(source, spec, config, **kwargs)

    def execute(self, scheduled: Any, x: Any):
        self._injector.before_execute()
        return self._runner.execute(scheduled, x)

    def prepare(self, source: Any, scheme: Any, config: Any = None,
                **kwargs: Any):
        prepared = self._runner.prepare(source, scheme, config, **kwargs)
        prepared.runner = self
        return prepared

    def __getattr__(self, name: str) -> Any:
        return getattr(self._runner, name)


class DeviceHandle:
    """One device of the cluster: engine, private store, health."""

    def __init__(
        self,
        device_id: str,
        workers: int = 2,
        queue_capacity: int = 64,
        store_capacity: int = DEFAULT_STORE_CAPACITY,
        schedule_capacity: int = DEFAULT_SCHEDULE_CAPACITY,
        injector: Optional[FaultInjector] = None,
        fidelity: Optional[str] = None,
        audit_rate: Optional[float] = None,
        calibration: Optional[Any] = None,
        tenancy: Optional[Any] = None,
    ):
        self.device_id = device_id
        self.store = ArtifactStore(
            capacity=store_capacity, schedule_capacity=schedule_capacity
        )
        self.engine = ServingEngine(
            workers=workers,
            queue_capacity=queue_capacity,
            store=self.store,
            fidelity=fidelity,
            audit_rate=audit_rate,
            calibration=calibration,
            tenancy=tenancy,
        )
        self.injector = injector
        if injector is not None and injector.specs:
            self.engine.runner = _InjectedRunner(
                self.engine.runner, injector
            )
        self.health = DeviceHealth()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "DeviceHandle":
        self.engine.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        self.engine.shutdown(drain=drain, timeout=timeout)

    # -- serving ---------------------------------------------------------

    def submit(
        self,
        request: SpMVRequest,
        described: Optional[Tuple[str, str, str]] = None,
    ) -> Ticket:
        """Submit to this device's engine (never raises once started);
        ``described`` as for :meth:`ServingEngine.submit`."""
        return self.engine.submit(request, described)

    def crash(self) -> None:
        """Kill the device: injected-crash every execution from now on.
        The cluster removes and counts it when it sees the fault."""
        if self.injector is None:
            self.injector = FaultInjector(self.device_id, [])
            self.engine.runner = _InjectedRunner(
                self.engine.runner, self.injector
            )
        self.injector.crash_now()

    # -- introspection ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.engine.queue)

    def snapshot(self) -> Dict[str, Any]:
        """One status row: health, queue, cache and engine counters."""
        health = self.health
        return {
            "device": self.device_id,
            "state": "alive" if health.alive else "dead",
            "healthy": health.healthy,
            "queue_depth": self.queue_depth,
            "completed": health.completed,
            "failures": health.failures,
            "consecutive_failures": health.consecutive_failures,
            "ewma_latency_ms": (
                round(health.ewma_latency_ms, 3)
                if health.ewma_latency_ms is not None else None
            ),
            "engine_stats": dict(self.engine.stats),
            "audit": self.engine.audit_summary(),
            "injected_faults": (
                dict(self.injector.injected) if self.injector else {}
            ),
        }
