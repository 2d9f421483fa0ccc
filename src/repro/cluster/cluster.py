"""The sharded multi-device cluster: routing, replication, failover.

A :class:`Cluster` fronts N :class:`~repro.cluster.device.DeviceHandle`
devices with a router that places every request by **consistent hashing
on the pipeline's content fingerprint** — the same digest chain the
serving engine coalesces by and the artifact store caches by.  Repeated
matrices therefore land on the device that already holds their schedule,
so the fleet's aggregate cache behaves like one big cache *without any
shared state between devices*.

Chasoň's premise, one level up: CrHCS migrates non-zeros across HBM
channels so no channel stalls while another drowns; the cluster migrates
*requests* across devices so no device recomputes what another already
holds, and re-balances when a device degrades or dies.

Resilience is the router's job, not the caller's:

* **retry with backoff** — a device-fault error or a shed answer moves
  the request to the next replica after a short exponential backoff;
* **hedging** — a request outstanding past the hedge threshold is
  duplicated onto a replica; first usable answer wins (the duplicate's
  execution is harmless — work is pure and content-addressed);
* **failover** — a crashed device (fault marker, or
  ``FAILURE_THRESHOLD`` consecutive failures) is removed from the ring;
  its queued work is shed, answered ``rejected``, and re-routed by the
  same retry loop.  Keys re-shard minimally: only the dead device's
  share moves.

In every mode the response is byte-identical to single-engine execution
— replicas compute the same pure function — and the cluster **never
raises on overload or device loss**: like the serving layer below it,
degradation is a structured response.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import ReproError, ServingError
from ..knobs import knob
from ..pipeline.stages import LoadStage
from ..serving.engine import Ticket
from ..serving.slo import OutcomeLedger
from ..telemetry import tracing
from ..serving.request import (
    STATUS_ERROR,
    STATUS_OK,
    SpMVRequest,
    SpMVResponse,
)
from .device import FAILURE_THRESHOLD, DeviceHandle
from .faults import (
    FAULT_DETAIL_PREFIX,
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    parse_fault_plan,
    retryable,
)
from .ring import HashRing

DEVICES_ENV = "REPRO_CLUSTER_DEVICES"
REPLICAS_ENV = "REPRO_CLUSTER_REPLICAS"
HEDGE_ENV = "REPRO_CLUSTER_HEDGE_MS"
RETRIES_ENV = "REPRO_CLUSTER_RETRIES"

_DEVICES = knob(DEVICES_ENV)
_REPLICAS = knob(REPLICAS_ENV)
_HEDGE_MS = knob(HEDGE_ENV)
_RETRIES = knob(RETRIES_ENV)
_FAULTS = knob(FAULTS_ENV)

#: Requests for the same fingerprint seen at least this often count as
#: *hot* and may spread over their replica set instead of pinning to
#: the primary (the replication-for-hot-keys rule).
HOT_KEY_THRESHOLD = 3

#: A hot key only moves off its primary when the primary's queue is
#: deeper than a replica's by more than this slack.  Unconditional
#: least-loaded spreading would replicate every hot key's cache
#: footprint across its whole replica set even on an idle fleet,
#: shrinking the aggregate capacity that affinity exists to multiply —
#: replication should cost cache only when it buys queueing time.
_SPREAD_SLACK = 2

#: Per-attempt budget: how long an attempt (primary + hedge) may stay
#: outstanding before both devices are charged a failure and the router
#: moves on.  ``max(hedge * factor, floor)`` — the floor keeps genuinely
#: slow-but-healthy cold executions from reading as stalls; the budget
#: only needs to fire when primary *and* hedge are both wedged.
_ATTEMPT_BUDGET_FACTOR = 8
_ATTEMPT_BUDGET_FLOOR_S = 5.0


def cluster_device_count() -> int:
    """Configured device count (``REPRO_CLUSTER_DEVICES``)."""
    return _DEVICES.read()


def cluster_replica_count() -> int:
    """Configured replica-set size (``REPRO_CLUSTER_REPLICAS``)."""
    return _REPLICAS.read()


def cluster_hedge_ms() -> int:
    """Hedge threshold in milliseconds (``REPRO_CLUSTER_HEDGE_MS``)."""
    return _HEDGE_MS.read()


def cluster_max_attempts() -> int:
    """Attempt budget per request (``REPRO_CLUSTER_RETRIES``)."""
    return _RETRIES.read()


@dataclass(frozen=True)
class ClusterResult:
    """One request's response plus its routing history."""

    response: SpMVResponse
    #: Device that produced the final response ("" when none did).
    device: str = ""
    #: Submission attempts (1 = first device answered).
    attempts: int = 1
    #: A duplicate was launched onto a replica.
    hedged: bool = False
    #: The response came from a different device than first routed.
    failover: bool = False

    @property
    def ok(self) -> bool:
        return self.response.ok

    def to_json(self) -> str:
        """The response JSON line, extended with routing fields."""
        payload = json.loads(self.response.to_json())
        payload.update(
            device=self.device,
            attempts=self.attempts,
            hedged=self.hedged,
            failover=self.failover,
        )
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)


class Cluster:
    """N serving devices behind a fingerprint-affine router."""

    def __init__(
        self,
        devices: Optional[int] = None,
        replicas: Optional[int] = None,
        device_workers: int = 2,
        queue_capacity: int = 64,
        store_capacity: Optional[int] = None,
        schedule_capacity: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        hedge_ms: Optional[int] = None,
        max_attempts: Optional[int] = None,
        routing: str = "affinity",
        fidelity: Optional[str] = None,
        audit_rate: Optional[float] = None,
        calibration: Optional[Any] = None,
        tenancy: Optional[Any] = None,
    ):
        if routing not in ("affinity", "round_robin"):
            raise ServingError(
                f"unknown routing policy {routing!r} "
                f"(choose 'affinity' or 'round_robin')"
            )
        # A device engine without workers is answered only when stepped,
        # and nothing in a fleet steps it.
        if device_workers < 1:
            raise ServingError(
                f"device_workers must be >= 1, got {device_workers}"
            )
        count = devices if devices is not None else cluster_device_count()
        self.replicas = (
            replicas if replicas is not None else cluster_replica_count()
        )
        self.hedge_s = (
            hedge_ms if hedge_ms is not None else cluster_hedge_ms()
        ) * 1e-3
        self.max_attempts = (
            max_attempts if max_attempts is not None
            else cluster_max_attempts()
        )
        self.routing = routing
        if fault_plan is None:
            fault_plan = parse_fault_plan(_FAULTS.current)
        self.fault_plan = fault_plan
        device_kwargs: Dict[str, Any] = {}
        if store_capacity is not None:
            device_kwargs["store_capacity"] = store_capacity
        if schedule_capacity is not None:
            device_kwargs["schedule_capacity"] = schedule_capacity
        # Every device engine inherits the cluster's fidelity policy; the
        # audit/demotion state itself stays per-device, like its caches.
        if fidelity is not None:
            device_kwargs["fidelity"] = fidelity
        if audit_rate is not None:
            device_kwargs["audit_rate"] = audit_rate
        if calibration is not None:
            device_kwargs["calibration"] = calibration
        if tenancy is not None:
            device_kwargs["tenancy"] = tenancy
        # Kept so devices added later (autoscaling) are built exactly
        # like the initial fleet.
        self._device_workers = device_workers
        self._device_queue_capacity = queue_capacity
        self._device_kwargs = device_kwargs
        self._device_seq = max(count, 1)
        self.devices: Dict[str, DeviceHandle] = {}
        self.ring = HashRing()
        for index in range(max(count, 1)):
            self._make_device(f"dev{index}")
        self._lock = threading.Lock()
        self._state = "new"
        self._rr_next = 0
        #: fingerprint → request count (hot-key tracking).
        self._popularity: Dict[str, int] = {}
        #: fingerprint → last device that served it (affinity accounting).
        self._last_device: Dict[str, str] = {}
        #: Router counters; request outcomes live in :attr:`ledger`.
        self._routing: Dict[str, int] = {
            "routed": 0, "retries": 0, "hedges": 0, "affinity_hits": 0,
            "removed_devices": 0, "added_devices": 0,
        }
        #: One row per executed request, timed end to end (route +
        #: retries + hedges + service).
        self.ledger = OutcomeLedger()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Cluster":
        if self._state != "new":
            raise ServingError(f"cluster already {self._state}")
        self._state = "running"
        for device in self.devices.values():
            device.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        if self._state == "stopped":
            return
        self._state = "stopped"
        for device in list(self.devices.values()):
            device.shutdown(drain=drain, timeout=timeout)
        self._emit_device_telemetry()

    def __enter__(self) -> "Cluster":
        return self.start() if self._state == "new" else self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown(drain=True)

    # -- routing ---------------------------------------------------------

    def candidates_for(self, request: SpMVRequest) -> List[str]:
        """The request's replica set in placement order (tests, status)."""
        return self.ring.candidates(
            request.work_fingerprint(), self.replicas
        )

    def _alive(self) -> List[DeviceHandle]:
        return [d for d in self.devices.values() if d.health.alive]

    def _pick(self, fingerprint: str,
              tried: Sequence[str]) -> Optional[DeviceHandle]:
        """The next device for ``fingerprint``, skipping ``tried``.

        Affinity routing walks the replica set first (primary, then
        replicas; a *hot* key picks the shallowest queue among its
        healthy replicas), then falls back to any alive device — device
        loss degrades placement, never availability.  Round-robin
        routing (the ablation arm) ignores the key entirely.
        """
        if self.routing == "round_robin":
            alive = [d for d in self._alive()
                     if d.device_id not in tried]
            if not alive:
                return None
            with self._lock:
                device = alive[self._rr_next % len(alive)]
                self._rr_next += 1
            return device
        candidates = self.ring.candidates(fingerprint, self.replicas)
        with self._lock:
            hot = self._popularity.get(fingerprint, 0) >= HOT_KEY_THRESHOLD
        usable = [
            self.devices[device_id] for device_id in candidates
            if device_id not in tried
            and self.devices[device_id].health.healthy
        ]
        if usable:
            if hot and len(usable) > 1:
                primary = usable[0]
                replica = min(usable[1:], key=lambda d: d.queue_depth)
                if (primary.queue_depth
                        > replica.queue_depth + _SPREAD_SLACK):
                    return replica
            return usable[0]
        # Replica set exhausted (tried or unhealthy): any alive device.
        fallback = [
            d for d in self._alive() if d.device_id not in tried
        ]
        if not fallback:
            return None
        return min(fallback, key=lambda d: d.queue_depth)

    def lease(self, fingerprint: str,
              tried: Sequence[str] = ()) -> Optional[DeviceHandle]:
        """Route long-lived session work onto a device.

        The session subsystem calls this exactly once per session (and
        again on failover): same consistent-hash affinity as one-shot
        requests — a session over a matrix lands on the device that
        already caches that matrix's schedule — with the same healthy
        replica-set walk and least-loaded fallback.  Returns ``None``
        only when no alive device remains.
        """
        if self._state == "new":
            raise ServingError("cluster not started (call start())")
        device = self._pick(fingerprint, list(tried))
        if device is not None:
            t = telemetry.get()
            self._note_routing(fingerprint, device.device_id, t)
            if t.enabled:
                t.counter("cluster.session.lease", 1,
                          device=device.device_id)
        return device

    def report_failure(self, device_id: str,
                       crashed: bool = False) -> None:
        """Charge a device one session-observed fault.

        The session driver saw a ``device-fault:`` error (or a shed
        response from a dying engine) on its leased device; the same
        health ledger and failover policy as the one-shot router apply —
        a crash removes the device immediately, repeated faults past
        ``FAILURE_THRESHOLD`` remove it too, so surviving sessions
        re-lease among healthy devices only.
        """
        device = self.devices.get(device_id)
        if device is None:
            return
        self._record_failure(device, crashed=crashed, fault=True)

    def report_success(self, device_id: str, latency_s: float) -> None:
        """Record one answer a device served, one-shot or session work."""
        device = self.devices.get(device_id)
        if device is not None:
            device.health.record_success(latency_s)
            t = telemetry.get()
            if t.enabled:
                t.counter("cluster.completed", 1, device=device_id)

    # -- fleet lifecycle -------------------------------------------------

    def _make_device(self, device_id: str) -> DeviceHandle:
        """Build one device exactly like the initial fleet's (fault plan
        included) and place it on the ring.  Not thread-safe on its own —
        the constructor runs single-threaded and :meth:`add_device`
        holds the lock."""
        specs = self.fault_plan.for_device(device_id)
        injector = (
            FaultInjector(device_id, specs, seed=self.fault_plan.seed)
            if specs else None
        )
        device = DeviceHandle(
            device_id,
            workers=self._device_workers,
            queue_capacity=self._device_queue_capacity,
            injector=injector,
            **self._device_kwargs,
        )
        self.devices[device_id] = device
        self.ring.add(device_id)
        return device

    def add_device(self) -> str:
        """Grow the fleet by one device (the autoscaler's scale-up path).

        The new device gets a fresh id (ids are never reused — a drained
        ``dev2`` stays dead, scale-up creates ``dev5``), the same worker
        / queue / cache / fidelity / tenancy configuration as the rest
        of the fleet, and its ring points immediately — only the keys
        that hash onto it move, everyone else keeps their warm cache.
        """
        if self._state == "stopped":
            raise ServingError("cluster is stopped")
        with self._lock:
            device_id = f"dev{self._device_seq}"
            self._device_seq += 1
            device = self._make_device(device_id)
            self._routing["added_devices"] += 1
            running = self._state == "running"
        if running:
            device.start()
        t = telemetry.get()
        if t.enabled:
            t.counter("cluster.device.added", 1, device=device_id)
        return device_id

    def alive_count(self) -> int:
        """Devices currently alive (the autoscaler's fleet size)."""
        return len(self._alive())

    # -- failover --------------------------------------------------------

    def remove_device(self, device_id: str, drain: bool = True,
                      reason: str = "removed") -> bool:
        """Take a device out of service and redistribute its keys.

        The ring drops only this device's points (every other key keeps
        its shard and its warm cache).  With ``drain=True`` queued work
        finishes on the way out; with ``drain=False`` (the crash path)
        queued entries are shed immediately, answer ``rejected``, and
        the retry loop re-routes them to the surviving replicas.
        Returns whether this call removed the device: concurrent
        detection of the same dead device removes it once.
        """
        with self._lock:
            device = self.devices.get(device_id)
            if device is None or not device.health.alive:
                return False
            device.health.mark_dead()
            self.ring.remove(device_id)
            self._routing["removed_devices"] += 1
        with telemetry.get().span("cluster.failover", device=device_id,
                                  reason=reason):
            device.shutdown(drain=drain, timeout=5.0)
        return True

    def _record_failure(self, device: DeviceHandle, crashed: bool,
                        fault: bool = True) -> None:
        """Charge a device one failure; fail it over when warranted.

        A crash removes the device immediately; repeated device faults
        (injected errors, attempt timeouts — ``fault=True``) past
        :data:`FAILURE_THRESHOLD` remove it too.  Mere overload
        rejections (``fault=False``) only mark it temporarily unhealthy
        — ``_pick`` skips it until a success resets the streak, but a
        shedding device is not a dead device."""
        device.health.record_failure()
        if crashed or (fault and not device.health.healthy):
            # A removal counts as a failover only here, where a failure
            # caused it; an autoscale drain is no failover.
            removed = self.remove_device(
                device.device_id, drain=False,
                reason="crash" if crashed else "unhealthy",
            )
            t = telemetry.get()
            if removed and t.enabled:
                t.counter("cluster.failover", 1, device=device.device_id)

    # -- execution -------------------------------------------------------

    def execute(self, request: SpMVRequest,
                timeout: float = 60.0) -> ClusterResult:
        """Route, execute, and if needed retry/hedge one request.

        Always returns a :class:`ClusterResult`; overload and device
        loss come back as structured responses, never exceptions.
        """
        if self._state == "new":
            raise ServingError("cluster not started (call start())")
        t = telemetry.get()
        started = time.monotonic()
        # The cluster is the outermost tracing-aware layer: it owns the
        # ``cluster.request`` root, and its devices join the trace.
        request, trace, owns_root = request.ensure_trace()
        with tracing.scope(trace):
            result = self._route_and_execute(request, timeout, t)
        slo_class = request.effective_slo_class()
        elapsed = max(time.monotonic() - started, 0.0)
        # A request no device answered is an error, not a failover.
        self.ledger.record(
            request.tenant, slo_class, result.response.status,
            elapsed * 1e3, failover=result.failover and bool(result.device),
        )
        if t.enabled:
            t.histogram("cluster.latency_ms", elapsed * 1e3,
                        slo_class=slo_class)
            t.histogram("cluster.tenant.latency_ms", elapsed * 1e3,
                        tenant=request.tenant)
        if trace is not None:
            if not result.response.trace_id:
                result = dataclasses.replace(
                    result,
                    response=dataclasses.replace(
                        result.response, trace_id=trace.trace_id
                    ),
                )
            # The root of the request tree, emitted exactly once — by
            # the layer that created the trace.
            if owns_root and t.enabled:
                t.emit_span(
                    "cluster.request", trace, elapsed,
                    status=result.response.status,
                    device=result.device,
                    attempts=result.attempts,
                    hedged=result.hedged,
                    failover=result.failover,
                    request_id=request.request_id,
                    slo_class=slo_class,
                )
        return result

    def _route_and_execute(self, request: SpMVRequest, timeout: float,
                           t: Any) -> ClusterResult:
        try:
            # The request's one matrix hash: routing keys on it, and
            # every attempt, hedge and failover hands it to its device.
            described = LoadStage.describe(request.source)
            fingerprint = request.work_fingerprint(described)
        except ReproError as error:
            return ClusterResult(
                response=SpMVResponse(
                    request_id=request.request_id,
                    status=STATUS_ERROR,
                    detail=str(error),
                ),
                device="", attempts=0,
            )
        deadline = time.monotonic() + timeout
        tried: List[str] = []
        first_device: Optional[str] = None
        attempts = 0
        hedged = False
        last_response: Optional[SpMVResponse] = None
        last_device = ""
        while attempts < self.max_attempts:
            with t.span("cluster.route"):
                device = self._pick(fingerprint, tried)
            if device is None and tried:
                # Every device tried once: clear the exclusion list so
                # remaining attempts can revisit survivors.
                tried = []
                device = self._pick(fingerprint, tried)
            if device is None:
                break
            if attempts > 0:
                # Retry with exponential backoff before re-submitting.
                with t.span("cluster.retry", attempt=attempts):
                    if t.enabled:
                        t.counter("cluster.retry", 1,
                                  device=device.device_id)
                    self._bump("retries")
                    time.sleep(min(0.005 * (2 ** (attempts - 1)), 0.05))
            attempts += 1
            tried.append(device.device_id)
            if first_device is None:
                first_device = device.device_id
            self._note_routing(fingerprint, device.device_id, t)
            outcome = self._attempt(
                request, described, fingerprint, device, tried, deadline, t
            )
            response, responder, did_hedge = outcome
            hedged = hedged or did_hedge
            if response is not None:
                last_response, last_device = response, responder
                if not retryable(response):
                    break
            if time.monotonic() >= deadline:
                break
        if last_response is not None:
            # A final answer, or the last one when attempts ran out.
            return ClusterResult(
                response=last_response, device=last_device,
                attempts=attempts, hedged=hedged,
                failover=last_device != first_device,
            )
        return ClusterResult(
            response=SpMVResponse(
                request_id=request.request_id,
                status=STATUS_ERROR,
                detail=(
                    f"no device answered within {timeout:g}s "
                    f"after {attempts} attempt(s)"
                ),
            ),
            device="", attempts=attempts, hedged=hedged,
            failover=True,
        )

    def submit_wait(self, request: SpMVRequest,
                    timeout: float = 60.0) -> SpMVResponse:
        """The :class:`~repro.serving.client.ServingClient`-shaped path."""
        return self.execute(request, timeout=timeout).response

    def run(self, requests: Sequence[SpMVRequest], clients: int = 8,
            timeout: float = 60.0) -> List[ClusterResult]:
        """Execute a workload with ``clients`` concurrent closed-loop
        callers; results come back in request order regardless of
        completion order."""
        from concurrent.futures import ThreadPoolExecutor

        if not requests:
            return []
        with ThreadPoolExecutor(
            max_workers=max(min(clients, len(requests)), 1),
            thread_name_prefix="repro-cluster-client",
        ) as pool:
            return list(pool.map(
                lambda request: self.execute(request, timeout=timeout),
                requests,
            ))

    # -- internals -------------------------------------------------------

    def _note_routing(self, fingerprint: str, device_id: str,
                      t: Any) -> None:
        with self._lock:
            self._routing["routed"] += 1
            seen = self._popularity.get(fingerprint, 0)
            self._popularity[fingerprint] = seen + 1
            previous = self._last_device.get(fingerprint)
            self._last_device[fingerprint] = device_id
            affinity_hit = previous == device_id
            if affinity_hit:
                self._routing["affinity_hits"] += 1
            if len(self._popularity) > 65536:
                # Bound the tracking maps; affinity placement itself is
                # stateless (the ring), only the accounting resets.
                self._popularity.clear()
                self._last_device.clear()
        if t.enabled:
            t.counter("cluster.routed", 1, device=device_id)
            if seen and affinity_hit:
                t.counter("cluster.affinity_hits", 1, device=device_id)

    def _attempt(
        self,
        request: SpMVRequest,
        described: Tuple[str, str, str],
        fingerprint: str,
        device: DeviceHandle,
        tried: List[str],
        deadline: float,
        t: Any,
    ) -> Tuple[Optional[SpMVResponse], str, bool]:
        """One routed attempt: submit, hedge if slow, classify.

        The router sleeps on one event that each of the attempt's tickets
        sets when it resolves, and otherwise wakes only at the next
        deadline: the hedge time until the hedge decision is made, then
        the attempt budget.  Returns ``(response, device_id, hedged)``;
        ``response`` is ``None`` when the attempt timed out with nothing
        usable (every outstanding device is charged a failure), and
        ``hedged`` says whether a duplicate was submitted to a replica.
        """
        answered = threading.Event()
        ticket = device.submit(request, described)
        ticket.add_done_callback(answered.set)
        outstanding: List[Tuple[DeviceHandle, Ticket]] = [(device, ticket)]
        now = time.monotonic()
        budget = min(
            deadline,
            now + max(
                self.hedge_s * _ATTEMPT_BUDGET_FACTOR,
                _ATTEMPT_BUDGET_FLOOR_S,
            ),
        )
        # When to decide on a hedge; ``None`` once decided.
        hedge_at: Optional[float] = now + self.hedge_s
        hedged = False
        while True:
            # Clear before checking: a ticket that resolves after its
            # check sets the event again, so the wait below returns.
            answered.clear()
            for entry in list(outstanding):
                holder, ticket = entry
                if not ticket.done():
                    continue
                response = ticket.result(timeout=0)
                outstanding.remove(entry)
                if retryable(response):
                    is_fault = response.detail.startswith(
                        FAULT_DETAIL_PREFIX
                    )
                    self._record_failure(
                        holder,
                        crashed=is_fault and "crash" in response.detail,
                        fault=is_fault,
                    )
                    if not outstanding:
                        return response, holder.device_id, hedged
                    continue
                if response.ok:
                    self.report_success(holder.device_id, response.total_s)
                return response, holder.device_id, hedged
            now = time.monotonic()
            if not outstanding or now >= budget:
                break
            if hedge_at is not None and now >= hedge_at:
                hedge_at = None
                replica = self._pick(fingerprint, tried)
                if replica is not None:
                    with t.span("cluster.hedge",
                                device=replica.device_id):
                        if t.enabled:
                            t.counter("cluster.hedge", 1,
                                      device=replica.device_id)
                            # The duplicate shares the request's tree;
                            # the link event marks where it forked.
                            if request.trace is not None:
                                t.event(
                                    "trace.link",
                                    kind="hedge",
                                    peer_trace_id=request.trace.trace_id,
                                    device=replica.device_id,
                                )
                        self._bump("hedges")
                        tried.append(replica.device_id)
                        ticket = replica.submit(request, described)
                        ticket.add_done_callback(answered.set)
                        outstanding.append((replica, ticket))
                    hedged = True
            answered.wait(
                (budget if hedge_at is None else min(hedge_at, budget)) - now
            )
        # Nothing answered inside the budget: every device still
        # holding the request is charged one failure (stall detection).
        for holder, _ticket in outstanding:
            self._record_failure(holder, crashed=False)
        return None, "", hedged

    def _bump(self, key: str) -> None:
        with self._lock:
            self._routing[key] += 1

    # -- introspection ---------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Router counters plus the ledger's ``completed``, ``errors``
        and ``failovers``."""
        with self._lock:
            stats = dict(self._routing)
        totals = self.ledger.status_totals()
        stats["completed"] = totals.get(STATUS_OK, 0)
        stats["errors"] = totals.get(STATUS_ERROR, 0)
        stats["failovers"] = sum(
            self.ledger.status_totals(failover=True).values()
        )
        return stats

    def status(self) -> Dict[str, Any]:
        """Cluster-wide status: router stats plus one row per device."""
        return {
            "state": self._state,
            "routing": self.routing,
            "replicas": self.replicas,
            "hedge_ms": round(self.hedge_s * 1e3, 3),
            "max_attempts": self.max_attempts,
            "devices": [
                device.snapshot()
                for _id, device in sorted(self.devices.items())
            ],
            "stats": self.stats,
            "audit": self.audit_summary(),
            "slo": self.slo_summary(),
            "tenants": self.tenant_summary(),
        }

    def tenant_summary(self) -> Dict[str, Dict[str, int]]:
        """Fleet-wide per-tenant outcome counters (device engines summed).

        Latency percentiles deliberately stay per-device (percentiles
        do not merge); the counters are what the fleet view needs to
        show who absorbed the shedding.
        """
        fleet: Dict[str, Dict[str, int]] = {}
        for device in list(self.devices.values()):
            for tenant, counts in device.engine.ledger.tenant_counts().items():
                rollup = fleet.setdefault(tenant, dict.fromkeys(counts, 0))
                for key, value in counts.items():
                    rollup[key] += value
        return fleet

    def slo_summary(self) -> Dict[str, Dict[str, float]]:
        """End-to-end error-budget burn per SLO class (cluster view)."""
        return self.ledger.burn_rates()

    def audit_summary(self) -> Dict[str, Any]:
        """Fleet-wide estimator-audit rollup across device engines."""
        sampled = 0
        violations = 0
        errors = 0
        max_rel_error = 0.0
        demoted: set = set()
        for device in self.devices.values():
            summary = device.engine.audit_summary()
            sampled += summary["sampled"]
            violations += summary["violations"]
            errors += summary["errors"]
            max_rel_error = max(max_rel_error, summary["max_rel_error"])
            demoted.update(summary["demoted"])
        return {
            "sampled": sampled,
            "violations": violations,
            "errors": errors,
            "max_rel_error": max_rel_error,
            "demoted": sorted(demoted),
        }

    def _emit_device_telemetry(self) -> None:
        t = telemetry.get()
        if not t.enabled:
            return
        for device_id, device in sorted(self.devices.items()):
            snapshot = device.snapshot()
            t.gauge("cluster.device.queue_depth",
                    snapshot["queue_depth"], device=device_id)
            t.gauge("cluster.device.completed",
                    snapshot["completed"], device=device_id)
            t.gauge("cluster.device.failures",
                    snapshot["failures"], device=device_id)
            if snapshot["ewma_latency_ms"] is not None:
                t.gauge("cluster.device.ewma_latency_ms",
                        snapshot["ewma_latency_ms"], device=device_id)
        for key, value in self.stats.items():
            if value:
                t.counter(f"cluster.final.{key}", value)
        self.ledger.emit_slo_gauges(t, "cluster")
        audit = self.audit_summary()
        if audit["sampled"]:
            t.counter("cluster.audit.sampled", audit["sampled"])
            t.counter("cluster.audit.violations", audit["violations"])
            t.gauge("cluster.audit.max_rel_error", audit["max_rel_error"])
            t.gauge("cluster.audit.demoted_schemes", len(audit["demoted"]))


#: Re-export so `from repro.cluster.cluster import FAILURE_THRESHOLD`
#: and the device module agree on one constant.
__all__ = [
    "Cluster",
    "ClusterResult",
    "DEVICES_ENV",
    "FAILURE_THRESHOLD",
    "HEDGE_ENV",
    "HOT_KEY_THRESHOLD",
    "REPLICAS_ENV",
    "RETRIES_ENV",
    "cluster_device_count",
    "cluster_hedge_ms",
    "cluster_max_attempts",
    "cluster_replica_count",
]
