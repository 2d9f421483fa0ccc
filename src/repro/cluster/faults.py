"""Fault injection for the cluster simulator.

A fault plan assigns per-device faults that the cluster's device
handles apply *inside* their execution path, so every failure mode
exercises the same routing/retry/hedging machinery a real outage
would:

* **slow**  — adds ``ms`` of latency to a fraction ``p`` of executions
  (a degraded device: responses still arrive, just late);
* **stall** — blocks an execution for ``ms`` on a fraction ``p`` of
  requests (a hung device: the caller's hedge timer, not the device,
  decides what happens next);
* **crash** — after ``after`` executions the device dies: every
  execution from then on raises :class:`~repro.errors.DeviceFaultError`
  immediately, which the serving engine answers as a structured
  ``error`` response carrying the :data:`FAULT_DETAIL_PREFIX` marker.

Plans parse from ``REPRO_CLUSTER_FAULTS``, a comma-separated list of
``kind:device[:key=value...]`` entries plus an optional ``seed=N``::

    REPRO_CLUSTER_FAULTS="slow:1:ms=20:p=0.5,stall:2:ms=250:p=0.3,crash:0:after=5,seed=42"

``device`` is a device index (``1`` → ``dev1``) or a device id.  The
probabilistic faults draw from a per-device RNG seeded by
``(plan seed, device id)``, so a seeded plan injects the same faults on
the same requests run after run.  Malformed entries warn once and are
skipped — fault injection follows the serving layer's knob convention
of never raising on bad configuration.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import DeviceFaultError
from ..serving.request import STATUS_ERROR, STATUS_REJECTED, SpMVResponse

FAULTS_ENV = "REPRO_CLUSTER_FAULTS"

#: Marker prefix on structured error responses caused by injected
#: faults; the router treats these as retryable device failures, unlike
#: genuine work errors (unknown matrix, bad override) which would fail
#: identically on every replica.
FAULT_DETAIL_PREFIX = "device-fault:"


def retryable(response: SpMVResponse) -> bool:
    """Would another device plausibly answer this request better?

    The retry rule of the one-shot router and the session manager:
    injected device faults and shed answers (a draining or overloaded
    device) are device-local; genuine work errors (unknown matrix, bad
    override) and deadline expiry would repeat identically anywhere.
    """
    if response.status == STATUS_REJECTED:
        return True
    return (
        response.status == STATUS_ERROR
        and response.detail.startswith(FAULT_DETAIL_PREFIX)
    )


KINDS = ("slow", "stall", "crash")

_DEFAULTS = {
    "slow": {"ms": 25.0, "p": 1.0},
    "stall": {"ms": 1000.0, "p": 1.0},
    "crash": {"after": 0.0},
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault on one device."""

    kind: str
    device_id: str
    #: Added/blocked milliseconds (slow/stall).
    ms: float = 0.0
    #: Per-execution probability (slow/stall).
    p: float = 1.0
    #: Executions before the device dies (crash).
    after: int = 0


@dataclass
class FaultPlan:
    """The set of faults a cluster runs under, keyed by device id."""

    seed: int = 0
    specs: Dict[str, List[FaultSpec]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def add(self, spec: FaultSpec) -> None:
        self.specs.setdefault(spec.device_id, []).append(spec)

    def for_device(self, device_id: str) -> List[FaultSpec]:
        return self.specs.get(device_id, [])

    def describe(self) -> str:
        """One line per fault, for ``repro cluster status``."""
        if not self.specs:
            return "  (no injected faults)"
        lines = []
        for device_id in sorted(self.specs):
            for spec in self.specs[device_id]:
                if spec.kind == "crash":
                    detail = f"after={spec.after} executions"
                else:
                    detail = f"ms={spec.ms:g} p={spec.p:g}"
                lines.append(f"  {device_id}: {spec.kind} ({detail})")
        return "\n".join(lines)


def _device_label(token: str) -> str:
    token = token.strip()
    return f"dev{int(token)}" if token.isdigit() else token


def parse_fault_plan(raw: Optional[str]) -> FaultPlan:
    """Parse a ``REPRO_CLUSTER_FAULTS`` value into a :class:`FaultPlan`.

    Malformed entries are skipped with a one-time warning (the knob
    convention: bad configuration degrades, it never raises).
    """
    plan = FaultPlan()
    if not raw or not raw.strip():
        return plan
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            try:
                plan.seed = int(entry[len("seed="):])
            except ValueError:
                telemetry.warn_once(
                    "invalid_cluster_fault_seed",
                    f"{FAULTS_ENV}: {entry!r} is not an integer seed; "
                    f"keeping seed={plan.seed}",
                )
            continue
        parts = entry.split(":")
        kind = parts[0].strip()
        if kind not in KINDS or len(parts) < 2:
            telemetry.warn_once(
                f"invalid_cluster_fault_{kind or 'empty'}",
                f"{FAULTS_ENV}: cannot parse {entry!r} "
                f"(expected kind:device[:key=value...], "
                f"kinds {', '.join(KINDS)}); entry skipped",
            )
            continue
        params = dict(_DEFAULTS[kind])
        bad = False
        for item in parts[2:]:
            key, _eq, value = item.partition("=")
            key = key.strip()
            if key not in params:
                bad = True
                break
            try:
                params[key] = float(value)
            except ValueError:
                bad = True
                break
        if bad:
            telemetry.warn_once(
                f"invalid_cluster_fault_params_{kind}",
                f"{FAULTS_ENV}: bad parameters in {entry!r} "
                f"(known for {kind}: "
                f"{', '.join(sorted(_DEFAULTS[kind]))}); entry skipped",
            )
            continue
        plan.add(FaultSpec(
            kind=kind,
            device_id=_device_label(parts[1]),
            ms=float(params.get("ms", 0.0)),
            p=float(params.get("p", 1.0)),
            after=int(params.get("after", 0)),
        ))
    return plan


class FaultInjector:
    """Per-device runtime state of a fault plan.

    The device handle calls :meth:`before_execute` at the top of every
    execution; crash raises, slow/stall sleep, clean devices fall
    straight through.  Thread-safe: one injector may be shared by all
    of a device's worker threads.
    """

    def __init__(self, device_id: str, specs: List[FaultSpec],
                 seed: int = 0):
        self.device_id = device_id
        self.specs = list(specs)
        self._rng = random.Random(
            (seed << 16) ^ zlib.crc32(device_id.encode())
        )
        self._lock = threading.Lock()
        self._executions = 0
        self._crashed = False
        self.injected: Dict[str, int] = {}

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash_now(self) -> None:
        """Kill the device immediately (the programmatic kill switch)."""
        self._crashed = True

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def before_execute(self) -> None:
        """Apply this device's faults to one execution."""
        delays: List[float] = []
        with self._lock:
            self._executions += 1
            if self._crashed:
                self._count("crash")
                raise DeviceFaultError(
                    f"{FAULT_DETAIL_PREFIX} crash injected on "
                    f"{self.device_id}"
                )
            for spec in self.specs:
                if spec.kind == "crash":
                    if self._executions > spec.after:
                        self._crashed = True
                        self._count("crash")
                        raise DeviceFaultError(
                            f"{FAULT_DETAIL_PREFIX} crash injected on "
                            f"{self.device_id} after {spec.after} "
                            f"executions"
                        )
                elif self._rng.random() < spec.p:
                    self._count(spec.kind)
                    delays.append(spec.ms * 1e-3)
        # Sleep outside the lock so a stalled execution never blocks
        # the injector for the device's other workers.
        for delay in delays:
            time.sleep(delay)
