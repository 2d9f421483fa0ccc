"""Telemetry-driven autoscaling: grow and shrink the simulated fleet.

The :class:`Autoscaler` closes the loop between the signals the cluster
already records — per-device queue depth and the served-latency EWMA
(the ``cluster.device.queue_depth`` / ``cluster.device.ewma_latency_ms``
gauges) — and the fleet size:

* **scale up** when the mean queue depth per alive device stays above
  the up-threshold (or any device's latency EWMA above its threshold)
  for :data:`UP_STREAK` consecutive evaluations:
  :meth:`~repro.cluster.cluster.Cluster.add_device` builds a device
  configured exactly like the rest of the fleet, and consistent hashing
  moves only the keys that belong to it.
* **scale down** when the fleet stays idle (mean depth at or below the
  down-threshold) for :data:`DOWN_STREAK` consecutive evaluations: the
  shallowest-queue device leaves through the same drain-and-redistribute
  path a failover uses (``remove_device(drain=True)``) — queued work
  finishes on the way out and its keys re-shard minimally.

Hysteresis is three-fold: distinct up/down thresholds, consecutive-
evaluation streaks, and a post-action cooldown — so one bursty sample
never flaps the fleet.  Min/max bounds are hard clamps, checked before
anything else.  The loop is **step-driven**: :meth:`Autoscaler.step`
performs one evaluation (deterministic, directly testable with injected
signals), and :meth:`start` merely runs steps on a timer thread.

Knobs (all ``REPRO_AUTOSCALE_*``, read under the numeric-knob rule of
:mod:`repro.knobs`): ``MIN``, ``MAX``, ``INTERVAL`` (seconds, at least
0.01), ``UP_DEPTH``, ``DOWN_DEPTH``, ``UP_LATENCY_MS``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..errors import ConfigError
from ..knobs import knob

AUTOSCALE_MIN_ENV = "REPRO_AUTOSCALE_MIN"
AUTOSCALE_MAX_ENV = "REPRO_AUTOSCALE_MAX"
AUTOSCALE_INTERVAL_ENV = "REPRO_AUTOSCALE_INTERVAL"
AUTOSCALE_UP_DEPTH_ENV = "REPRO_AUTOSCALE_UP_DEPTH"
AUTOSCALE_DOWN_DEPTH_ENV = "REPRO_AUTOSCALE_DOWN_DEPTH"
AUTOSCALE_UP_LATENCY_ENV = "REPRO_AUTOSCALE_UP_LATENCY_MS"

_MIN = knob(AUTOSCALE_MIN_ENV)
_MAX = knob(AUTOSCALE_MAX_ENV)
_INTERVAL = knob(AUTOSCALE_INTERVAL_ENV)
_UP_DEPTH = knob(AUTOSCALE_UP_DEPTH_ENV)
_DOWN_DEPTH = knob(AUTOSCALE_DOWN_DEPTH_ENV)
_UP_LATENCY = knob(AUTOSCALE_UP_LATENCY_ENV)

#: Consecutive overloaded evaluations before a scale-up.
UP_STREAK = 2
#: Consecutive idle evaluations before a scale-down (deliberately
#: slower than the up path — adding capacity is cheap, thrashing the
#: warm caches of a drained device is not).
DOWN_STREAK = 4
#: Evaluations skipped after any scaling action.
COOLDOWN_STEPS = 2


def autoscale_min_devices() -> int:
    """Configured fleet floor (``REPRO_AUTOSCALE_MIN``)."""
    return _MIN.read()


def autoscale_max_devices() -> int:
    """Configured fleet ceiling (``REPRO_AUTOSCALE_MAX``)."""
    return _MAX.read()


def autoscale_interval_s() -> float:
    """Configured evaluation interval (``REPRO_AUTOSCALE_INTERVAL``)."""
    return _INTERVAL.read()


def autoscale_up_depth() -> float:
    """Scale-up queue-depth threshold (``REPRO_AUTOSCALE_UP_DEPTH``)."""
    return _UP_DEPTH.read()


def autoscale_down_depth() -> float:
    """Scale-down queue-depth threshold
    (``REPRO_AUTOSCALE_DOWN_DEPTH``)."""
    return _DOWN_DEPTH.read()


def autoscale_up_latency_ms() -> float:
    """Scale-up latency-EWMA threshold
    (``REPRO_AUTOSCALE_UP_LATENCY_MS``, 0 disables)."""
    return _UP_LATENCY.read()


@dataclass(frozen=True)
class AutoscaleSignals:
    """One evaluation's view of the fleet (the gauges, sampled live)."""

    alive: int
    mean_depth: float
    max_depth: int
    max_ewma_ms: float


class Autoscaler:
    """A hysteretic control loop over a cluster's fleet size."""

    def __init__(
        self,
        cluster: Any,
        min_devices: Optional[int] = None,
        max_devices: Optional[int] = None,
        interval_s: Optional[float] = None,
        up_depth: Optional[float] = None,
        down_depth: Optional[float] = None,
        up_latency_ms: Optional[float] = None,
        up_streak: int = UP_STREAK,
        down_streak: int = DOWN_STREAK,
        cooldown_steps: int = COOLDOWN_STEPS,
    ):
        self.cluster = cluster
        self.min_devices = (
            min_devices if min_devices is not None
            else autoscale_min_devices()
        )
        self.max_devices = max(
            max_devices if max_devices is not None
            else autoscale_max_devices(),
            self.min_devices,
        )
        if interval_s is None:
            interval_s = autoscale_interval_s()
        elif not math.isfinite(interval_s):
            raise ConfigError(
                f"autoscaler interval must be a finite number of seconds, "
                f"got {interval_s!r}"
            )
        # A shorter wait would spin the control loop; an explicit value
        # below the knob's floor clamps to it, as an environment value does.
        self.interval_s = max(interval_s, _INTERVAL.low)
        self.up_depth = (
            up_depth if up_depth is not None else autoscale_up_depth()
        )
        self.down_depth = (
            down_depth if down_depth is not None else autoscale_down_depth()
        )
        self.up_latency_ms = (
            up_latency_ms if up_latency_ms is not None
            else autoscale_up_latency_ms()
        )
        self.up_streak = max(up_streak, 1)
        self.down_streak = max(down_streak, 1)
        self.cooldown_steps = max(cooldown_steps, 0)
        self._hot = 0
        self._cold = 0
        self._cooldown = 0
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.stats: Dict[str, int] = {"steps": 0, "ups": 0, "downs": 0}
        #: The action log (bounded): ``("up"|"down", device_id)``.
        self.actions: List[tuple] = []

    # -- one evaluation --------------------------------------------------

    def observe(self) -> AutoscaleSignals:
        """Sample the live fleet — the same numbers the queue-depth and
        EWMA-latency gauges record at shutdown, read directly off the
        device health ledgers so the loop needs no trace file."""
        alive = [
            device for device in list(self.cluster.devices.values())
            if device.health.alive
        ]
        depths = [device.queue_depth for device in alive]
        ewmas = [
            device.health.ewma_latency_ms for device in alive
            if device.health.ewma_latency_ms is not None
        ]
        return AutoscaleSignals(
            alive=len(alive),
            mean_depth=(sum(depths) / len(depths)) if depths else 0.0,
            max_depth=max(depths) if depths else 0,
            max_ewma_ms=max(ewmas) if ewmas else 0.0,
        )

    def step(
        self, signals: Optional[AutoscaleSignals] = None
    ) -> Optional[str]:
        """One evaluation; returns ``"up"``, ``"down"`` or ``None``.

        Deterministic given ``signals`` — the tests drive it with
        synthetic signals, the timer thread with :meth:`observe`.
        """
        if signals is None:
            signals = self.observe()
        t = telemetry.get()
        with self._lock:
            self.stats["steps"] += 1
            action = self._decide(signals)
        if action == "up":
            device_id = self.cluster.add_device()
            with self._lock:
                self.stats["ups"] += 1
                self._append_action(("up", device_id))
            if t.enabled:
                t.counter("cluster.autoscale.up", 1, device=device_id)
        elif action == "down":
            device_id = self._pick_drain()
            if device_id is None:
                action = None
            else:
                self.cluster.remove_device(
                    device_id, drain=True, reason="autoscale"
                )
                with self._lock:
                    self.stats["downs"] += 1
                    self._append_action(("down", device_id))
                if t.enabled:
                    t.counter("cluster.autoscale.down", 1,
                              device=device_id)
        if t.enabled:
            t.gauge("cluster.autoscale.devices",
                    self.cluster.alive_count())
        return action

    def _decide(self, signals: AutoscaleSignals) -> Optional[str]:
        """The pure decision rule (lock held)."""
        # Hard bounds before anything else — a fleet below its floor
        # (failovers) recovers immediately, no hysteresis.
        if signals.alive < self.min_devices:
            return "up"
        if self._cooldown > 0:
            self._cooldown -= 1
            self._hot = self._cold = 0
            return None
        hot = signals.mean_depth > self.up_depth or (
            self.up_latency_ms > 0
            and signals.max_ewma_ms > self.up_latency_ms
        )
        cold = not hot and signals.mean_depth <= self.down_depth
        self._hot = self._hot + 1 if hot else 0
        self._cold = self._cold + 1 if cold else 0
        if self._hot >= self.up_streak and signals.alive < self.max_devices:
            self._hot = self._cold = 0
            self._cooldown = self.cooldown_steps
            return "up"
        if (self._cold >= self.down_streak
                and signals.alive > self.min_devices):
            self._hot = self._cold = 0
            self._cooldown = self.cooldown_steps
            return "down"
        return None

    def _pick_drain(self) -> Optional[str]:
        """The device a scale-down retires: shallowest queue, newest id
        among ties (warm long-lived caches survive)."""
        alive = [
            device for device in list(self.cluster.devices.values())
            if device.health.alive
        ]
        if len(alive) <= self.min_devices:
            return None

        def rank(device: Any) -> tuple:
            try:
                index = int(device.device_id.lstrip("dev"))
            except ValueError:
                index = 0
            return (device.queue_depth, -index)

        return min(alive, key=rank).device_id

    def _append_action(self, action: tuple) -> None:
        self.actions.append(action)
        if len(self.actions) > 256:
            del self.actions[:128]

    # -- the timer loop --------------------------------------------------

    def start(self) -> "Autoscaler":
        """Run :meth:`step` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "Autoscaler":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.step()

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Status row: bounds, thresholds, counters, recent actions."""
        with self._lock:
            return {
                "min_devices": self.min_devices,
                "max_devices": self.max_devices,
                "interval_s": self.interval_s,
                "up_depth": self.up_depth,
                "down_depth": self.down_depth,
                "up_latency_ms": self.up_latency_ms,
                "alive": self.cluster.alive_count(),
                "steps": self.stats["steps"],
                "ups": self.stats["ups"],
                "downs": self.stats["downs"],
                "actions": list(self.actions[-16:]),
            }
