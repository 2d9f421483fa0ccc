"""The device-resident session-state store.

One per :class:`~repro.serving.engine.ServingEngine` (one per simulated
device): it pins each open session's prepared schedule handle (with
its compiled replay plan) and iterate vector between iterations, so a
session ``step()`` touches neither the load stage nor the schedule
stage — GraphLily's matrix-resident model, one level up.

The store is a byte-budgeted LRU (``REPRO_SESSION_STATE_BUDGET``).
Eviction is safe by construction: resident state is a pure
deterministic function of (matrix, scheme, config, solver params,
iterations completed), so an evicted — or crashed-away — session is
re-materialized by replaying its completed iterations, byte-identical
to an uninterrupted run.  The store therefore behaves as a cache, never
as the system of record.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from .. import telemetry
from ..knobs import knob

STATE_BUDGET_ENV = "REPRO_SESSION_STATE_BUDGET"

_STATE_BUDGET = knob(STATE_BUDGET_ENV)

#: 64 MiB of iterates and replay plans ≈ thousands of small sessions.
DEFAULT_STATE_BUDGET = _STATE_BUDGET.default_value


def session_state_budget() -> int:
    """Configured resident-state byte budget
    (``REPRO_SESSION_STATE_BUDGET``)."""
    return _STATE_BUDGET.read()


class ResidentStateStore:
    """Byte-budgeted LRU of opaque per-session resident state.

    Values are opaque to the serving layer (the session subsystem stores
    its ``(prepared schedule, solver state)`` bundles here); sizes are
    declared by the caller at :meth:`put` time.  The most recently used
    entry is never evicted by its own insertion, so one oversized
    session still makes progress — the budget bounds *cross*-session
    residency.
    """

    def __init__(self, budget_bytes: Optional[int] = None):
        self.budget_bytes = (
            budget_bytes if budget_bytes is not None
            else session_state_budget()
        )
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0, "discards": 0,
        }

    def get(self, key: str) -> Optional[Any]:
        """The resident value for ``key`` (bumps its LRU recency)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.stats["hits"] += 1
            return value

    def put(self, key: str, value: Any, nbytes: int) -> None:
        """Insert or refresh ``key``; evicts LRU peers past the budget."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._sizes[key] = max(int(nbytes), 0)
            while (len(self._entries) > 1
                   and self._total_locked() > self.budget_bytes):
                victim, _value = self._entries.popitem(last=False)
                del self._sizes[victim]
                self.stats["evictions"] += 1
                evicted += 1
            total = self._total_locked()
        t = telemetry.get()
        if t.enabled:
            t.gauge("serving.resident.bytes", total)
            t.gauge("serving.resident.sessions", len(self))
            if evicted:
                t.counter("serving.resident.evictions", evicted)

    def discard(self, key: str) -> None:
        """Drop ``key`` (session close / failover re-route)."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                del self._sizes[key]
                self.stats["discards"] += 1

    def _total_locked(self) -> int:
        return sum(self._sizes.values())

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._total_locked()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        """Stats plus current occupancy, for status surfaces."""
        with self._lock:
            return dict(
                self.stats, sessions=len(self._entries),
                bytes=self._total_locked(),
            )
