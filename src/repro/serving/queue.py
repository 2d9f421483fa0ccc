"""The bounded admission queue of the serving engine.

Ordering and shedding are both *explicit policy*, stated here once:

* **ordering** — strict priority, ties broken by submission order
  (FIFO within a priority level);
* **expiry** — entries whose deadline has already passed are purged
  lazily (on push, when the queue needs room, and on pop) and answered
  ``expired`` rather than executed;
* **shedding** — a push to a full queue first purges expired entries;
  if the queue is still full, the *lowest-priority* entry loses: the
  incoming request is rejected unless it outranks the lowest queued
  entry, in which case that entry is displaced and rejected instead.
  Either way the loser gets a structured ``Rejected`` response — the
  queue never raises on overload and never blocks the submitter.

The queue is item-agnostic: it orders anything carrying ``priority``,
``seq`` and ``expired_at(now)`` (the engine's internal entries).
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from ..tenancy.fair_queue import DEFAULT_CAPACITY


class AdmissionQueue:
    """A bounded, priority-ordered queue with deadline purging."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        #: Sorted ascending by ``(-priority, seq)`` — index 0 dispatches
        #: next, the tail is the first to shed.
        self._items: List[Tuple[Tuple[int, int], Any]] = []
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @staticmethod
    def _key(entry: Any) -> Tuple[int, int]:
        return (-entry.priority, entry.seq)

    def _purge_expired(self, now: float) -> List[Any]:
        expired = [e for _k, e in self._items if e.expired_at(now)]
        if expired:
            self._items = [
                (k, e) for k, e in self._items if not e.expired_at(now)
            ]
        return expired

    def push(
        self, entry: Any, now: Optional[float] = None
    ) -> Tuple[bool, Optional[Any], List[Any]]:
        """Admit ``entry`` under the shedding policy.

        Returns ``(admitted, displaced, expired)``: whether ``entry``
        was admitted, the lower-priority entry it displaced (if any),
        and the expired entries purged while making room.  The caller
        owns responding to displaced/expired entries.
        """
        if now is None:
            now = time.monotonic()
        with self._cond:
            expired = (
                self._purge_expired(now)
                if len(self._items) >= self.capacity
                else []
            )
            displaced = None
            if len(self._items) >= self.capacity:
                tail_key, tail_entry = self._items[-1]
                if self._key(entry) < tail_key:
                    self._items.pop()
                    displaced = tail_entry
                else:
                    return False, None, expired
            bisect.insort(self._items, (self._key(entry), entry))
            self._cond.notify()
            return True, displaced, expired

    def reprioritize(self, entry: Any, priority: int) -> bool:
        """Raise a queued entry's priority (coalescing bumps leaders).

        Returns ``False`` when the entry is no longer queued (already
        dispatched) — the caller's follower simply waits for the
        in-flight execution.
        """
        with self._cond:
            if priority <= entry.priority:
                return True
            old = (self._key(entry), entry)
            index = bisect.bisect_left(self._items, old)
            if index >= len(self._items) or self._items[index][1] is not entry:
                return False
            self._items.pop(index)
            entry.priority = priority
            bisect.insort(self._items, (self._key(entry), entry))
            return True

    def pop(
        self, timeout: Optional[float] = None
    ) -> Tuple[Optional[Any], List[Any]]:
        """The highest-priority entry, blocking up to ``timeout``.

        Returns ``(entry, expired)``; ``entry`` is ``None`` on timeout.
        Expired entries encountered at the head are purged and returned
        for the caller to answer, never dispatched.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                expired = self._purge_expired(now) if self._items else []
                if self._items:
                    _key, entry = self._items.pop(0)
                    return entry, expired
                if expired:
                    return None, expired
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    return None, []
                if not self._cond.wait(remaining):
                    return None, []

    def pop_group(
        self, matches: Callable[[Any], bool], limit: int
    ) -> List[Any]:
        """Up to ``limit`` more queued entries satisfying ``matches``.

        Used by the micro-batcher: after popping a leader, the worker
        collects compatible (same scheme/config group) entries in
        priority order to execute as one batch.
        """
        if limit <= 0:
            return []
        taken: List[Any] = []
        with self._cond:
            kept: List[Tuple[Tuple[int, int], Any]] = []
            for key, entry in self._items:
                if len(taken) < limit and matches(entry):
                    taken.append(entry)
                else:
                    kept.append((key, entry))
            self._items = kept
        return taken

    def drain(self) -> List[Any]:
        """Remove and return every queued entry (non-graceful shutdown)."""
        with self._cond:
            items = [entry for _key, entry in self._items]
            self._items = []
            self._cond.notify_all()
            return items
