"""The weighted-fair admission queue: deficit round-robin per tenant.

Drop-in replacement for :class:`repro.serving.queue.AdmissionQueue`
(same ``push``/``pop``/``pop_group``/``reprioritize``/``drain``
contract, same ``(admitted, displaced, expired)`` push result, plus
``close`` to release blocked poppers) that
schedules *per tenant*:

* **ordering** — each tenant keeps its own strict-priority subqueue
  (ties FIFO, exactly the global queue's rule); *between* tenants,
  dispatch follows deficit round-robin over the policy weights: every
  visit credits a tenant its weight, one credit buys one dispatch, and
  unspent credit carries over — so over any busy interval tenants are
  served in proportion to their weights and no non-empty tenant ever
  starves (every round adds at least :data:`~repro.tenancy.tenant
  .MIN_WEIGHT`).
* **expiry** — unchanged: lazily purged on push-needing-room and on
  pop, answered ``expired``.
* **shedding** — applied per tenant.  A push beyond the *tenant quota*
  sheds within that tenant only.  A push to a globally full queue
  charges the tenant with the largest weighted backlog
  (``queued / weight``, counting the incoming entry): if that is the
  pusher itself, the original displacement rule applies (admit only by
  outranking the tenant's worst entry); otherwise the over-share
  tenant's worst entry is displaced — overload lands on whoever is
  over their fair share, never on the victims of a flood.
* **SLO-class shedding** — when the queue's ``pressure`` hook reports
  the interactive error budget burning hot, batch-class entries become
  preferred victims: within the shed tenant, any batch entry sheds
  before any interactive one.  Cold (the default), victim choice is
  purely priority/recency — identical to the pre-tenancy policy.

With a single tenant at the default policy every rule above collapses
to the original global queue — pinned byte-for-byte by the
differential tests in ``tests/test_tenancy.py``.

The queue keeps no books: the caller counts what ``push`` and ``pop``
decide (the engine's :class:`~repro.serving.slo.OutcomeLedger`), and a
tenant has state here only while it has entries queued.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..knobs import knob
from .tenant import DEFAULT_TENANT, TenantPolicy

#: Default capacity, shared with the plain admission queue.
DEFAULT_CAPACITY = knob("REPRO_SERVE_QUEUE").default_value

_Key = Tuple[int, int]


def entry_tenant(entry: Any) -> str:
    """The tenant an entry is accounted under (``default`` if unset)."""
    return getattr(entry, "tenant", None) or DEFAULT_TENANT


class FairAdmissionQueue:
    """A bounded admission queue with per-tenant weighted fairness."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        policy: Optional[TenantPolicy] = None,
        pressure: Optional[Callable[[], bool]] = None,
    ):
        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        self.policy = policy if policy is not None else TenantPolicy()
        #: Returns ``True`` while the interactive SLO burns hot; checked
        #: only on overload pushes, so it may be arbitrarily expensive.
        self._pressure = pressure
        #: tenant → subqueue sorted ascending by ``(-priority, seq)``.
        self._subqueues: Dict[str, List[Tuple[_Key, Any]]] = {}
        #: Non-empty tenants in round order (the DRR visiting order).
        self._active: List[str] = []
        self._credits: Dict[str, float] = {}
        self._rr = 0
        #: Whether the tenant at ``_rr`` already got this visit's quantum.
        self._credited = False
        self._size = 0
        #: Set by :meth:`close`: an empty closed queue answers at once.
        self._closed = False
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return self._size

    # -- keys ------------------------------------------------------------

    @staticmethod
    def _key(entry: Any) -> _Key:
        return (-entry.priority, entry.seq)

    @staticmethod
    def _shed_key(entry: Any, hot: bool) -> Tuple[int, int, int]:
        """Victim ordering: the *maximum* key sheds first.

        Cold, this is exactly the dispatch order reversed (lowest
        priority, newest submission loses).  Hot, batch-class entries
        rank above every interactive entry — the distinct per-class
        shedding policy.
        """
        rank = 1 if (hot and getattr(entry, "slo_class", None) == "batch") \
            else 0
        return (rank, -entry.priority, entry.seq)

    # -- bookkeeping (all hold the lock) ---------------------------------

    def _sub(self, tenant: str) -> List[Tuple[_Key, Any]]:
        return self._subqueues.get(tenant, [])

    def _insert(self, tenant: str, entry: Any) -> None:
        sub = self._subqueues.get(tenant)
        if sub is None:
            sub = self._subqueues[tenant] = []
        if not sub:
            # A newly busy tenant joins the end of the current round
            # with zero credit — it cannot burst past standing tenants.
            self._active.append(tenant)
        bisect.insort(sub, (self._key(entry), entry))
        self._size += 1

    def _remove_at(self, tenant: str, index: int) -> Any:
        sub = self._subqueues[tenant]
        _key, entry = sub.pop(index)
        self._size -= 1
        if not sub:
            self._deactivate(tenant)
        return entry

    def _deactivate(self, tenant: str) -> None:
        """Drop an emptied tenant from the round (credit resets)."""
        self._subqueues.pop(tenant, None)
        self._credits.pop(tenant, None)
        try:
            index = self._active.index(tenant)
        except ValueError:
            return
        self._active.pop(index)
        if index < self._rr:
            self._rr -= 1
        elif index == self._rr:
            self._credited = False
        self._rr = self._rr % len(self._active) if self._active else 0

    def _purge_expired(self, now: float) -> List[Any]:
        expired: List[Any] = []
        for tenant in list(self._subqueues):
            sub = self._subqueues[tenant]
            stale = [e for _k, e in sub if e.expired_at(now)]
            if not stale:
                continue
            kept = [(k, e) for k, e in sub if not e.expired_at(now)]
            self._size -= len(stale)
            expired.extend(stale)
            if kept:
                self._subqueues[tenant] = kept
            else:
                self._deactivate(tenant)
        return expired

    # -- shedding --------------------------------------------------------

    def _victim_tenant(self, pusher: str) -> str:
        """The tenant charged for a globally full queue.

        Largest weighted backlog (``queued / weight``) wins, counting
        the incoming entry against its own tenant; ties prefer the
        pusher (the conservative pre-tenancy rule), then the deeper
        backlog, then the lexicographically last name — all
        deterministic.
        """
        def load(tenant: str) -> Tuple[float, int, int, str]:
            depth = len(self._sub(tenant)) + (1 if tenant == pusher else 0)
            return (
                depth / self.policy.weight(tenant),
                1 if tenant == pusher else 0,
                depth,
                tenant,
            )

        tenants = list(self._subqueues)
        if pusher not in tenants:
            tenants.append(pusher)
        return max(tenants, key=load)

    def _shed_within(self, tenant: str, entry: Any,
                     hot: bool) -> Tuple[bool, Optional[Any]]:
        """Original displacement rule, scoped to one tenant.

        Returns ``(admitted, displaced)``: the incoming entry is
        admitted only by strictly outranking the tenant's worst entry,
        which is then displaced.
        """
        sub = self._sub(tenant)
        if not sub:
            return True, None
        worst = max(range(len(sub)),
                    key=lambda i: self._shed_key(sub[i][1], hot))
        if self._shed_key(entry, hot) < self._shed_key(sub[worst][1], hot):
            return True, self._remove_at(tenant, worst)
        return False, None

    def _evict_worst(self, tenant: str, hot: bool) -> Optional[Any]:
        """Unconditionally displace a tenant's worst entry."""
        sub = self._sub(tenant)
        if not sub:
            return None
        worst = max(range(len(sub)),
                    key=lambda i: self._shed_key(sub[i][1], hot))
        return self._remove_at(tenant, worst)

    # -- the queue contract ----------------------------------------------

    def push(
        self, entry: Any, now: Optional[float] = None
    ) -> Tuple[bool, Optional[Any], List[Any]]:
        """Admit ``entry`` under the per-tenant shedding policy.

        Same result shape as the global queue: ``(admitted, displaced,
        expired)``, with the caller owning the responses to displaced
        and expired entries.
        """
        if now is None:
            now = time.monotonic()
        tenant = entry_tenant(entry)
        quota = self.policy.quota(self.capacity)
        with self._cond:
            needs_room = (
                self._size >= self.capacity
                or len(self._sub(tenant)) >= quota
            )
            expired = self._purge_expired(now) if needs_room else []
            displaced = None
            over_quota = len(self._sub(tenant)) >= quota
            over_capacity = self._size >= self.capacity
            if over_quota or over_capacity:
                hot = bool(self._pressure()) if self._pressure else False
                victim_tenant = (
                    tenant if over_quota else self._victim_tenant(tenant)
                )
                if victim_tenant == tenant:
                    admitted, displaced = self._shed_within(
                        tenant, entry, hot
                    )
                    if not admitted:
                        return False, None, expired
                else:
                    displaced = self._evict_worst(victim_tenant, hot)
            self._insert(tenant, entry)
            self._cond.notify()
            return True, displaced, expired

    def reprioritize(self, entry: Any, priority: int) -> bool:
        """Raise a queued entry's priority (see the global queue)."""
        with self._cond:
            if priority <= entry.priority:
                return True
            tenant = entry_tenant(entry)
            sub = self._sub(tenant)
            old = (self._key(entry), entry)
            index = bisect.bisect_left(sub, old)
            if index >= len(sub) or sub[index][1] is not entry:
                return False
            sub.pop(index)
            entry.priority = priority
            bisect.insort(sub, (self._key(entry), entry))
            return True

    def _pop_locked(self) -> Any:
        """One deficit-round-robin dispatch (``_size > 0`` assumed)."""
        while True:
            tenant = self._active[self._rr]
            if not self._credited:
                self._credits[tenant] = (
                    self._credits.get(tenant, 0.0)
                    + self.policy.weight(tenant)
                )
                self._credited = True
            if self._credits[tenant] >= 1.0:
                self._credits[tenant] -= 1.0
                return self._remove_at(tenant, 0)
            self._rr = (self._rr + 1) % len(self._active)
            self._credited = False

    def pop(
        self, timeout: Optional[float] = None
    ) -> Tuple[Optional[Any], List[Any]]:
        """The next fair-share entry, blocking up to ``timeout``.

        A closed queue still hands out what it holds; once it is empty,
        ``pop`` returns ``(None, [])`` at once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                expired = self._purge_expired(now) if self._size else []
                if self._size:
                    return self._pop_locked(), expired
                if expired or self._closed:
                    return None, expired
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    return None, []
                if not self._cond.wait(remaining):
                    return None, []

    def pop_group(
        self, matches: Callable[[Any], bool], limit: int
    ) -> List[Any]:
        """Up to ``limit`` matching entries, in global priority order.

        The engine's micro-batcher constrains ``matches`` to the batch
        leader's tenant, so batching amortises dispatch without letting
        one tenant's backlog ride along on another's turn.
        """
        if limit <= 0:
            return []
        taken: List[Any] = []
        with self._cond:
            everything = [
                (key, tenant, entry)
                for tenant, sub in self._subqueues.items()
                for key, entry in sub
            ]
            everything.sort(key=lambda item: item[0])
            for key, tenant, entry in everything:
                if len(taken) >= limit:
                    break
                if matches(entry):
                    sub = self._subqueues[tenant]
                    index = bisect.bisect_left(sub, (key, entry))
                    if index < len(sub) and sub[index][1] is entry:
                        self._remove_at(tenant, index)
                        taken.append(entry)
        return taken

    def drain(self) -> List[Any]:
        """Remove and return every queued entry (non-graceful path)."""
        with self._cond:
            items = sorted(
                (
                    (key, entry)
                    for sub in self._subqueues.values()
                    for key, entry in sub
                ),
                key=lambda item: item[0],
            )
            self._subqueues.clear()
            self._active.clear()
            self._credits.clear()
            self._rr = 0
            self._credited = False
            self._size = 0
            self._cond.notify_all()
            return [entry for _key, entry in items]

    def close(self) -> None:
        """Let every popper return once the queue is empty (engine drain
        and shutdown); the flag is read under the lock before each wait,
        so no wake-up is lost."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------

    def tenant_depth(self, tenant: str) -> int:
        """Queued entries of one tenant."""
        with self._cond:
            return len(self._sub(tenant))

    def tenant_quota(self) -> int:
        """The per-tenant entry cap under the current policy."""
        return self.policy.quota(self.capacity)
