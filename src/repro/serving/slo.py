"""Latency SLOs and the outcome ledger: each request outcome counted once.

The serving layer's service-level objectives are expressed three ways:

* **SLO classes** — named policies (:data:`DEFAULT_SLOS`): an
  *interactive* request promises a tight latency threshold with a small
  error budget; a *batch* request promises a loose one with a larger
  budget.  A request picks its class explicitly
  (``SpMVRequest.slo_class``) or defaults by priority.
* **percentiles** — p50/p95/p99 of served latency, read from a
  log-bucketed :class:`~repro.telemetry.hist.Histogram`: within one
  bucket (~19 %) of the exact percentile a trace reports.
* **burn rates** — per class, the fraction of requests violating the
  promise in a rolling window, divided by the error budget.  Burn 1.0
  means the budget is being spent exactly as fast as it accrues; the
  standard multi-window alerting reading is "page when both the fast
  and slow windows burn hot".

:class:`OutcomeLedger` is where a serving engine or a cluster counts what
happened to each request: admissions per tenant, one count per terminal
response keyed by tenant, SLO class, status and route, a latency
histogram of ``ok`` responses per tenant, and good/bad counts per class.
Each burn window is a ring of :data:`WINDOW_BUCKETS` fixed time buckets
(1 s wide for the 60 s window, 60 s for the 3600 s one): the window's
old edge is quantised to one bucket, the count inside it is exact at
any request rate, and memory and every read stay O(buckets).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry.hist import Histogram, merge_all, quantile

#: The percentiles every SLO summary reports.
SLO_PERCENTILES = (50.0, 95.0, 99.0)

#: Rolling burn-rate windows (seconds): a fast window that reacts to
#: incidents and a slow window that tracks sustained budget spend.
BURN_WINDOWS_S: Tuple[float, ...] = (60.0, 3600.0)

#: Time buckets per burn window (bucket width = window / buckets).
WINDOW_BUCKETS = 60

#: Response status → the outcome every summary counts it under.  Keyed
#: by the status strings of :mod:`repro.serving.request` (which imports
#: this module), in the order the summaries list them.
OUTCOMES: Dict[str, str] = {
    "rejected": "shed",
    "expired": "expired",
    "ok": "completed",
    "error": "errors",
}


@dataclass(frozen=True)
class SLOPolicy:
    """One SLO class: a latency promise and the tolerated failure rate."""

    #: Class name (``interactive`` / ``batch``).
    name: str
    #: A request is *good* iff it succeeds within this many milliseconds.
    latency_ms: float
    #: Tolerated bad fraction (0.01 = 99% of requests must be good).
    error_budget: float


#: The built-in SLO classes.  Interactive traffic (priority > 0 or an
#: explicit deadline) promises sub-50 ms at a 1% budget; batch traffic
#: tolerates a second at 5%.
DEFAULT_SLOS: Dict[str, SLOPolicy] = {
    "interactive": SLOPolicy("interactive", latency_ms=50.0,
                             error_budget=0.01),
    "batch": SLOPolicy("batch", latency_ms=1000.0, error_budget=0.05),
}


def classify_request(priority: int, deadline_ms: Optional[float]) -> str:
    """Default SLO class for a request that did not state one.

    Deadline-carrying or elevated-priority requests are treated as
    interactive; everything else is batch.
    """
    if deadline_ms is not None or priority > 0:
        return "interactive"
    return "batch"


def _histogram_summary(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """count/mean/max plus :data:`SLO_PERCENTILES` (ms) of a histogram
    snapshot — zeroed, not missing, when it is empty."""
    count = snapshot["count"]
    summary: Dict[str, float] = {
        "count": count,
        "mean_ms": round(snapshot["sum"] / count, 6) if count else 0.0,
        "max_ms": round(snapshot["max"], 6),
    }
    for q in SLO_PERCENTILES:
        summary[f"p{q:g}_ms"] = round(quantile(snapshot, q), 6)
    return summary


def latency_percentiles(values_ms: Sequence[float]) -> Dict[str, float]:
    """The standard SLO summary over latency samples (ms), read through a
    histogram exactly as every ledger summary is."""
    hist = Histogram()
    for value in values_ms:
        hist.record(value)
    return _histogram_summary(hist.snapshot())


class _Window:
    """One class's good/bad counts over one burn window, in a ring of
    :data:`WINDOW_BUCKETS` fixed time buckets."""

    __slots__ = ("width", "buckets")

    def __init__(self, window_s: float) -> None:
        self.width = window_s / WINDOW_BUCKETS
        #: slot → ``[absolute bucket index (now // width), good, bad]``.
        self.buckets = [[-1, 0, 0] for _ in range(WINDOW_BUCKETS)]

    def add(self, now: float, bad: bool) -> None:
        index = int(now // self.width)
        bucket = self.buckets[index % WINDOW_BUCKETS]
        if bucket[0] != index:
            bucket[:] = (index, 0, 0)
        bucket[1 + bad] += 1

    def totals(self, now: float) -> Tuple[int, int]:
        """``(good, bad)`` in the current bucket and the ones before it."""
        oldest = int(now // self.width) - WINDOW_BUCKETS
        live = [bucket for bucket in self.buckets if bucket[0] > oldest]
        return sum(b[1] for b in live), sum(b[2] for b in live)


class OutcomeLedger:
    """Every request outcome of one engine or one cluster, counted once.

    Writers call :meth:`admit` per admission and :meth:`record` per
    terminal response; ``stats``, the per-tenant counts, the latency
    percentiles and the burn rates are all reads of the same counts, so
    the books balance by construction.  One lock guards every count.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant → ``[accepted, coalesced]``, tenants in first-seen order.
        self._admitted: Dict[str, List[int]] = {}
        #: ``(tenant, slo_class, status, coalesced, failover)`` → count.
        self._outcomes: Dict[Tuple[str, Optional[str], str, bool, bool],
                             int] = {}
        #: tenant → latency (ms) of its ``ok`` responses.
        self._latency: Dict[str, Histogram] = {}
        #: SLO class → lifetime ``[good, bad]``.
        self._slo = {name: [0, 0] for name in DEFAULT_SLOS}
        #: SLO class → one :class:`_Window` per :data:`BURN_WINDOWS_S`.
        self._windows = {
            name: [_Window(window_s) for window_s in BURN_WINDOWS_S]
            for name in DEFAULT_SLOS
        }

    @staticmethod
    def policy_for(slo_class: str) -> SLOPolicy:
        """The class's policy; unknown classes are held to ``batch``."""
        return DEFAULT_SLOS.get(slo_class) or DEFAULT_SLOS["batch"]

    def admit(self, tenant: str, coalesced: bool = False) -> None:
        """Count one admission: queued, or coalesced onto a leader."""
        with self._lock:
            self._admitted.setdefault(tenant, [0, 0])[coalesced] += 1

    def record(self, tenant: str, slo_class: Optional[str], status: str,
               latency_ms: float, coalesced: bool = False,
               failover: bool = False) -> bool:
        """Count one terminal response; returns whether it was *good*
        (``ok`` within its class's latency promise).

        ``coalesced`` marks a follower answered by another request's
        execution; ``failover`` a cluster answer from another device
        than the first one routed to.  ``slo_class=None`` marks an
        answer given at the door (malformed request, draining engine):
        an outcome, but no SLO's — those promise latency for admitted
        work.
        """
        ok = status == "ok"
        policy = self.policy_for(slo_class) if slo_class else None
        good = policy is not None and ok and latency_ms <= policy.latency_ms
        now = self._clock()
        key = (tenant, slo_class, status, coalesced, failover)
        with self._lock:
            self._admitted.setdefault(tenant, [0, 0])
            self._outcomes[key] = self._outcomes.get(key, 0) + 1
            if ok:
                latency = self._latency.get(tenant)
                if latency is None:
                    latency = self._latency[tenant] = Histogram()
                latency.record(latency_ms)
            if policy is not None:
                self._slo[policy.name][not good] += 1
                for window in self._windows[policy.name]:
                    window.add(now, not good)
        return good

    def status_totals(self, coalesced: Optional[bool] = None,
                      failover: Optional[bool] = None) -> Dict[str, int]:
        """Terminal responses per status seen; a flag given as
        ``True``/``False`` keeps only the rows that match it."""
        totals: Dict[str, int] = {}
        with self._lock:
            for (_, _, status, row_coalesced, row_failover), count \
                    in self._outcomes.items():
                if coalesced in (None, row_coalesced) \
                        and failover in (None, row_failover):
                    totals[status] = totals.get(status, 0) + count
        return totals

    def tenant_counts(self) -> Dict[str, Dict[str, int]]:
        """tenant → ``accepted``, ``coalesced`` and one count per
        :data:`OUTCOMES` entry (coalesced followers included)."""
        with self._lock:
            tenants = {
                tenant: {"accepted": accepted, "coalesced": coalesced,
                         **dict.fromkeys(OUTCOMES.values(), 0)}
                for tenant, (accepted, coalesced) in self._admitted.items()
            }
            for (tenant, _, status, _, _), count in self._outcomes.items():
                tenants[tenant][OUTCOMES[status]] += count
        return tenants

    def latency_summary(self, tenant: Optional[str] = None
                        ) -> Dict[str, float]:
        """Served latency (ms) of one tenant, or of all when ``None``."""
        with self._lock:
            hists = [hist for owner, hist in self._latency.items()
                     if tenant in (None, owner)]
        return _histogram_summary(merge_all(h.snapshot() for h in hists))

    def burn(self, slo_class: str, window_s: float) -> float:
        """One class's burn rate over one of :data:`BURN_WINDOWS_S`; a
        window without responses burns 0.0."""
        policy = self.policy_for(slo_class)
        window = self._windows[policy.name][BURN_WINDOWS_S.index(window_s)]
        now = self._clock()
        with self._lock:
            good, bad = window.totals(now)
        if not (good + bad) or not policy.error_budget:
            return 0.0
        return round(bad / (good + bad) / policy.error_budget, 6)

    def burn_rates(self) -> Dict[str, Dict[str, float]]:
        """``{class: {"good": n, "bad": n, "error_budget": b,
        "burn_<window>s": rate, ...}}`` — lifetime totals plus the burn
        over every window."""
        out: Dict[str, Dict[str, float]] = {}
        for name, policy in DEFAULT_SLOS.items():
            with self._lock:
                good, bad = self._slo[name]
            out[name] = {"good": float(good), "bad": float(bad),
                         "error_budget": policy.error_budget}
            for window_s in BURN_WINDOWS_S:
                out[name][f"burn_{window_s:g}s"] = self.burn(name, window_s)
        return out

    def emit_slo_gauges(self, t: Any, prefix: str) -> None:
        """Emit :meth:`burn_rates` on telemetry ``t`` as ``<prefix>.slo.*``
        gauges, skipping classes without responses."""
        for name, rates in self.burn_rates().items():
            if not (rates["good"] or rates["bad"]):
                continue
            for key in ("good", "bad", "error_budget"):
                t.gauge(f"{prefix}.slo.{key}", rates[key], slo_class=name)
            for window_s in BURN_WINDOWS_S:
                t.gauge(f"{prefix}.slo.burn_rate",
                        rates[f"burn_{window_s:g}s"],
                        slo_class=name, window_s=window_s)
