"""The content-addressed artifact store: the one cache of the pipeline.

Everything the reproduction caches is an artifact named by its content
fingerprint: a loaded matrix, a schedule (the per-channel HBM image the
host builds once, §3.2), a cycle count, a report, and — only inside the
store behind :meth:`PipelineRunner.reschedule` — a per-tile pass
snapshot.  The store keys them all by ``(kind, fingerprint)``, where the
kind is a stage name (``load``/``schedule``/``simulate``/``metrics``/
``estimate``) or ``pass``.  A corpus re-run with one changed stage
therefore recomputes only that stage and the ones downstream of it —

* change a scheduler version or an ``AcceleratorConfig`` field → the
  load artifact still hits, schedule/simulate/metrics rebuild;
* change only the accelerator power model → load, schedule and simulate
  all hit, only metrics rebuilds;
* change the matrix → everything for that matrix rebuilds, entries for
  other matrices are untouched.

**Budgets.**  Schedules get their own LRU when the store is given a
``schedule_capacity``; every other kind shares one LRU of ``capacity``
artifacts.  So a store never holds more than ``capacity +
schedule_capacity`` artifacts.  A budget of ``0`` stores nothing of
that kind: every lookup misses.

**Eviction.**  Each budget is a *segmented* LRU.  A new entry waits in
probation until its first hit promotes it to the protected segment,
which keeps at most ``capacity - max(1, capacity // 5)`` entries (13 of
16, 52 of 64); a hit there refreshes it.  A promotion past that bound
demotes the least recent protected entry to probation's recent end, for
a second chance.  Eviction takes probation's least recent entry, and
probation always keeps a slot.  Re-putting a resident key replaces its
artifact in its segment.  Why: serving traffic is mostly one-off
matrices nobody asks for again, around a hot set that recurs.  Under a
plain LRU the one-offs flushed the hot set, and the host paid the §3.2
preprocessing of a hot matrix again and again; now one-off entries
evict each other.

**Disk tier.**  With ``disk_dir`` set, schedules are also written as
``<fingerprint>.chsn`` files in the §3.2 wire format
(:mod:`repro.scheduling.serialize`), so a cache file is exactly the
HBM channel image a deployment would ship and a later process reads it
instead of rebuilding.  Schedules the wire format cannot carry
(``migration_span > 1``) skip the disk tier; unreadable files are
rebuilt.

**Counters.**  Per-kind ``hits``/``misses``/``evictions`` and
``disk_loads``, mirrored one-for-one by the
``pipeline.cache.{hits,misses,evictions,disk_loads}`` {stage} telemetry
counters.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..errors import FormatError, SchedulingError
from ..knobs import knob
from ..scheduling.base import TiledSchedule
from ..scheduling.serialize import deserialize_schedule, serialize_schedule

PIPELINE_CACHE_SIZE = "REPRO_PIPELINE_CACHE_SIZE"
SCHEDULE_CACHE_SIZE = "REPRO_SCHEDULE_CACHE_SIZE"
SCHEDULE_CACHE_DIR = "REPRO_SCHEDULE_CACHE_DIR"

_BUDGETS = {
    name: knob(name) for name in (PIPELINE_CACHE_SIZE, SCHEDULE_CACHE_SIZE)
}


class _SegmentedLru:
    """One budget of the store (guarded by the store's lock), evicting
    as the module docstring says.  At capacity 1 nothing is ever
    protected: a plain LRU."""

    def __init__(self, capacity: int):
        self.capacity = max(capacity, 0)
        self.protected_capacity = max(
            self.capacity - max(1, self.capacity // 5), 0
        )
        self._probation: OrderedDict = OrderedDict()
        self._protected: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def get(self, key) -> Optional[object]:
        """The artifact for ``key``, or ``None``; a hit is a use."""
        artifact = self._protected.get(key)
        if artifact is not None:
            self._protected.move_to_end(key)
            return artifact
        artifact = self._probation.pop(key, None)
        if artifact is not None:
            self._protected[key] = artifact
            while len(self._protected) > self.protected_capacity:
                demoted, value = self._protected.popitem(last=False)
                self._probation[demoted] = value
        return artifact

    def put(self, key, artifact: object) -> List[tuple]:
        """Insert or replace ``key``; returns the keys evicted."""
        segment = (
            self._protected if key in self._protected else self._probation
        )
        segment[key] = artifact
        segment.move_to_end(key)
        evicted = []
        while len(self) > self.capacity:
            evicted.append(self._probation.popitem(last=False)[0])
        return evicted

    def clear(self) -> None:
        self._probation.clear()
        self._protected.clear()


class ArtifactStore:
    """Bounded LRUs of pipeline artifacts keyed by content fingerprint."""

    def __init__(
        self,
        capacity: int = _BUDGETS[PIPELINE_CACHE_SIZE].default_value,
        schedule_capacity: Optional[int] = None,
        disk_dir: Optional[str] = None,
    ):
        self._shared = _SegmentedLru(capacity)
        #: kind → its own LRU; every other kind shares ``_shared``.
        self._own: Dict[str, _SegmentedLru] = {}
        if schedule_capacity is not None:
            self._own["schedule"] = _SegmentedLru(schedule_capacity)
        self.disk_dir = disk_dir
        # Guards the LRUs and counters so serving worker threads can
        # share one store.  Builds run outside the lock: two threads
        # racing on the same fingerprint both build the same artifact
        # (stages are pure), and the last insert wins harmlessly.
        self._lock = threading.RLock()
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.evictions: Dict[str, int] = {}
        self.disk_loads = 0
        #: Execution counts of the last pass-manager run that resumed
        #: from this store (a :class:`~repro.scheduling.passes.PassRunStats`,
        #: set by :meth:`PassManager.run`); only a reschedule store has them.
        self.last_pass_stats = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._shared) + sum(map(len, self._own.values()))

    def stage_hits(self, stage: str) -> int:
        return self.hits.get(stage, 0)

    def stage_misses(self, stage: str) -> int:
        return self.misses.get(stage, 0)

    def get(self, kind: str, digest: str) -> Optional[object]:
        """The artifact for ``(kind, digest)``, or ``None`` (a miss)."""
        key = (kind, digest)
        lru = self._own.get(kind, self._shared)
        with self._lock:
            artifact = lru.get(key)
            if artifact is None:
                table, name = self.misses, "pipeline.cache.misses"
            else:
                table, name = self.hits, "pipeline.cache.hits"
            table[kind] = table.get(kind, 0) + 1
        t = telemetry.get()
        if t.enabled:
            t.counter(name, 1, stage=kind)
        return artifact

    def put(self, kind: str, digest: str, artifact: object) -> None:
        """Insert an artifact, evicting beyond budget (see the module
        docstring for which entry goes)."""
        lru = self._own.get(kind, self._shared)
        if lru.capacity == 0:
            return
        with self._lock:
            evicted = lru.put((kind, digest), artifact)
            for old_kind, _ in evicted:
                self.evictions[old_kind] = self.evictions.get(old_kind, 0) + 1
        t = telemetry.get()
        if t.enabled:
            for old_kind, _ in evicted:
                t.counter("pipeline.cache.evictions", 1, stage=old_kind)

    def get_or_build(
        self, kind: str, digest: str, build: Callable[[], object]
    ) -> object:
        """Return the artifact for ``(kind, digest)``, building on miss."""
        artifact = self.get(kind, digest)
        if artifact is None:
            artifact = build()
            self.put(kind, digest, artifact)
        return artifact

    # -- the §3.2 disk tier ----------------------------------------------

    def _disk_path(self, digest: str) -> str:
        return os.path.join(self.disk_dir, f"{digest}.chsn")

    def read_schedule(self, digest: str, config) -> Optional[TiledSchedule]:
        """The schedule's disk image, or ``None`` if absent or unreadable."""
        if self.disk_dir is None:
            return None
        try:
            with open(self._disk_path(digest), "rb") as handle:
                schedule = deserialize_schedule(handle.read(), config)
        except (FormatError, OSError):
            return None
        with self._lock:
            self.disk_loads += 1
        t = telemetry.get()
        if t.enabled:
            t.counter("pipeline.cache.disk_loads", 1, stage="schedule")
        return schedule

    def write_schedule(self, digest: str, schedule: TiledSchedule) -> None:
        """Write the schedule's §3.2 image (atomic rename; best effort)."""
        if self.disk_dir is None:
            return
        try:
            image = serialize_schedule(schedule)
        except SchedulingError:
            return  # e.g. migration_span > 1: not wire-encodable (§3.2)
        os.makedirs(self.disk_dir, exist_ok=True)
        path = self._disk_path(digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(image)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                try:
                    os.remove(tmp)
                except OSError:
                    pass

    def clear(self) -> None:
        with self._lock:
            self._shared.clear()
            for lru in self._own.values():
                lru.clear()
            self.hits = {}
            self.misses = {}
            self.evictions = {}
            self.disk_loads = 0
            self.last_pass_stats = None


def budget_from_env(name: str) -> int:
    """A cache-budget knob's value (``REPRO_PIPELINE_CACHE_SIZE`` or
    ``REPRO_SCHEDULE_CACHE_SIZE``), read under the knob rule."""
    return _BUDGETS[name].read()


_GLOBAL: Optional[ArtifactStore] = None


def global_artifact_store() -> ArtifactStore:
    """The process-wide store, configured from the three cache knobs once.

    ``REPRO_PIPELINE_CACHE_SIZE`` bounds the shared LRU,
    ``REPRO_SCHEDULE_CACHE_SIZE`` the schedules, and
    ``REPRO_SCHEDULE_CACHE_DIR`` turns on the disk tier.
    """
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ArtifactStore(
            capacity=budget_from_env(PIPELINE_CACHE_SIZE),
            schedule_capacity=budget_from_env(SCHEDULE_CACHE_SIZE),
            disk_dir=knob(SCHEDULE_CACHE_DIR).current,
        )
    return _GLOBAL
