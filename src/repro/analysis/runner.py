"""Parallel corpus execution (the outer loop of the Fig. 3/11/14 sweeps).

The corpus experiments are embarrassingly parallel — every matrix is
generated from a seeded :class:`~repro.matrices.collection.CorpusSpec` and
scheduled independently — so the runner fans specs out over a
``ProcessPoolExecutor`` when ``REPRO_CORPUS_WORKERS`` asks for more than
one worker.  Determinism is preserved by construction:

* the default is **serial** (``REPRO_CORPUS_WORKERS`` unset or ``1``),
  so CI runs never depend on multiprocessing start methods;
* parallel results come back through ``Executor.map``, which yields in
  submission order — results are ordered by spec index regardless of
  which worker finishes first;
* workers receive the *spec*, not the matrix, and regenerate it from the
  seed, so a task ships a few integers instead of megabytes of COO data.

Worker callables must be module-level functions (picklable); the
experiment runners in :mod:`repro.analysis.experiments` follow this rule.

Telemetry
=========

With telemetry enabled (``REPRO_TELEMETRY``), every item runs under a
``corpus.run/corpus.spec`` span carrying its spec index.  In parallel
mode each worker captures its records into memory and returns them with
the result; the parent merges them **in spec-index order** — exactly the
order of the results — re-stamping sequence numbers and attributing each
record to a stable worker index, so a parallel trace is deterministic in
structure (record order, counters, attribution) even though wall-clock
durations vary.  With telemetry disabled the runner is byte-identical to
the uninstrumented map.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .. import telemetry
from ..knobs import knob
from ..telemetry.sinks import MemorySink

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Environment variable selecting the worker count (default: serial).
WORKERS_ENV = "REPRO_CORPUS_WORKERS"

_WORKERS = knob(WORKERS_ENV)


def corpus_worker_count() -> int:
    """The configured worker count (``REPRO_CORPUS_WORKERS``; ``1``,
    serial, when unset)."""
    return _WORKERS.read()


class _CapturedTask:
    """Picklable worker wrapper that captures per-item telemetry.

    Runs the wrapped worker under a fresh memory-sink telemetry registry
    inside the pool process and returns ``(result, records, pid)``; the
    parent merges the records deterministically (see
    :func:`run_over_specs`).
    """

    def __init__(self, worker: Callable[[Any], Any]):
        self.worker = worker

    def __call__(
        self, task: Tuple[int, Any]
    ) -> Tuple[Any, List[Dict[str, Any]], int]:
        index, item = task
        sink = MemorySink()
        local = telemetry.Telemetry(sink)
        previous = telemetry.swap(local)
        try:
            with local.span("corpus.spec", index=index):
                result = self.worker(item)
            local.flush()
        finally:
            telemetry.swap(previous)
        return result, sink.records, os.getpid()


def _run_serial_instrumented(
    worker: Callable[[_ItemT], _ResultT],
    items: List[_ItemT],
    t: "telemetry.Telemetry",
) -> List[_ResultT]:
    results: List[_ResultT] = []
    start = time.perf_counter()
    with t.span("corpus.run", items=len(items), workers=1):
        for index, item in enumerate(items):
            with t.span("corpus.spec", index=index):
                results.append(worker(item))
    elapsed = time.perf_counter() - start
    t.counter("runner.specs", len(items))
    if elapsed > 0:
        t.gauge("runner.specs_per_s", round(len(items) / elapsed, 3))
    return results


def _run_parallel_instrumented(
    worker: Callable[[_ItemT], _ResultT],
    items: List[_ItemT],
    workers: int,
    chunksize: int,
    t: "telemetry.Telemetry",
) -> List[_ResultT]:
    start = time.perf_counter()
    with t.span("corpus.run", items=len(items), workers=workers):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _CapturedTask(worker),
                    list(enumerate(items)),
                    chunksize=chunksize,
                )
            )
        # Merge per-worker records ordered by spec index (the order of
        # ``outcomes``), attributing each to a stable worker index
        # assigned by first appearance in that same order.
        results: List[_ResultT] = []
        worker_index: Dict[int, int] = {}
        for result, records, pid in outcomes:
            index = worker_index.setdefault(pid, len(worker_index))
            for record in records:
                t.emit_merged(record, worker=index)
            results.append(result)
    elapsed = time.perf_counter() - start
    t.counter("runner.specs", len(items))
    if elapsed > 0:
        t.gauge("runner.specs_per_s", round(len(items) / elapsed, 3))
    return results


def run_over_specs(
    worker: Callable[[_ItemT], _ResultT],
    items: Sequence[_ItemT],
    workers: Optional[int] = None,
) -> List[_ResultT]:
    """Map ``worker`` over ``items``, preserving input order.

    ``worker`` must be a module-level (picklable) function when more than
    one worker is requested.  With ``workers <= 1`` the map runs serially
    in-process, producing bit-identical results to the parallel path.
    """
    if workers is None:
        workers = corpus_worker_count()
    items = list(items)
    t = telemetry.get()
    if workers <= 1 or len(items) <= 1:
        if not t.enabled:
            return [worker(item) for item in items]
        return _run_serial_instrumented(worker, items, t)
    workers = min(workers, len(items))
    chunksize = max(1, len(items) // (workers * 4))
    if not t.enabled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, items, chunksize=chunksize))
    return _run_parallel_instrumented(worker, items, workers, chunksize, t)
