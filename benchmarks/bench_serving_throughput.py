#!/usr/bin/env python
"""Serving throughput gate: the coalescing engine vs naive serial dispatch.

Two phases over the same mixed workload (several schemes, skewed matrix
popularity, ≥ 30 % duplicate requests):

* **serial** — one fresh, store-less :class:`PipelineRunner` per
  request, the way a naive caller would dispatch: no coalescing, no
  cross-request reuse, one at a time;
* **engine** — everything submitted up front to a
  :class:`~repro.serving.engine.ServingEngine`, so duplicates coalesce,
  compatible neighbours micro-batch, and workers execute concurrently
  over one shared artifact store.

Both phases run in one process over identical request lists, so the
wall-clock ratio isolates what the serving layer buys.  The gate (CI)
requires the engine to reach ``--gate`` × the serial throughput
(default 2.0), byte-identical reports, and a third **overload** phase —
a burst into a deliberately tiny queue — to shed with structured
``rejected``/``expired`` responses and zero unhandled exceptions, with
the engine's per-tenant outcome counts summing to the burst and matching
the received responses status by status.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py [--quick]

Writes ``BENCH_serving.json`` plus its run manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path

from repro.matrices.generators import uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme
from repro.serving import ServingEngine, SpMVRequest
from repro.serving.slo import OUTCOMES, latency_percentiles
from repro.telemetry import write_manifest

DEFAULT_GATE = 2.0

#: Duplicate share of the mixed workload — a hot-set skew typical of
#: request streams, and comfortably above the 30 % acceptance floor.
#: The schedulers are GIL-bound Python, so the engine's speedup tracks
#: the deduplication ratio (1 / (1 - fraction)) more than worker count.
DUPLICATE_FRACTION = 0.7


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


def build_workload(quick: bool):
    """A deterministic, skewed request mix.

    ``distinct`` jobs (matrix × scheme) are drawn with a popularity skew
    — a few hot jobs soak up the duplicate budget, the tail appears
    once — then the request order is shuffled with a fixed seed so
    duplicates interleave instead of arriving back to back.
    """
    if quick:
        distinct, shape = 12, (96, 96, 900)
    else:
        distinct, shape = 30, (128, 128, 1_800)
    total = int(round(distinct / (1.0 - DUPLICATE_FRACTION)))
    n_rows, n_cols, nnz = shape
    matrices = [
        uniform_random(n_rows, n_cols, nnz, seed=1_000 + index)
        for index in range(distinct)
    ]
    schemes = ["crhcs", "pe_aware"]
    jobs = [
        (matrices[index], schemes[index % len(schemes)])
        for index in range(distinct)
    ]
    # Popularity skew: job i gets weight ~ 1/(i+1); the hottest jobs
    # absorb the duplicate budget.
    duplicates = total - distinct
    weights = [1.0 / (index + 1) for index in range(distinct)]
    scale = duplicates / sum(weights)
    counts = [1 + int(round(weight * scale)) for weight in weights]
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < total:
        counts[0] += 1
    order = [index for index, count in enumerate(counts)
             for _ in range(count)]
    random.Random(20260805).shuffle(order)
    requests = [
        SpMVRequest(jobs[index][0], scheme=jobs[index][1],
                    priority=index % 3)
        for index in order
    ]
    fingerprints = {r.work_fingerprint() for r in requests}
    duplicate_fraction = 1.0 - len(fingerprints) / len(requests)
    return requests, duplicate_fraction


def run_serial(requests):
    """Naive dispatch: a fresh, store-less runner per request."""
    reports, latencies_ms = [], []
    start = time.perf_counter()
    for request in requests:
        began = time.perf_counter()
        spec = get_scheme(request.scheme)
        config = request.resolve_config(spec)
        result = PipelineRunner().analyze(request.source, spec, config)
        latencies_ms.append((time.perf_counter() - began) * 1e3)
        reports.append(result.report)
    return time.perf_counter() - start, reports, latencies_ms


def run_engine(requests, workers: int):
    """Everything submitted up front, then awaited in request order."""
    # Pinned to the exact tier: this gate is about coalescing/batching
    # and requires byte-identical reports against the serial baseline
    # (the estimator fast path has its own gate, bench_tiered_fidelity).
    engine = ServingEngine(
        workers=workers, queue_capacity=len(requests), fidelity="exact"
    )
    engine.start()
    start = time.perf_counter()
    tickets = [engine.submit(request) for request in requests]
    responses = [ticket.result(timeout=600.0) for ticket in tickets]
    wall_s = time.perf_counter() - start
    engine.shutdown(drain=True)
    return wall_s, responses, dict(engine.stats), engine.latency_summary()


def run_overload(quick: bool):
    """A burst into a tiny queue: overload must degrade, never raise."""
    burst = 24 if quick else 60
    requests = [
        SpMVRequest(
            uniform_random(48, 48, 240, seed=5_000 + index),
            priority=index % 5,
            deadline_ms=0.01 if index % 7 == 0 else None,
        )
        for index in range(burst)
    ]
    unhandled = 0
    engine = ServingEngine(workers=1, queue_capacity=2, max_batch=2,
                           fidelity="exact")
    engine.start()
    tickets = []
    for request in requests:
        try:
            tickets.append(engine.submit(request))
        except Exception:  # the contract under test: submit never raises
            unhandled += 1
    statuses = {}
    for ticket in tickets:
        try:
            response = ticket.result(timeout=600.0)
            statuses[response.status] = statuses.get(response.status, 0) + 1
        except Exception:
            unhandled += 1
    engine.shutdown(drain=True)
    tenants = engine.tenant_summary()
    return {
        "burst": burst,
        "statuses": statuses,
        "unhandled_exceptions": unhandled,
        "stats": dict(engine.stats),
        # What the engine counted per outcome, summed over tenants.
        "books": {
            outcome: sum(row[outcome] for row in tenants.values())
            for outcome in OUTCOMES.values()
        },
    }


def books_failures(overload) -> list:
    """Why the engine's outcome counts disagree with the burst, if they do.

    Every submit must be counted exactly once, and per outcome the
    counts must equal the responses the bench actually received.
    """
    books = overload["books"]
    received = {
        outcome: overload["statuses"].get(status, 0)
        for status, outcome in OUTCOMES.items()
    }
    failures = []
    if sum(books.values()) != overload["burst"]:
        failures.append(
            f"engine counted {sum(books.values())} outcomes for a "
            f"{overload['burst']}-request burst"
        )
    if books != received:
        failures.append(
            f"engine outcome counts {books} differ from the received "
            f"responses {received}"
        )
    return failures


def run(quick: bool, gate: float, workers: int, output: Path) -> int:
    requests, duplicate_fraction = build_workload(quick)
    print(
        f"workload: {len(requests)} requests, "
        f"{duplicate_fraction:.0%} duplicates, {workers} workers"
    )

    # Warm imports/numpy outside both timed phases.
    PipelineRunner().analyze(
        requests[0].source, get_scheme(requests[0].scheme)
    )

    serial_s, serial_reports, serial_ms = run_serial(requests)
    engine_s, responses, stats, engine_latency = run_engine(
        requests, workers
    )

    all_ok = all(response.ok for response in responses)
    identical = all_ok and all(
        report_bytes(response.report) == report_bytes(report)
        for response, report in zip(responses, serial_reports)
    )
    speedup = serial_s / engine_s if engine_s > 0 else float("inf")
    print(
        f"serial {serial_s:7.3f}s ({len(requests) / serial_s:6.1f} req/s)"
        f"  engine {engine_s:7.3f}s "
        f"({len(requests) / engine_s:6.1f} req/s)  "
        f"speedup {speedup:.2f}x  reports "
        f"{'identical' if identical else 'MISMATCH'}"
    )
    print(
        f"engine stats: accepted {stats['accepted']}, "
        f"coalesced {stats['coalesced']}, completed {stats['completed']}"
    )

    overload = run_overload(quick)
    shed = overload["statuses"].get("rejected", 0)
    expired = overload["statuses"].get("expired", 0)
    print(
        f"overload: {overload['burst']} burst → "
        f"{overload['statuses'].get('ok', 0)} ok, {shed} rejected, "
        f"{expired} expired, "
        f"{overload['unhandled_exceptions']} unhandled exceptions; "
        f"engine books {overload['books']}"
    )

    payload = {
        "quick": quick,
        "requests": len(requests),
        "duplicate_fraction": round(duplicate_fraction, 4),
        "workers": workers,
        "serial_s": round(serial_s, 6),
        "engine_s": round(engine_s, 6),
        "serial_rps": round(len(requests) / serial_s, 3),
        "engine_rps": round(len(requests) / engine_s, 3),
        "speedup": round(speedup, 4),
        "gate": gate,
        "reports_identical": identical,
        "engine_stats": stats,
        "latency_serial": latency_percentiles(serial_ms),
        "latency_engine": engine_latency,
        "overload": overload,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    manifest = write_manifest(
        output, workers=workers,
        extra={"bench": "serving_throughput", "quick": quick},
    )
    print(f"wrote {manifest}")

    failures = []
    if duplicate_fraction < 0.3:
        failures.append(
            f"duplicate fraction {duplicate_fraction:.0%} below the "
            f"30% workload floor"
        )
    if not identical:
        failures.append("engine reports diverged from serial dispatch")
    if speedup < gate:
        failures.append(
            f"speedup {speedup:.2f}x below the {gate:.1f}x gate"
        )
    if overload["unhandled_exceptions"]:
        failures.append(
            f"{overload['unhandled_exceptions']} unhandled exceptions "
            f"under overload"
        )
    if not shed:
        failures.append("overload burst shed nothing (queue too large?)")
    failures += books_failures(overload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload (CI smoke mode)",
    )
    parser.add_argument(
        "--gate", type=float, default=DEFAULT_GATE,
        help="minimum engine/serial throughput ratio",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="serving worker threads for the engine phase",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_serving.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.gate, args.workers, args.output)


if __name__ == "__main__":
    sys.exit(main())
