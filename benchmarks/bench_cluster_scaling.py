#!/usr/bin/env python
"""Cluster scaling gate: fingerprint-affine sharding vs one device.

The cluster's scaling story is **aggregate cache capacity**, not thread
parallelism (the schedulers are GIL-bound Python): every device owns a
fixed artifact/schedule cache budget — a card with a fixed memory slice
— and the router's fingerprint affinity keeps each shard's working set
cache-resident.  One device's budget holds only a few of the distinct
jobs, so it rebuilds most of the others' schedules every pass; four
affinity-routed devices each hold their quarter warm.

Four arms over one identical workload (70 % duplicates), run by
closed-loop concurrent clients; each arm is measured at **steady
state** (a warm-up pass, then the timed pass — where the per-device
budgets actually bite):

* ``devices=1`` — the single-engine baseline (same per-device budget);
* ``devices=2`` / ``devices=4`` — affinity routing (the scaling curve);
* ``devices=4 round_robin`` — the no-affinity ablation: same fleet,
  placement ignores content, every device thrashes.

Gates (CI): the 4-device affinity arm must reach ``--gate`` × the
single-device throughput (default 2.0) with byte-identical reports, and
a **recovery phase** — one device crash-injected mid-run — must finish
with zero unhandled exceptions and every response failed over
byte-identically.  The ratio rests on a premise the bench checks too:
the single device's timed pass builds more schedules than the 4-device
affinity arm's.  Each arm records its timed pass's ``work`` — schedule
builds and store hits by kind, summed over its devices — so a cache
policy change that moves the numerator shows as counts, not only as
time.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py [--quick]

Writes ``BENCH_cluster.json`` plus its run manifest.  A
``REPRO_CLUSTER_FAULTS`` plan in the environment applies to the
multi-device arms (CI smoke runs with a seeded slow-fault plan); the
single-device baseline and the recovery phase always run their own
plans so the gate denominators stay comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path

from repro.cluster import Cluster, FaultPlan, parse_fault_plan
from repro.matrices.generators import uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme
from repro.serving import SpMVRequest
from repro.telemetry import write_manifest

DEFAULT_GATE = 2.0

#: Duplicate share of the workload (same hot-set skew as the serving
#: bench, above the 30 % acceptance floor).
DUPLICATE_FRACTION = 0.7

#: Closed-loop client threads driving every arm.
CLIENTS = 8


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


def build_workload(quick: bool):
    """A deterministic skewed request mix plus per-device cache budgets.

    The budgets are the experiment: the single device's budget is far
    below the workload's distinct footprint (2 store entries + 1
    schedule per job), while a quarter of the distinct set fits one
    device comfortably.
    """
    if quick:
        distinct, shape = 16, (128, 128, 1_800)
        budgets = {"store_capacity": 10, "schedule_capacity": 5}
    else:
        distinct, shape = 32, (160, 160, 3_200)
        budgets = {"store_capacity": 20, "schedule_capacity": 10}
    total = int(round(distinct / (1.0 - DUPLICATE_FRACTION)))
    n_rows, n_cols, nnz = shape
    matrices = [
        uniform_random(n_rows, n_cols, nnz, seed=2_000 + index)
        for index in range(distinct)
    ]
    schemes = ["crhcs", "pe_aware"]
    jobs = [
        (matrices[index], schemes[index % len(schemes)])
        for index in range(distinct)
    ]
    # Duplicates spread *uniformly* across the distinct set (unlike the
    # serving bench's hot-set skew): a skewed stream's hot jobs would
    # stay resident even in one device's small cache, hiding the
    # aggregate-capacity effect this bench isolates.  Uniform repeats
    # make the re-referenced working set the whole distinct set — far
    # over one budget, a comfortable quarter per device when sharded.
    counts = [total // distinct] * distinct
    for index in range(total - sum(counts)):
        counts[index] += 1
    order = [index for index, count in enumerate(counts)
             for _ in range(count)]
    random.Random(20260805).shuffle(order)
    requests = [
        SpMVRequest(jobs[index][0], scheme=jobs[index][1])
        for index in order
    ]
    fingerprints = {r.work_fingerprint() for r in requests}
    duplicate_fraction = 1.0 - len(fingerprints) / len(requests)
    return requests, duplicate_fraction, budgets


def store_work(cluster):
    """Schedule builds and store hits by kind, summed over the devices.

    Every schedule-store miss is a build: these stores have no disk
    tier."""
    work = {"schedule_builds": 0}
    for device in cluster.devices.values():
        work["schedule_builds"] += device.store.stage_misses("schedule")
        for kind, count in device.store.hits.items():
            work[f"{kind}_hits"] = work.get(f"{kind}_hits", 0) + count
    return work


def work_since(before, cluster):
    """The :func:`store_work` the fleet did since ``before``."""
    return {key: count - before.get(key, 0)
            for key, count in sorted(store_work(cluster).items())}


def describe_work(work) -> str:
    return "  ".join(f"{key} {count}" for key, count in work.items())


def serial_reference(requests):
    """Byte-identity reference: a fresh store-less runner per distinct
    fingerprint (every duplicate shares its job's reference report)."""
    reference = {}
    for request in requests:
        fingerprint = request.work_fingerprint()
        if fingerprint in reference:
            continue
        spec = get_scheme(request.scheme)
        config = request.resolve_config(spec)
        result = PipelineRunner().analyze(request.source, spec, config)
        reference[fingerprint] = report_bytes(result.report)
    return reference


def run_arm(label, requests, budgets, devices, routing, fault_plan,
            reference, warmup=True):
    """One benchmark arm: identical workload, one cluster shape.

    With ``warmup=True`` the workload runs twice and only the second
    pass is timed — the steady-state throughput a serving fleet
    actually delivers.  Steady state is where the budgets bite: each
    affinity shard stays cache-resident across passes, while the single
    device (working set far over budget) thrashes on pass two exactly
    as it did on pass one.  The recovery phase runs single-pass
    (``warmup=False``): it measures cold failover, not throughput.
    """
    # Exact tier: this gate compares reports byte for byte against the
    # serial reference (tiered fidelity has its own gate/bench).
    cluster = Cluster(
        devices=devices,
        replicas=2,
        routing=routing,
        fault_plan=fault_plan,
        fidelity="exact",
        **budgets,
    )
    cluster.start()
    unhandled = 0
    warmup_results = []
    try:
        if warmup:
            try:
                warmup_results = cluster.run(
                    requests, clients=CLIENTS, timeout=600.0
                )
            except Exception:
                unhandled += 1
        before = store_work(cluster)
        start = time.perf_counter()
        try:
            results = cluster.run(requests, clients=CLIENTS,
                                  timeout=600.0)
        except Exception:  # the contract under test: run never raises
            unhandled += 1
            results = []
        wall_s = time.perf_counter() - start
    finally:
        cluster.shutdown(drain=True)
    # Counted after the drain, so a hedge still running when the pass
    # returned is charged to it.
    work = work_since(before, cluster)
    ok = sum(1 for r in results if r.ok)
    checked = list(zip(results, requests))
    checked += list(zip(warmup_results, requests))
    identical = bool(results) and all(
        report_bytes(r.response.report)
        == reference[request.work_fingerprint()]
        for r, request in checked
        if r.ok
    ) and ok == len(results)
    stats = cluster.status()["stats"]
    rps = len(requests) / wall_s if wall_s > 0 else float("inf")
    print(
        f"{label:<24s} {wall_s:7.3f}s ({rps:6.1f} req/s)  "
        f"ok {ok}/{len(results)}  "
        f"affinity {stats['affinity_hits']}/{stats['routed']}  "
        f"retries {stats['retries']}  failovers {stats['failovers']}  "
        f"reports {'identical' if identical else 'MISMATCH'}\n"
        f"{'':<24s} timed pass: {describe_work(work)}"
    )
    return {
        "label": label,
        "devices": devices,
        "routing": routing,
        "wall_s": round(wall_s, 6),
        "rps": round(rps, 3),
        "ok": ok,
        "requests": len(requests),
        "identical": identical,
        "unhandled_exceptions": unhandled,
        "stats": stats,
        "work": work,
    }


def run_recovery(requests, budgets, quick, reference):
    """Kill one device mid-run; every response must fail over cleanly."""
    after = 5 if quick else 12
    plan = parse_fault_plan(f"crash:1:after={after},seed=7")
    arm = run_arm(
        f"recovery (crash dev1@{after})", requests, budgets,
        devices=4, routing="affinity", fault_plan=plan,
        reference=reference, warmup=False,
    )
    return {**arm, "crash_after": after}


def run(quick: bool, gate: float, output: Path) -> int:
    requests, duplicate_fraction, budgets = build_workload(quick)
    print(
        f"workload: {len(requests)} requests, "
        f"{duplicate_fraction:.0%} duplicates, {CLIENTS} clients, "
        f"per-device budget {budgets['store_capacity']} artifacts / "
        f"{budgets['schedule_capacity']} schedules"
    )
    reference = serial_reference(requests)

    import os

    env_plan = parse_fault_plan(os.environ.get("REPRO_CLUSTER_FAULTS"))
    if env_plan:
        print(f"environment fault plan (multi-device arms):\n"
              f"{env_plan.describe()}")
    arms = [
        # The baseline always runs clean: a fault plan naming dev1+
        # cannot apply to a 1-device fleet, and the gate denominator
        # must not depend on the environment.
        run_arm("devices=1 (baseline)", requests, budgets,
                devices=1, routing="affinity", fault_plan=FaultPlan(),
                reference=reference),
        run_arm("devices=2 affinity", requests, budgets,
                devices=2, routing="affinity", fault_plan=env_plan,
                reference=reference),
        run_arm("devices=4 affinity", requests, budgets,
                devices=4, routing="affinity", fault_plan=env_plan,
                reference=reference),
        run_arm("devices=4 round_robin", requests, budgets,
                devices=4, routing="round_robin", fault_plan=env_plan,
                reference=reference),
    ]
    baseline, affinity4 = arms[0], arms[2]
    rr4 = arms[3]
    speedup = (
        baseline["wall_s"] / affinity4["wall_s"]
        if affinity4["wall_s"] > 0 else float("inf")
    )
    affinity_vs_rr = (
        rr4["wall_s"] / affinity4["wall_s"]
        if affinity4["wall_s"] > 0 else float("inf")
    )
    print(
        f"4-device affinity speedup over 1 device: {speedup:.2f}x  "
        f"(gate {gate:.1f}x); over round_robin: {affinity_vs_rr:.2f}x"
    )

    recovery = run_recovery(requests, budgets, quick, reference)

    payload = {
        "quick": quick,
        "requests": len(requests),
        "duplicate_fraction": round(duplicate_fraction, 4),
        "clients": CLIENTS,
        "budgets": budgets,
        "gate": gate,
        "arms": arms,
        "speedup_4dev": round(speedup, 4),
        "affinity_vs_round_robin": round(affinity_vs_rr, 4),
        "recovery": recovery,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    manifest = write_manifest(
        output, extra={"bench": "cluster_scaling", "quick": quick},
    )
    print(f"wrote {manifest}")

    failures = []
    if duplicate_fraction < 0.3:
        failures.append(
            f"duplicate fraction {duplicate_fraction:.0%} below the "
            f"30% workload floor"
        )
    for arm in arms:
        if not arm["identical"]:
            failures.append(
                f"{arm['label']}: responses diverged from serial "
                f"reference"
            )
        if arm["unhandled_exceptions"]:
            failures.append(
                f"{arm['label']}: {arm['unhandled_exceptions']} "
                f"unhandled exceptions"
            )
    if speedup < gate:
        failures.append(
            f"4-device speedup {speedup:.2f}x below the "
            f"{gate:.1f}x gate"
        )
    builds_1 = baseline["work"]["schedule_builds"]
    builds_4 = affinity4["work"]["schedule_builds"]
    if builds_1 <= builds_4:
        failures.append(
            f"premise: the 1-device timed pass built {builds_1} "
            f"schedules, no more than the 4-device affinity arm's "
            f"{builds_4}; the ratio no longer measures aggregate cache "
            f"capacity"
        )
    if not recovery["identical"]:
        failures.append(
            "recovery phase: failed-over responses diverged from the "
            "serial reference"
        )
    if recovery["unhandled_exceptions"]:
        failures.append(
            f"recovery phase: {recovery['unhandled_exceptions']} "
            f"unhandled exceptions"
        )
    if not recovery["stats"]["removed_devices"]:
        failures.append(
            "recovery phase: the crashed device was never removed"
        )
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
        help="minimum 4-device/1-device throughput ratio",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_cluster.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.gate, args.output)


if __name__ == "__main__":
    sys.exit(main())
