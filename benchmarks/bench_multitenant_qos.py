#!/usr/bin/env python
"""Multi-tenant QoS gate: flood isolation plus autoscaling under flood.

Two questions a shared fleet must answer, each with its own arms:

**Who gets capacity when there is not enough?**  Two well-behaved
victim tenants (``acme``, ``beta``) run closed-loop clients against one
engine; a third tenant (``flood``) open-loops far past its quota.  The
fair queue's deficit round-robin plus the ``flood`` tenant's quota must
keep every victim's p99 within ``--gate`` × (default 2×) its unflooded
baseline, and every shed request must land on the flooding tenant —
the victims see *zero* shedding.

**How much capacity should there be?**  The same bursty multi-tenant
workload runs twice on a one-device fleet: once fixed at the minimum,
once with the hysteretic :class:`~repro.cluster.Autoscaler` allowed to
grow it to three devices off queue-depth telemetry.  Each arm gets a
warm-up pass (where the autoscaler does its scaling) and a timed pass;
autoscale-on must beat the fixed minimum on aggregate p99, and must
have actually scaled (≥ 1 up action).  Each arm also records its timed
pass's ``work``: schedule builds and store hits by kind, summed over
its devices (as ``bench_cluster_scaling.py`` does; no gate reads it).

Cross-cutting: every ``ok`` response in every arm — victim, flood,
cluster — must be byte-identical to a serial single-tenant
``PipelineRunner`` reference, because tenancy stays out of the work
fingerprint.

Engine arms pin ``max_batch=1``: micro-batching is throughput
machinery with its own bench; this one isolates queue fairness, and a
batch would let the flood's backlog ride one fair-share turn.

Usage::

    PYTHONPATH=src python benchmarks/bench_multitenant_qos.py [--quick]

Writes ``BENCH_multitenant.json`` plus its run manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import threading
import time
from pathlib import Path

from repro.cluster import Autoscaler, Cluster
from repro.matrices.generators import uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme
from repro.serving import ServingEngine, SpMVRequest
from repro.telemetry import write_manifest
from repro.telemetry.summarize import percentile
from repro.tenancy import TenantPolicy

from bench_cluster_scaling import describe_work, store_work, work_since

DEFAULT_GATE = 2.0

VICTIMS = ("acme", "beta")
FLOOD = "flood"

#: Closed-loop client threads per victim tenant (engine arms).  Two
#: threads on a two-worker engine keep the baseline *contended* — the
#: gate compares queueing fairness, not an idle queue against a busy one.
VICTIM_THREADS = 2

#: The operator lever ``REPRO_TENANT_WEIGHTS`` exposes: the bursty
#: tenant is *down*-weighted to a quarter share (it earns a dispatch
#: credit every fourth round), because closed-loop victims deactivate
#: between requests and re-enter the round with zero credit — their own
#: weights buy little, the flood's weight is what meters its backlog.
#: The quota caps the flood at half the queue so its overflow sheds
#: within the flood alone.
POLICY = TenantPolicy(
    weights={"acme": 2.0, "beta": 2.0, FLOOD: 0.25},
    quota_fraction=0.5,
)

#: Closed-loop client threads driving the cluster arms.
CLUSTER_CLIENTS = 8


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


class Reference:
    """Lazy serial single-tenant reference, one run per fingerprint.

    Flood submissions past the quota never execute, so the executed
    set is workload-dependent — computing references lazily, only for
    responses that actually answered ``ok``, keeps the serial pass
    proportional to the work the arms did.
    """

    def __init__(self):
        self._by_fp = {}

    def check(self, pairs) -> dict:
        ok = mismatched = 0
        for request, response in pairs:
            if not response.ok:
                continue
            ok += 1
            fingerprint = request.work_fingerprint()
            if fingerprint not in self._by_fp:
                spec = get_scheme(request.scheme)
                config = request.resolve_config(spec)
                result = PipelineRunner().analyze(
                    request.source, spec, config
                )
                self._by_fp[fingerprint] = report_bytes(result.report)
            if report_bytes(response.report) != self._by_fp[fingerprint]:
                mismatched += 1
        return {"ok": ok, "mismatched": mismatched,
                "identical": mismatched == 0 and ok > 0}


def victim_matrices(iters: int):
    """One distinct matrix per victim submission: no coalescing, no
    whole-flow cache hits — every request pays the full exact pipeline,
    so latency measures queueing, not cache luck."""
    matrices = {}
    seed = 31_000
    for tenant in VICTIMS:
        for thread in range(VICTIM_THREADS):
            for index in range(iters):
                # 128² @ ~8 ms exact-tier service: far enough above
                # OS-scheduler/GIL noise (1–5 ms) that the p99 ratio
                # measures queueing policy, not timer jitter.
                matrices[(tenant, thread, index)] = uniform_random(
                    128, 128, 1_800, seed=seed
                )
                seed += 1
    return matrices


def run_engine_arm(label, matrices, iters, flood_cap, reference):
    """One engine arm: closed-loop victims, optionally an open-loop flood.

    ``flood_cap=0`` is the unflooded baseline.  Exact tier (byte
    comparison against the serial reference), ``max_batch=1`` (see
    module docstring).
    """
    engine = ServingEngine(
        workers=2, queue_capacity=32, max_batch=1,
        fidelity="exact", tenancy=POLICY,
    )
    latencies = {tenant: [] for tenant in VICTIMS}
    pairs = []
    lock = threading.Lock()
    victims_done = threading.Event()
    flood_submitted = [0]
    unhandled = [0]

    def victim_loop(tenant, thread):
        try:
            for index in range(iters):
                request = SpMVRequest(
                    matrices[(tenant, thread, index)],
                    scheme="crhcs", tenant=tenant,
                )
                start = time.perf_counter()
                response = engine.submit_wait(request, timeout=300.0)
                elapsed_ms = (time.perf_counter() - start) * 1e3
                with lock:
                    latencies[tenant].append(elapsed_ms)
                    pairs.append((request, response))
        except Exception:
            unhandled[0] += 1

    def flood_loop():
        # Open loop: keep the flood's quota slice saturated for the
        # whole victim run instead of one upfront burst that drains.
        # Modest bursts — at weight 0.25 the flood drains one entry
        # per four rounds, so a few hundred submissions per second
        # keeps its 16 slots full; submitting faster only measures
        # the submit path's lock churn, not the queue's fairness.
        tickets = []
        seed = 77_000
        try:
            while (not victims_done.is_set()
                   and flood_submitted[0] < flood_cap):
                for _ in range(4):
                    matrix = uniform_random(128, 128, 1_800, seed=seed)
                    seed += 1
                    request = SpMVRequest(
                        matrix, scheme="crhcs", tenant=FLOOD
                    )
                    tickets.append((request, engine.submit(request)))
                    flood_submitted[0] += 1
                time.sleep(0.01)
            for request, ticket in tickets:
                response = ticket.result(timeout=300.0)
                with lock:
                    pairs.append((request, response))
        except Exception:
            unhandled[0] += 1

    start = time.perf_counter()
    with engine:
        threads = [
            threading.Thread(
                target=victim_loop, args=(tenant, thread), daemon=True
            )
            for tenant in VICTIMS
            for thread in range(VICTIM_THREADS)
        ]
        flood_thread = (
            threading.Thread(target=flood_loop, daemon=True)
            if flood_cap else None
        )
        if flood_thread is not None:
            flood_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        victims_done.set()
        if flood_thread is not None:
            flood_thread.join()
        tenants = engine.tenant_summary()
    wall_s = time.perf_counter() - start

    identity = reference.check(pairs)
    victim_p99 = {
        tenant: round(percentile(values, 99.0), 3)
        for tenant, values in latencies.items()
    }
    counters = {
        tenant: {key: row[key] for key in
                 ("accepted", "completed", "shed", "expired", "errors")}
        for tenant, row in tenants.items()
    }
    flood_shed = counters.get(FLOOD, {}).get("shed", 0)
    total_shed = sum(row["shed"] for row in counters.values())
    print(
        f"{label:<22s} {wall_s:6.3f}s  "
        + "  ".join(
            f"{tenant} p99 {victim_p99[tenant]:7.1f}ms"
            for tenant in VICTIMS
        )
        + f"  shed flood {flood_shed}/{total_shed}"
        + f"  reports "
        f"{'identical' if identity['identical'] else 'MISMATCH'}"
    )
    return {
        "label": label,
        "wall_s": round(wall_s, 6),
        "victim_p99_ms": victim_p99,
        "victim_p50_ms": {
            tenant: round(percentile(values, 50.0), 3)
            for tenant, values in latencies.items()
        },
        "victim_samples": {
            tenant: len(values) for tenant, values in latencies.items()
        },
        "flood_submitted": flood_submitted[0],
        "tenants": counters,
        "identity": identity,
        "unhandled_exceptions": unhandled[0],
    }


def build_cluster_workload(quick: bool):
    """A bursty multi-tenant mix whose distinct working set thrashes one
    device's cache budget but shards comfortably across three — the same
    aggregate-capacity effect ``bench_cluster_scaling.py`` isolates, so
    adding devices genuinely lowers latency."""
    # 24 distinct jobs against a 16-schedule per-device budget: one
    # device cycles its schedule LRU through the whole set, while the
    # largest shard of a three-device ring (14 jobs) stays resident.
    # The repeats make the re-referenced set the whole distinct set (a
    # pass long enough for the 50 ms autoscaler loop to observe depth,
    # act, and cool down twice).
    distinct = 24
    repeats = 4 if quick else 6
    budgets = {"store_capacity": 8, "schedule_capacity": 16}
    matrices = [
        uniform_random(256, 256, 8_000, seed=52_000 + index)
        for index in range(distinct)
    ]
    tenants = list(VICTIMS) + [FLOOD]
    requests = [
        SpMVRequest(matrices[index], scheme="crhcs",
                    tenant=tenants[(repeat * distinct + index)
                                   % len(tenants)])
        for repeat in range(repeats)
        for index in range(distinct)
    ]
    random.Random(20260808).shuffle(requests)
    return requests, budgets


def drive_cluster(cluster, requests):
    """Closed-loop clients with client-side latency timing (the
    cluster's own summaries are per-device; the gate wants the caller's
    end-to-end view)."""
    cursor = [0]
    lock = threading.Lock()
    latencies, pairs, unhandled = [], [], [0]

    def client():
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] = index + 1
            request = requests[index]
            start = time.perf_counter()
            try:
                response = cluster.submit_wait(request, timeout=300.0)
            except Exception:
                unhandled[0] += 1
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            with lock:
                latencies.append(elapsed_ms)
                pairs.append((request, response))

    threads = [
        threading.Thread(target=client, daemon=True)
        for _ in range(CLUSTER_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, pairs, unhandled[0]


def run_cluster_arm(label, requests, budgets, autoscale, reference):
    """One cluster arm: warm-up pass (where the autoscaler scales),
    then the timed pass at steady state."""
    # Hedging off (2 s >> any wait here): a one-device fleet *cannot*
    # hedge, so leaving it on would hand the multi-device arm duplicate
    # work the fixed arm never pays — the comparison must be clean.
    cluster = Cluster(devices=1, replicas=2, fidelity="exact",
                      hedge_ms=2_000, **budgets)
    cluster.start()
    scaler = None
    snapshot = None
    unhandled = 0
    warm_pairs = []
    try:
        if autoscale:
            # Fast loop, low up-threshold: CI-scale workloads must
            # trigger scaling inside the warm-up passes.  down_depth=-1
            # keeps the fleet from draining between passes (mean depth
            # can never go below -1) — the timed pass measures the
            # scaled-up steady state.
            scaler = Autoscaler(
                cluster, min_devices=1, max_devices=3,
                interval_s=0.05, up_depth=1.0, down_depth=-1.0,
            )
            scaler.start()
        # Warm passes until the fleet stops growing: the autoscaler
        # needs live queue depth to act on, and a freshly grown fleet
        # needs one more pass to warm its resharded caches.  The fixed
        # arm runs the same settle loop (it converges after two
        # passes), so both arms enter the timed pass equally warm.
        previous_ups = -1
        for _ in range(4):
            _, pass_pairs, pass_unhandled = drive_cluster(
                cluster, requests
            )
            warm_pairs += pass_pairs
            unhandled += pass_unhandled
            ups_now = scaler.snapshot()["ups"] if scaler else 0
            if ups_now == previous_ups:
                break
            previous_ups = ups_now
        if scaler is not None:
            # The fleet is sized; stopping here keeps a late scale-up
            # from billing cold resharding to the timed pass.
            scaler.stop()
            snapshot = scaler.snapshot()
        before = store_work(cluster)
        latencies, pairs, run_unhandled = drive_cluster(cluster, requests)
        # Hedging is off, so nothing of the timed pass runs on after it.
        work = work_since(before, cluster)
        unhandled += run_unhandled
        alive = cluster.alive_count()
        stats = cluster.status()["stats"]
    finally:
        if scaler is not None:
            scaler.stop()
        cluster.shutdown(drain=True)
    identity = reference.check(warm_pairs + pairs)
    p99 = round(percentile(latencies, 99.0), 3)
    ups = snapshot["ups"] if snapshot else 0
    print(
        f"{label:<22s} p99 {p99:7.1f}ms  devices {alive}  "
        f"ups {ups}  added {stats.get('added_devices', 0)}  "
        f"reports {'identical' if identity['identical'] else 'MISMATCH'}\n"
        f"{'':<22s} timed pass: {describe_work(work)}"
    )
    return {
        "label": label,
        "autoscale": autoscale,
        "p99_ms": p99,
        "p50_ms": round(percentile(latencies, 50.0), 3),
        "requests": len(requests),
        "alive_devices": alive,
        "added_devices": stats.get("added_devices", 0),
        "autoscaler": snapshot,
        "identity": identity,
        "unhandled_exceptions": unhandled,
        "work": work,
    }


def run(quick: bool, gate: float, output: Path) -> int:
    iters = 16 if quick else 32
    flood_cap = 240 if quick else 480
    matrices = victim_matrices(iters)
    reference = Reference()
    print(
        f"victims: {len(VICTIMS)} tenants x {VICTIM_THREADS} clients x "
        f"{iters} requests each; flood cap {flood_cap}; "
        f"victim weight 2.0, flood quota "
        f"{POLICY.quota_fraction:.0%} of the queue"
    )

    baseline = run_engine_arm(
        "baseline (no flood)", matrices, iters, 0, reference
    )
    flooded = run_engine_arm(
        "flood (QoS on)", matrices, iters, flood_cap, reference
    )
    ratios = {
        tenant: (
            flooded["victim_p99_ms"][tenant]
            / baseline["victim_p99_ms"][tenant]
            if baseline["victim_p99_ms"][tenant] > 0 else float("inf")
        )
        for tenant in VICTIMS
    }
    print(
        "victim p99 flood/baseline: "
        + "  ".join(f"{tenant} {ratio:.2f}x"
                    for tenant, ratio in ratios.items())
        + f"  (gate {gate:.1f}x)"
    )

    cluster_requests, budgets = build_cluster_workload(quick)
    fixed = run_cluster_arm(
        "fixed minimum (1 dev)", cluster_requests, budgets,
        autoscale=False, reference=reference,
    )
    scaled = run_cluster_arm(
        "autoscale (1->3 dev)", cluster_requests, budgets,
        autoscale=True, reference=reference,
    )
    autoscale_win = (
        fixed["p99_ms"] / scaled["p99_ms"]
        if scaled["p99_ms"] > 0 else float("inf")
    )
    print(f"autoscale aggregate-p99 win over fixed minimum: "
          f"{autoscale_win:.2f}x")

    payload = {
        "quick": quick,
        "gate": gate,
        "policy": {
            "weights": dict(POLICY.weights),
            "quota_fraction": POLICY.quota_fraction,
        },
        "baseline": baseline,
        "flooded": flooded,
        "victim_p99_ratio": {
            tenant: round(ratio, 4) for tenant, ratio in ratios.items()
        },
        "cluster_fixed": fixed,
        "cluster_autoscale": scaled,
        "autoscale_p99_win": round(autoscale_win, 4),
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    manifest = write_manifest(
        output, extra={"bench": "multitenant_qos", "quick": quick},
    )
    print(f"wrote {manifest}")

    failures = []
    for tenant, ratio in ratios.items():
        if ratio > gate:
            failures.append(
                f"victim {tenant!r} p99 under flood is {ratio:.2f}x its "
                f"unflooded baseline (gate {gate:.1f}x)"
            )
    flood_counters = flooded["tenants"].get(FLOOD, {})
    if not flood_counters.get("shed", 0):
        failures.append("the flood arm shed nothing — no overload")
    for tenant in VICTIMS:
        row = flooded["tenants"].get(tenant, {})
        if row.get("shed", 0) or row.get("expired", 0):
            failures.append(
                f"victim {tenant!r} absorbed shedding "
                f"(shed={row.get('shed', 0)} "
                f"expired={row.get('expired', 0)}) — the flood must"
            )
    for arm in (baseline, flooded):
        if not arm["identity"]["identical"]:
            failures.append(
                f"{arm['label']}: responses diverged from the serial "
                f"single-tenant reference"
            )
        if arm["unhandled_exceptions"]:
            failures.append(
                f"{arm['label']}: {arm['unhandled_exceptions']} "
                f"unhandled exceptions"
            )
    for arm in (fixed, scaled):
        if not arm["identity"]["identical"]:
            failures.append(
                f"{arm['label']}: responses diverged from the serial "
                f"single-tenant reference"
            )
        if arm["unhandled_exceptions"]:
            failures.append(
                f"{arm['label']}: {arm['unhandled_exceptions']} "
                f"unhandled exceptions"
            )
    if scaled["p99_ms"] >= fixed["p99_ms"]:
        failures.append(
            f"autoscale-on p99 {scaled['p99_ms']:.1f}ms did not beat "
            f"the fixed minimum's {fixed['p99_ms']:.1f}ms"
        )
    if not (scaled["autoscaler"] or {}).get("ups"):
        failures.append("the autoscaler never scaled up")
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
        help="max victim p99 ratio, flooded over unflooded baseline",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_multitenant.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.gate, args.output)


if __name__ == "__main__":
    sys.exit(main())
