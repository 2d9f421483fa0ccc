"""Cluster-layer tests: ring, faults, health, routing, failover, CLI.

The resilience behaviours are made deterministic with seeded fault
plans (the injector's RNG is keyed on ``(plan seed, device id)``) and
with placement probes: where a test needs "the request whose primary is
the faulty device", it *finds* one via :meth:`Cluster.candidates_for`
instead of hoping the hash lands there.

The two ISSUE-mandated properties: cluster responses are byte-identical
to isolated serial runs in every failure mode (``TestByteIdentity``),
and overload or device loss never raises — degradation is always a
structured response (``TestFailover``).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.cluster import (
    AutoscaleSignals,
    Autoscaler,
    Cluster,
    DeviceHealth,
    FAILURE_THRESHOLD,
    FAULT_DETAIL_PREFIX,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HashRing,
    parse_fault_plan,
)
from repro.cluster.cluster import (
    cluster_device_count,
    cluster_hedge_ms,
    cluster_max_attempts,
    cluster_replica_count,
)
from repro.errors import DeviceFaultError, ServingError
from repro.knobs import RUNTIME_KNOBS, knob
from repro.matrices.generators import power_law_rows, uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme
from repro.serving import SpMVRequest
from repro.serving.engine import Ticket
from repro.serving.request import STATUS_ERROR
from repro.serving.slo import latency_percentiles
from repro.sessions import SessionManager
from repro.telemetry.summarize import (
    summarize_cluster_devices,
    summarize_records,
)

#: Small in-memory matrices keep every cluster test sub-second.
MATRICES = [uniform_random(48, 48, 260, seed=seed) for seed in range(6)]


@pytest.fixture(autouse=True)
def _fresh_warnings():
    telemetry.reset_warnings()
    yield
    telemetry.reset_warnings()


def report_bytes(report) -> bytes:
    return json.dumps(
        dataclasses.asdict(report), sort_keys=True
    ).encode()


def serial_report(request: SpMVRequest):
    """What one isolated, serial pipeline run answers for ``request``."""
    spec = get_scheme(request.scheme)
    config = request.resolve_config(spec)
    return PipelineRunner().analyze(request.source, spec, config).report


@pytest.fixture
def ticket_checks(monkeypatch):
    """The router's ticket checks: each pass of its wait loop calls
    ``Ticket.done`` once per outstanding ticket."""
    calls = []
    real = Ticket.done

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Ticket, "done", counting)
    return calls


def request_with_primary(cluster: Cluster, device_id: str) -> SpMVRequest:
    """A request whose consistent-hash primary is ``device_id``."""
    for matrix in MATRICES:
        request = SpMVRequest(matrix)
        if cluster.candidates_for(request)[0] == device_id:
            return request
    raise AssertionError(
        f"no probe matrix hashes to {device_id}; add more MATRICES"
    )


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        rings = [HashRing(), HashRing()]
        for ring in rings:
            for index in range(4):
                ring.add(f"dev{index}")
        keys = [f"fingerprint-{i}" for i in range(50)]
        assert [rings[0].candidates(k, 2) for k in keys] == [
            rings[1].candidates(k, 2) for k in keys
        ]

    def test_candidates_are_distinct_devices(self):
        ring = HashRing()
        for index in range(3):
            ring.add(f"dev{index}")
        for key in ("a", "b", "c", "d"):
            candidates = ring.candidates(key, 3)
            assert len(candidates) == len(set(candidates)) == 3

    def test_count_caps_at_ring_size_and_empty_ring_degrades(self):
        ring = HashRing()
        assert ring.candidates("anything", 2) == []
        ring.add("dev0")
        assert ring.candidates("anything", 5) == ["dev0"]

    def test_removal_disrupts_only_the_removed_devices_keys(self):
        ring = HashRing()
        for index in range(4):
            ring.add(f"dev{index}")
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.candidates(k, 1)[0] for k in keys}
        ring.remove("dev2")
        for key in keys:
            after = ring.candidates(key, 1)[0]
            if before[key] != "dev2":
                assert after == before[key]
            else:
                assert after != "dev2"

    def test_virtual_nodes_balance_the_partition(self):
        ring = HashRing()
        for index in range(4):
            ring.add(f"dev{index}")
        counts = {}
        for i in range(400):
            primary = ring.candidates(f"key-{i}", 1)[0]
            counts[primary] = counts.get(primary, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) >= 400 // 4 // 3  # no starved shard

    def test_duplicate_add_is_idempotent(self):
        ring = HashRing()
        ring.add("dev0")
        ring.add("dev0")
        assert len(ring) == 1


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = parse_fault_plan(
            "slow:1:ms=20:p=0.5,stall:dev2:ms=250,crash:0:after=5,seed=42"
        )
        assert plan.seed == 42
        slow = plan.for_device("dev1")[0]
        assert (slow.kind, slow.ms, slow.p) == ("slow", 20.0, 0.5)
        stall = plan.for_device("dev2")[0]
        assert (stall.kind, stall.ms, stall.p) == ("stall", 250.0, 1.0)
        crash = plan.for_device("dev0")[0]
        assert (crash.kind, crash.after) == ("crash", 5)
        assert "dev1: slow" in plan.describe()

    def test_empty_and_unset_parse_to_no_faults(self):
        assert not parse_fault_plan(None)
        assert not parse_fault_plan("  ")
        assert parse_fault_plan("").describe() == "  (no injected faults)"

    @pytest.mark.parametrize("raw", [
        "explode:1",            # unknown kind
        "slow",                 # missing device
        "slow:1:warp=9",        # unknown parameter
        "slow:1:ms=fast",       # unparseable value
        "seed=banana",          # bad seed
    ])
    def test_malformed_entries_warn_and_skip(self, raw, caplog):
        with caplog.at_level(logging.WARNING):
            plan = parse_fault_plan(raw)
        assert not plan.specs
        assert "REPRO_CLUSTER_FAULTS" in caplog.text

    def test_injector_is_deterministic_per_seed(self):
        specs = [FaultSpec("slow", "dev1", ms=0.01, p=0.5)]
        runs = []
        for _ in range(2):
            injector = FaultInjector("dev1", specs, seed=3)
            for _call in range(40):
                injector.before_execute()
            runs.append(dict(injector.injected))
        assert runs[0] == runs[1]
        assert 0 < runs[0]["slow"] < 40  # p=0.5 actually probabilistic

    def test_crash_after_threshold_raises_with_marker(self):
        injector = FaultInjector(
            "dev0", [FaultSpec("crash", "dev0", after=2)]
        )
        injector.before_execute()
        injector.before_execute()
        with pytest.raises(DeviceFaultError) as excinfo:
            injector.before_execute()
        assert str(excinfo.value).startswith(FAULT_DETAIL_PREFIX)
        assert injector.crashed
        # Once crashed, every later execution dies immediately.
        with pytest.raises(DeviceFaultError):
            injector.before_execute()


class TestDeviceHealth:
    def test_ewma_tracks_latency(self):
        health = DeviceHealth()
        health.record_success(0.010)
        assert health.ewma_latency_ms == pytest.approx(10.0)
        health.record_success(0.020)
        assert health.ewma_latency_ms == pytest.approx(12.0)  # α = 0.2

    def test_success_resets_the_consecutive_streak(self):
        health = DeviceHealth()
        for _ in range(FAILURE_THRESHOLD - 1):
            health.record_failure()
        assert health.healthy
        health.record_failure()
        assert not health.healthy
        health.record_success(0.001)
        assert health.healthy
        assert health.failures == FAILURE_THRESHOLD  # total is kept

    def test_dead_is_not_healthy(self):
        health = DeviceHealth()
        health.mark_dead()
        assert not health.alive and not health.healthy


class TestRouting:
    def test_affinity_pins_a_fingerprint_to_its_primary(self):
        with Cluster(devices=4, fault_plan=FaultPlan()) as cluster:
            request = SpMVRequest(MATRICES[0])
            primary = cluster.candidates_for(request)[0]
            devices = {
                cluster.execute(SpMVRequest(MATRICES[0])).device
                for _ in range(4)
            }
        assert devices == {primary}

    def test_replica_set_size_follows_the_knob(self):
        cluster = Cluster(devices=4, replicas=3, fault_plan=FaultPlan())
        candidates = cluster.candidates_for(SpMVRequest(MATRICES[0]))
        assert len(candidates) == len(set(candidates)) == 3

    def test_round_robin_spreads_identical_work(self):
        with Cluster(devices=4, routing="round_robin",
                     fault_plan=FaultPlan()) as cluster:
            devices = {
                cluster.execute(SpMVRequest(MATRICES[0])).device
                for _ in range(8)
            }
        assert len(devices) > 1

    def test_unknown_routing_policy_raises(self):
        with pytest.raises(ServingError, match="unknown routing"):
            Cluster(devices=1, routing="teleport")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_device_workers_below_one_raise(self, workers):
        """Nothing in a fleet steps a worker-less device engine, so its
        requests would wait out their timeout; autoscaled devices are
        built from the same value."""
        with pytest.raises(ServingError, match="device_workers"):
            Cluster(devices=2, device_workers=workers,
                    fault_plan=FaultPlan())

    def test_execute_before_start_raises(self):
        cluster = Cluster(devices=1, fault_plan=FaultPlan())
        with pytest.raises(ServingError, match="not started"):
            cluster.execute(SpMVRequest(MATRICES[0]))

    def test_double_start_raises(self):
        cluster = Cluster(devices=1, fault_plan=FaultPlan())
        cluster.start()
        try:
            with pytest.raises(ServingError, match="already running"):
                cluster.start()
        finally:
            cluster.shutdown()


class TestByteIdentity:
    def test_cluster_matches_serial_on_duplicate_heavy_workload(self):
        """ISSUE property: routing, replication, and coalescing change
        *where* work runs, never *what* comes back."""
        requests = [
            SpMVRequest(MATRICES[index % 4], scheme=scheme)
            for index, scheme in enumerate(
                ["crhcs", "pe_aware", "crhcs", "crhcs",
                 "pe_aware", "crhcs", "crhcs", "pe_aware",
                 "crhcs", "crhcs"]
            )
        ]
        expected = [report_bytes(serial_report(r)) for r in requests]
        with Cluster(devices=4, fault_plan=FaultPlan()) as cluster:
            results = cluster.run(requests, clients=4, timeout=60.0)
        assert all(r.ok for r in results)
        assert [report_bytes(r.response.report) for r in results] \
            == expected

    def test_malformed_work_is_a_structured_nonretryable_error(self):
        with Cluster(devices=2, fault_plan=FaultPlan()) as cluster:
            result = cluster.execute(SpMVRequest("no-such-matrix"))
        assert result.response.status == STATUS_ERROR
        assert "unknown matrix" in result.response.detail
        # A malformed request fails before any placement: no device
        # ever attempts it and nothing retries or fails over.
        assert result.attempts == 0 and not result.failover
        assert result.device == ""


class TestDeviceBudget:
    def test_a_device_holds_exactly_its_budget(self):
        """A device keeps at most ``store_capacity + schedule_capacity``
        artifacts, the budget the cluster gates are written against: no
        pass snapshot ever enters its store."""
        matrices = [
            uniform_random(40, 40, 200, seed=500 + index)
            for index in range(4)
        ]
        jobs = [
            SpMVRequest(matrix, scheme=scheme)
            for matrix in matrices
            for scheme in ("crhcs", "pe_aware")
        ]
        with Cluster(devices=1, store_capacity=4, schedule_capacity=2,
                     fidelity="exact", fault_plan=FaultPlan()) as cluster:
            store = cluster.devices["dev0"].store
            for request in jobs + jobs:
                assert cluster.execute(request).ok
                assert len(store) <= 4 + 2
                for table in (store.hits, store.misses, store.evictions):
                    assert "pass" not in table
        assert store.evictions["schedule"]  # the budget was under load


class TestMatrixHashes:
    """How many times one exact-tier request hashes its in-memory matrix,
    fresh or a cache hit: once, at the outermost entry (serial
    ``analyze``, ``ServingEngine.submit`` or cluster routing), which
    hands the digest down to the load stage."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        from repro.pipeline import stages

        calls = []
        real = stages.fingerprint_matrix

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(stages, "fingerprint_matrix", counting)
        return calls

    def test_serial_analyze_hashes_once(self, hashes):
        from repro.pipeline.store import ArtifactStore

        runner = PipelineRunner(ArtifactStore(capacity=8))
        for _ in range(2):
            hashes.clear()
            runner.analyze(MATRICES[0], "crhcs")
            assert len(hashes) == 1
        assert runner.store.hits["schedule"]  # the second run was a hit

    def test_engine_request_hashes_once(self, hashes):
        from repro.serving import ServingEngine

        with ServingEngine(workers=1, fidelity="exact") as engine:
            for _ in range(2):
                hashes.clear()
                assert engine.submit(SpMVRequest(MATRICES[0])).result(30).ok
                assert len(hashes) == 1

    def test_cluster_request_hashes_once(self, hashes):
        # Hedging off: this test pins the unhedged path.
        with Cluster(devices=3, fidelity="exact", hedge_ms=60_000,
                     fault_plan=FaultPlan()) as cluster:
            for _ in range(2):
                hashes.clear()
                assert cluster.execute(SpMVRequest(MATRICES[0])).ok
                assert len(hashes) == 1

    def test_hedged_cluster_request_hashes_once(self, hashes):
        with Cluster(devices=2, fidelity="exact", hedge_ms=40,
                     fault_plan=FaultPlan()) as cluster:
            request = request_with_primary(cluster, "dev0")
            cluster.devices["dev0"].engine.runner = _Staller(0.3)
            hashes.clear()
            result = cluster.execute(request, timeout=30.0)
        # Both devices executed (the stalled primary finished while the
        # cluster drained), from the router's one hash.
        assert result.ok and result.hedged
        assert len(hashes) == 1

    def test_a_matrix_edited_between_submits_is_hashed_again(self):
        """The digest lives for one submit: resubmitting the same request
        object after editing its matrix in place answers for the edited
        matrix, exactly as a fresh serial run does."""
        # Skewed rows: transposing it in place changes its schedule
        # (values alone never reach the report).
        matrix = power_law_rows(48, 48, 260, seed=1)
        request = SpMVRequest(matrix)
        answers, expected = [], []
        with Cluster(devices=3, fidelity="exact", hedge_ms=60_000,
                     fault_plan=FaultPlan()) as cluster:
            for _ in range(3):
                expected.append(report_bytes(serial_report(request)))
                result = cluster.execute(request)
                assert result.ok
                answers.append(report_bytes(result.response.report))
                matrix.rows[:], matrix.cols[:] = (
                    matrix.cols.copy(), matrix.rows.copy()
                )
        assert answers == expected
        assert answers[0] != answers[1] and answers[2] == answers[0]


class TestRouterWakeups:
    def test_an_unhedged_request_is_checked_at_most_twice(
        self, ticket_checks
    ):
        """Once when submitted, once when its answer wakes the router:
        the router sleeps on the tickets' completion hook, not a clock."""
        with Cluster(devices=2, fault_plan=FaultPlan(),
                     hedge_ms=60_000) as cluster:
            for device in cluster.devices.values():
                device.engine.runner = _Staller(0.05)
            ticket_checks.clear()
            result = cluster.execute(SpMVRequest(MATRICES[0]), timeout=30.0)
            checks = len(ticket_checks)
        assert result.ok and not result.hedged
        assert checks <= 2


class TestConfigKeys:
    """How often default-config requests through a 3-device cluster
    encode their config and resolve their scheme's pass plan: the config
    at most once in total (the digest stays on the config object), the
    plan only to build a schedule (its signature is memoized per spec),
    and the scheme lookups import no module."""

    def test_config_encoded_once_plan_resolved_only_for_builds(
        self, monkeypatch
    ):
        import importlib

        from repro.pipeline.stages import ScheduleStage
        from repro.scheduling import crhcs, registry

        # The module, not the function the package re-exports by its name.
        fingerprints = importlib.import_module(
            "repro.scheduling.passes.fingerprint"
        )
        encodes, resolves, builds, imports = [], [], [], []
        real_fingerprint = fingerprints.fingerprint
        real_resolve = crhcs.resolve_passes
        real_run = ScheduleStage.run

        def counting_fingerprint(*parts):
            if parts[:1] == ("config",):
                encodes.append(parts)
            return real_fingerprint(*parts)

        def counting_resolve(*args, **kwargs):
            resolves.append(args)
            return real_resolve(*args, **kwargs)

        def counting_run(self, *args, **kwargs):
            builds.append(args)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(fingerprints, "fingerprint",
                            counting_fingerprint)
        monkeypatch.setattr(crhcs, "resolve_passes", counting_resolve)
        monkeypatch.setattr(ScheduleStage, "run", counting_run)
        get_scheme("crhcs")
        monkeypatch.setattr(registry, "_ensure_builtins",
                            lambda: imports.append(1))
        with Cluster(devices=3, fidelity="exact", hedge_ms=60_000,
                     fault_plan=FaultPlan()) as cluster:
            for index in range(12):
                request = SpMVRequest(MATRICES[index % 3])
                assert cluster.execute(request).ok
        assert imports == []
        assert len(encodes) <= 1
        assert len(builds) == 3
        # One resolution per build, plus the signature's first one when
        # no earlier request has memoized it.
        assert len(builds) <= len(resolves) <= len(builds) + 1

    def test_schedule_key_tail_is_encoded_once(self, monkeypatch):
        """A schedule key digests the matrix fingerprint, then its
        scheme's tail (name, version, config digest, public kwargs, pass
        signature), which the spec encodes once per exact (config,
        kwargs) key: the digest is a fresh one's, and a request past the
        first encodes two values for it, the tag and the matrix."""
        import importlib
        import threading

        from repro.config import DEFAULT_CHASON
        from repro.pipeline.fingerprint import (
            fingerprint,
            fingerprint_config,
        )
        from repro.pipeline.stages import ScheduleStage
        from repro.scheduling.stats import MigrationReport

        configs = [DEFAULT_CHASON,
                   dataclasses.replace(DEFAULT_CHASON, frequency_mhz=301),
                   dataclasses.replace(DEFAULT_CHASON, frequency_mhz=301.0)]
        for name in ("crhcs", "pe_aware", "row_split"):
            spec = get_scheme(name)
            for config in configs:
                for kwargs in ({}, {"migration_span": 1},
                               {"migration_span": 2, "steal_tries": 3},
                               {"max_rows_per_pass": 256},
                               {"_pass_cache": object()},
                               {"report": MigrationReport()}):
                    if name != "crhcs":
                        kwargs = {k: v for k, v in kwargs.items()
                                  if k in ("max_rows_per_pass", "_pass_cache")}
                    public = {k: kwargs[k] for k in sorted(kwargs)
                              if not k.startswith("_")}
                    fresh = fingerprint(
                        "schedule", "matrix-fp", spec.name, spec.version,
                        fingerprint_config(config), public,
                        spec.pass_signature(config, kwargs),
                    )
                    for _ in range(2):
                        assert ScheduleStage.fingerprint_for(
                            "matrix-fp", spec, config, kwargs) == fresh
        # Equal configs (301 == 301.0) with distinct digests keep
        # distinct keys.
        assert len({ScheduleStage.fingerprint_for(
            "matrix-fp", get_scheme("crhcs"), config, {})
            for config in configs[1:]}) == 2

        # The module, not the function the package re-exports by its name.
        fingerprints = importlib.import_module(
            "repro.scheduling.passes.fingerprint"
        )
        local = threading.local()
        encodes = []
        real_encode = fingerprints._encode
        real_key = ScheduleStage.fingerprint_for

        def counting_encode(value, h):
            local.count = getattr(local, "count", 0) + 1
            return real_encode(value, h)

        def counting_key(*args, **kwargs):
            local.count = 0
            digest = real_key(*args, **kwargs)
            encodes.append(local.count)
            return digest

        monkeypatch.setattr(fingerprints, "_encode", counting_encode)
        monkeypatch.setattr(ScheduleStage, "fingerprint_for",
                            staticmethod(counting_key))
        with Cluster(devices=3, fidelity="exact", hedge_ms=60_000,
                     fault_plan=FaultPlan()) as cluster:
            for index in range(12):
                request = SpMVRequest(MATRICES[index % 3])
                assert cluster.execute(request).ok
        assert len(encodes) >= 12
        assert encodes[1:] == [2] * (len(encodes) - 1)


class TestHotSetBuilds:
    def test_one_off_traffic_does_not_flush_the_hot_set(self, monkeypatch):
        """perfbench ``oneshot``'s mix, small: one client, three
        exact-tier devices at their default budgets, 30 % of 400
        requests from a Zipf-0.5 hot set of 32 matrices and 70 %
        never-seen.  Count the hot-set requests' schedule builds: 40 of
        117 with the segmented store LRUs; 72 with the plain LRUs they
        replaced, where the one-offs flushed the hot set."""
        from repro.pipeline.stages import ScheduleStage

        builds = []
        real = ScheduleStage.run

        def counting(self, *args, **kwargs):
            builds.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ScheduleStage, "run", counting)
        hot = [uniform_random(32, 32, 100, seed=10_000 + index)
               for index in range(32)]
        weights = 1.0 / np.arange(1, len(hot) + 1) ** 0.5
        cumulative = np.cumsum(weights / weights.sum())
        picks = np.random.default_rng(2026)
        hot_requests = hot_builds = 0
        with Cluster(devices=3, fidelity="exact", hedge_ms=60_000,
                     fault_plan=FaultPlan()) as cluster:
            for matrix in hot:
                assert cluster.execute(SpMVRequest(matrix)).ok
            for position in range(400):
                is_hot = picks.random() >= 0.7
                if is_hot:
                    index = int(np.searchsorted(
                        cumulative, picks.random(), side="right"
                    ))
                    matrix = hot[min(index, len(hot) - 1)]
                else:
                    matrix = uniform_random(32, 32, 100,
                                            seed=20_000 + position)
                before = len(builds)
                assert cluster.execute(SpMVRequest(matrix)).ok
                if is_hot:
                    hot_requests += 1
                    hot_builds += len(builds) - before
        assert (hot_requests, hot_builds) == (117, 40)


class TestFailover:
    def test_crash_mid_run_fails_over_byte_identically(self):
        """ISSUE property: device loss mid-run answers every request,
        byte-identical, zero unhandled exceptions."""
        plan = parse_fault_plan("crash:1:after=1,seed=7")
        with Cluster(devices=4, fault_plan=plan,
                     hedge_ms=5_000) as cluster:
            # Guarantee the doomed device actually owns traffic: lead
            # with requests whose consistent-hash primary is dev1.
            doomed = request_with_primary(cluster, "dev1")
            requests = [SpMVRequest(doomed.source) for _ in range(3)]
            requests += [SpMVRequest(m) for m in MATRICES] * 2
            expected = [report_bytes(serial_report(r))
                        for r in requests]
            results = cluster.run(requests, clients=4, timeout=60.0)
            status = cluster.status()
        assert all(r.ok for r in results)
        assert [report_bytes(r.response.report) for r in results] \
            == expected
        dev1 = next(d for d in status["devices"]
                    if d["device"] == "dev1")
        assert dev1["state"] == "dead"
        assert status["stats"]["removed_devices"] == 1
        assert status["stats"]["failovers"] >= 1

    def test_immediate_crash_requests_retry_to_replicas(self):
        plan = parse_fault_plan("crash:0:after=0")
        with Cluster(devices=2, fault_plan=plan,
                     hedge_ms=5_000) as cluster:
            request = request_with_primary(cluster, "dev0")
            result = cluster.execute(request)
        assert result.ok
        assert result.device == "dev1"
        assert result.failover and result.attempts >= 2

    def test_stalled_primary_is_hedged_to_a_replica(self, ticket_checks):
        with Cluster(devices=2, fault_plan=FaultPlan(),
                     hedge_ms=40) as cluster:
            request = request_with_primary(cluster, "dev0")
            # Stall dev0 from now on; the hedge timer must rescue the
            # request via dev1 long before the stall clears.
            cluster.devices["dev0"].engine.runner = _Staller(0.75)
            ticket_checks.clear()
            result = cluster.execute(request, timeout=30.0)
            checks = len(ticket_checks)
        assert result.ok
        assert result.hedged
        assert result.device == "dev1"
        # The router wakes at the hedge time and on the answer, not on
        # a clock.
        assert checks <= 8

    def test_a_lone_device_is_never_hedged(self):
        """``hedged`` means a duplicate was launched: with no replica to
        take it, a request slower than the hedge time is not hedged."""
        with telemetry.capture() as cap:
            with Cluster(devices=1, fault_plan=FaultPlan(),
                         hedge_ms=5) as cluster:
                cluster.devices["dev0"].engine.runner = _Staller(0.05)
                result = cluster.execute(SpMVRequest(MATRICES[0]),
                                         timeout=30.0)
                stats = cluster.stats
        assert result.ok and result.device == "dev0"
        assert not result.hedged
        assert json.loads(result.to_json())["hedged"] is False
        assert stats["hedges"] == 0
        roots = [r for r in cap.records
                 if r["kind"] == "span" and r["name"] == "cluster.request"]
        assert [r["attrs"]["hedged"] for r in roots] == [False]

    def test_an_attempt_ends_at_its_budget(self):
        """Both devices stall past the request's 0.2 s timeout, which
        caps the attempt budget: the router answers the structured error
        no earlier than 0.2 s and within 0.1 s of it, after hedging, and
        charges each device exactly one failure."""
        with Cluster(devices=2, fault_plan=FaultPlan(),
                     hedge_ms=20) as cluster:
            for device in cluster.devices.values():
                device.engine.runner = _Staller(0.6)
            started = time.monotonic()
            result = cluster.execute(SpMVRequest(MATRICES[0]), timeout=0.2)
            elapsed = time.monotonic() - started
            failures = {device_id: device.health.failures
                        for device_id, device in cluster.devices.items()}
        assert result.response.status == STATUS_ERROR
        assert result.response.detail.startswith(
            "no device answered within 0.2s"
        )
        assert result.hedged and result.attempts == 1
        assert 0.2 <= elapsed <= 0.3
        assert failures == {"dev0": 1, "dev1": 1}

    def test_remove_device_drains_and_redistributes(self):
        with Cluster(devices=2, fault_plan=FaultPlan()) as cluster:
            request = request_with_primary(cluster, "dev0")
            assert cluster.execute(request).device == "dev0"
            cluster.remove_device("dev0")
            cluster.remove_device("dev0")  # idempotent
            assert cluster.ring.devices == ["dev1"]
            rerouted = cluster.execute(SpMVRequest(request.source))
            assert rerouted.ok and rerouted.device == "dev1"
            assert cluster.status()["stats"]["removed_devices"] == 1

    def test_losing_every_device_degrades_to_a_structured_error(self):
        with Cluster(devices=2, fault_plan=FaultPlan()) as cluster:
            cluster.remove_device("dev0")
            cluster.remove_device("dev1")
            result = cluster.execute(SpMVRequest(MATRICES[0]))
        assert result.response.status == STATUS_ERROR
        assert "no device answered" in result.response.detail

    def test_overload_never_raises(self):
        with Cluster(devices=2, queue_capacity=1, device_workers=1,
                     fault_plan=FaultPlan(), max_attempts=2,
                     hedge_ms=5_000) as cluster:
            results = cluster.run(
                [SpMVRequest(MATRICES[i % len(MATRICES)])
                 for i in range(16)],
                clients=8, timeout=60.0,
            )
        assert len(results) == 16
        for result in results:
            assert result.response.status in ("ok", "rejected")


class _Staller:
    """Stands in for a device's runner: every execution sleeps."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self._runner = PipelineRunner()

    def analyze(self, source, spec, config, **kwargs):
        import time

        time.sleep(self.delay_s)
        return self._runner.analyze(source, spec, config, **kwargs)


class TestKnobs:
    def test_invalid_cluster_knobs_fall_back_with_warning(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_CLUSTER_DEVICES", "lots")
        monkeypatch.setenv("REPRO_CLUSTER_REPLICAS", "2.5")
        monkeypatch.setenv("REPRO_CLUSTER_HEDGE_MS", "soon")
        monkeypatch.setenv("REPRO_CLUSTER_RETRIES", "")
        with caplog.at_level(logging.WARNING):
            assert cluster_device_count() == 4
            assert cluster_replica_count() == 2
            assert cluster_hedge_ms() == 100
            assert cluster_max_attempts() == 3
        assert "REPRO_CLUSTER_DEVICES" in caplog.text
        assert "REPRO_CLUSTER_HEDGE_MS" in caplog.text

    def test_cluster_knobs_clamp_to_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_DEVICES", "-3")
        assert cluster_device_count() == 1

    def test_env_knobs_shape_the_cluster(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_DEVICES", "3")
        monkeypatch.setenv("REPRO_CLUSTER_REPLICAS", "1")
        monkeypatch.delenv("REPRO_CLUSTER_FAULTS", raising=False)
        cluster = Cluster()
        assert sorted(cluster.devices) == ["dev0", "dev1", "dev2"]
        assert cluster.replicas == 1

    def test_registry_covers_the_cluster_knobs(self):
        names = {entry.name for entry in RUNTIME_KNOBS}
        assert {"REPRO_CLUSTER_DEVICES", "REPRO_CLUSTER_REPLICAS",
                "REPRO_CLUSTER_HEDGE_MS", "REPRO_CLUSTER_RETRIES",
                "REPRO_CLUSTER_FAULTS"} <= names
        assert knob("REPRO_CLUSTER_DEVICES").default == "4"


class TestTelemetryIntegration:
    def test_cluster_spans_counters_and_device_gauges(self):
        plan = parse_fault_plan("crash:1:after=0")
        with telemetry.capture() as cap:
            with Cluster(devices=2, fault_plan=plan,
                         hedge_ms=5_000) as cluster:
                request = request_with_primary(cluster, "dev1")
                assert cluster.execute(request).ok
        spans = {r["name"] for r in cap.records if r["kind"] == "span"}
        assert "cluster.route" in spans
        assert "cluster.retry" in spans
        assert "cluster.failover" in spans
        counters = {r["name"] for r in cap.records
                    if r["kind"] == "counter"}
        assert {"cluster.routed", "cluster.retry",
                "cluster.failover", "cluster.completed"} <= counters
        gauges = {r["name"] for r in cap.records if r["kind"] == "gauge"}
        assert "cluster.device.completed" in gauges

    def test_summarize_renders_a_per_device_section(self):
        with telemetry.capture() as cap:
            with Cluster(devices=2, fault_plan=FaultPlan()) as cluster:
                assert cluster.execute(SpMVRequest(MATRICES[0])).ok
        report = summarize_records(cap.records)
        assert "cluster devices" in report
        table = summarize_cluster_devices(cap.records)
        assert "dev0" in table and "dev1" in table

    def test_done_counts_session_work(self):
        """A device's "done" column counts session work as well as
        one-shot answers: it equals its ``cluster.device.completed``."""
        with telemetry.capture() as cap:
            with Cluster(devices=2) as cluster:
                manager = SessionManager(cluster=cluster)
                with manager.open(MATRICES[0], tolerance=0.0,
                                  max_iterations=12,
                                  params={"seed": 0}) as session:
                    session.run()
                assert cluster.execute(SpMVRequest(MATRICES[1])).ok
        rows = [line.split() for line in
                summarize_cluster_devices(cap.records).splitlines()[1:]]
        done = {row[0]: float(row[2]) for row in rows}
        gauges = {r["attrs"]["device"]: r["value"] for r in cap.records
                  if r["name"] == "cluster.device.completed"}
        assert done == gauges
        assert gauges[session.device.device_id] >= 2

    def test_a_scale_down_is_not_a_failover(self, tmp_path, capsys):
        """Draining a healthy device counts a removal and an autoscale
        action, never a failover."""
        trace = tmp_path / "trace.jsonl"
        with telemetry.capture() as cap:
            cluster = Cluster(devices=3, replicas=1).start()
            scaler = Autoscaler(
                cluster, min_devices=1, max_devices=3, up_depth=4.0,
                down_depth=0.5, up_latency_ms=0.0, down_streak=1,
                cooldown_steps=0,
            )
            idle = AutoscaleSignals(alive=3, mean_depth=0.0, max_depth=0,
                                    max_ewma_ms=0.0)
            assert scaler.step(idle) == "down"
            cluster.shutdown()
        assert scaler.actions == [("down", "dev2")]
        assert cluster.stats["removed_devices"] == 1
        assert not [r for r in cap.records
                    if r["kind"] == "counter"
                    and r["name"] == "cluster.failover"]
        trace.write_text("".join(json.dumps(r) + "\n" for r in cap.records))
        assert main(["telemetry", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        table = out.split("cluster devices")[1].split("\n\n")[0]
        lines = table.strip().splitlines()
        header = lines[1].split()
        rows = {line.split()[0]: line.split() for line in lines[2:]}
        assert rows["dev2"][header.index("failover")] == "0"

    def test_non_cluster_traces_omit_the_device_section(self):
        with telemetry.capture() as cap:
            cap.counter("serving.accepted", 1)
        assert summarize_cluster_devices(cap.records) == ""
        assert "cluster devices" not in summarize_records(cap.records)

    def test_span_free_traces_omit_latency_percentiles(self):
        with telemetry.capture() as cap:
            cap.counter("serving.accepted", 1)
        report = summarize_records(cap.records)
        assert "latency percentiles" not in report
        assert "counters" in report

    def test_empty_latency_summary_is_well_formed(self):
        summary = latency_percentiles([])
        assert summary == {
            "count": 0, "mean_ms": 0.0, "max_ms": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }


class TestCLI:
    def test_cluster_status_prints_the_device_table(self, capsys):
        assert main(["cluster", "status", "--devices", "3"]) == 0
        out = capsys.readouterr().out
        assert "dev0" in out and "dev2" in out
        assert "fault plan" in out

    def test_cluster_serve_writes_jsonl_with_routing_fields(
        self, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"matrix": "CollegeMsg"}\n{"matrix": "CollegeMsg"}\n'
        )
        out_path = tmp_path / "responses.jsonl"
        assert main(["cluster", "serve", str(requests),
                     "--devices", "2", "--clients", "2",
                     "--hedge-ms", "5000",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        assert all(p["status"] == "ok" for p in payloads)
        assert all(p["device"].startswith("dev") for p in payloads)
        assert {p["device"] for p in payloads} == {payloads[0]["device"]}
        summary = capsys.readouterr().out
        assert "affinity hit rate" in summary

    def test_info_lists_cluster_knobs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_CLUSTER_DEVICES" in out
        assert "REPRO_CLUSTER_FAULTS" in out
