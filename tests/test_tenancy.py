"""Multi-tenant QoS tests: fair queue, policy knobs, autoscaler.

The backbone is the *single-tenant parity* suite: with one tenant at the
default policy, :class:`~repro.tenancy.fair_queue.FairAdmissionQueue`
must reproduce :class:`~repro.serving.queue.AdmissionQueue` decision for
decision — pinned both by replaying the admission-policy cases from
``test_serving.py`` and by a randomized (and a hypothesis-driven)
differential that runs the same operation sequence through both queues.

On top of that: deficit-round-robin weight convergence and
starvation-freedom (hypothesis), per-tenant quotas, flood isolation,
SLO-class shedding under burn pressure, engine/session tenant plumbing,
and the autoscaler's hysteresis loop driven by synthetic signals.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import Autoscaler, AutoscaleSignals, Cluster
from repro.serving import (
    STATUS_OK,
    STATUS_REJECTED,
    AdmissionQueue,
    ServingEngine,
    SpMVRequest,
    request_from_json,
)
from repro.errors import ConfigError
from repro.matrices.generators import uniform_random
from repro.sessions import SessionManager
from repro.tenancy import (
    DEFAULT_TENANT,
    FairAdmissionQueue,
    TenantPolicy,
    normalize_tenant,
    parse_tenant_weights,
)

MATRIX = uniform_random(48, 48, 260, seed=0)


@pytest.fixture(autouse=True)
def _fresh_warnings():
    telemetry.reset_warnings()
    yield
    telemetry.reset_warnings()


class _Item:
    """Minimal queue entry (mirrors test_serving's) plus tenant/class."""

    def __init__(self, seq, priority=0, deadline_at=None, tenant=None,
                 slo_class="interactive"):
        self.seq = seq
        self.priority = priority
        self.deadline_at = deadline_at
        self.tenant = tenant
        self.slo_class = slo_class

    def expired_at(self, now):
        return self.deadline_at is not None and now > self.deadline_at

    def __repr__(self):
        return f"_Item(seq={self.seq}, pri={self.priority})"


class TestSingleTenantParity:
    """One tenant, default policy → byte-for-byte the global queue.

    These replay the ``TestAdmissionQueue`` policy cases from
    ``test_serving.py`` against the fair queue: the differential pin
    that the tenancy layer does not change the single-tenant path.
    """

    def test_priority_order_fifo_within_level(self):
        queue = FairAdmissionQueue(capacity=8)
        items = [_Item(seq=0), _Item(seq=1, priority=5), _Item(seq=2),
                 _Item(seq=3, priority=5)]
        for item in items:
            assert queue.push(item, now=0.0) == (True, None, [])
        popped = [queue.pop(timeout=0)[0] for _ in range(4)]
        assert [item.seq for item in popped] == [1, 3, 0, 2]

    def test_full_queue_rejects_equal_priority(self):
        queue = FairAdmissionQueue(capacity=2)
        assert queue.push(_Item(seq=0), now=0.0)[0]
        assert queue.push(_Item(seq=1), now=0.0)[0]
        admitted, displaced, expired = queue.push(_Item(seq=2), now=0.0)
        assert (admitted, displaced, expired) == (False, None, [])
        assert len(queue) == 2

    def test_higher_priority_displaces_the_tail(self):
        queue = FairAdmissionQueue(capacity=2)
        low = _Item(seq=0)
        queue.push(low, now=0.0)
        queue.push(_Item(seq=1, priority=3), now=0.0)
        admitted, displaced, _ = queue.push(
            _Item(seq=2, priority=9), now=0.0
        )
        assert admitted and displaced is low
        assert [i.priority for i, _ in
                [queue.pop(timeout=0) for _ in range(2)]] == [9, 3]

    def test_displacement_tie_evicts_newest_of_equals(self):
        queue = FairAdmissionQueue(capacity=3)
        equals = [_Item(seq=0), _Item(seq=1), _Item(seq=2)]
        for item in equals:
            assert queue.push(item, now=0.0) == (True, None, [])
        admitted, displaced, expired = queue.push(
            _Item(seq=3, priority=5), now=0.0
        )
        assert admitted and expired == []
        assert displaced is equals[2]
        popped = [queue.pop(timeout=0)[0] for _ in range(3)]
        assert [item.seq for item in popped] == [3, 0, 1]

    def test_expired_entries_are_purged_to_make_room(self):
        queue = FairAdmissionQueue(capacity=1)
        stale = _Item(seq=0, deadline_at=1.0)
        queue.push(stale, now=0.0)
        admitted, displaced, expired = queue.push(_Item(seq=1), now=2.0)
        assert admitted and displaced is None and expired == [stale]

    def test_pop_group_takes_matching_up_to_limit(self):
        queue = FairAdmissionQueue(capacity=8)
        items = [_Item(seq=i) for i in range(5)]
        for item in items:
            queue.push(item, now=0.0)
        taken = queue.pop_group(lambda i: i.seq % 2 == 0, limit=2)
        assert [i.seq for i in taken] == [0, 2]
        assert len(queue) == 3

    def test_reprioritize_moves_a_queued_entry_forward(self):
        queue = FairAdmissionQueue(capacity=4)
        first, second = _Item(seq=0), _Item(seq=1)
        queue.push(first, now=0.0)
        queue.push(second, now=0.0)
        assert queue.reprioritize(second, 7)
        assert queue.pop(timeout=0)[0] is second
        assert not queue.reprioritize(second, 9)

    def _differential(self, ops):
        """Run one op sequence through both queues; outcomes must match."""
        legacy = AdmissionQueue(capacity=4)
        fair = FairAdmissionQueue(capacity=4)
        mirror = {}  # seq → (legacy item, fair item)
        for op in ops:
            if op[0] == "push":
                _tag, seq, priority, deadline_at, now = op
                a = _Item(seq, priority, deadline_at)
                b = _Item(seq, priority, deadline_at)
                mirror[seq] = (a, b)
                res_a = legacy.push(a, now=now)
                res_b = fair.push(b, now=now)
                assert res_a[0] == res_b[0], op
                assert (res_a[1].seq if res_a[1] else None) == \
                       (res_b[1].seq if res_b[1] else None), op
                assert [i.seq for i in res_a[2]] == \
                       [i.seq for i in res_b[2]], op
            else:
                entry_a, expired_a = legacy.pop(timeout=0)
                entry_b, expired_b = fair.pop(timeout=0)
                assert (entry_a.seq if entry_a else None) == \
                       (entry_b.seq if entry_b else None), op
                assert [i.seq for i in expired_a] == \
                       [i.seq for i in expired_b], op
            assert len(legacy) == len(fair)

    def test_randomized_differential(self):
        rng = random.Random(1234)
        for _trial in range(50):
            seq = 0
            now = 0.0
            ops = []
            for _step in range(40):
                now += rng.random()
                if rng.random() < 0.6:
                    deadline = (
                        now + rng.uniform(-0.5, 2.0)
                        if rng.random() < 0.3 else None
                    )
                    ops.append(("push", seq, rng.randrange(4),
                                deadline, now))
                    seq += 1
                else:
                    ops.append(("pop",))
            self._differential(ops)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(
            st.tuples(st.integers(0, 3), st.booleans()),
            st.none(),
        ),
        min_size=1, max_size=40,
    ))
    def test_hypothesis_differential(self, script):
        """Any push/pop interleaving: both queues decide identically."""
        seq = 0
        now = 0.0
        ops = []
        for step in script:
            now += 0.25
            if step is None:
                ops.append(("pop",))
            else:
                priority, with_deadline = step
                deadline = now + (priority - 1.0) if with_deadline else None
                ops.append(("push", seq, priority, deadline, now))
                seq += 1
        self._differential(ops)


class TestDeficitRoundRobin:
    def test_weighted_interleave(self):
        policy = TenantPolicy(weights={"a": 3.0, "b": 1.0})
        queue = FairAdmissionQueue(capacity=64, policy=policy)
        for i in range(16):
            queue.push(_Item(seq=2 * i, tenant="a"), now=0.0)
            queue.push(_Item(seq=2 * i + 1, tenant="b"), now=0.0)
        order = [queue.pop(timeout=0)[0].tenant for _ in range(16)]
        assert order == ["a", "a", "a", "b"] * 4

    def test_fractional_weight_throttles_but_serves(self):
        policy = TenantPolicy(weights={"slow": 0.25})
        queue = FairAdmissionQueue(capacity=64, policy=policy)
        for i in range(8):
            queue.push(_Item(seq=2 * i, tenant="fast"), now=0.0)
            queue.push(_Item(seq=2 * i + 1, tenant="slow"), now=0.0)
        order = [queue.pop(timeout=0)[0].tenant for _ in range(10)]
        # One "slow" dispatch per four rounds; never starved outright.
        assert order.count("slow") == 2
        assert order.count("fast") == 8

    def test_new_tenant_joins_end_of_round_without_burst(self):
        queue = FairAdmissionQueue(capacity=64)
        for i in range(6):
            queue.push(_Item(seq=i, tenant="standing"), now=0.0)
        assert queue.pop(timeout=0)[0].tenant == "standing"
        for i in range(3):
            queue.push(_Item(seq=10 + i, tenant="late"), now=0.0)
        # "standing" already spent this round's quantum, so "late" gets
        # its first turn immediately — but only one dispatch per round,
        # never a catch-up burst past the standing tenant.
        order = [queue.pop(timeout=0)[0].tenant for _ in range(6)]
        assert order == ["late", "standing", "late", "standing",
                        "late", "standing"]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=4,
        ),
    )
    def test_convergence_and_no_starvation(self, weights):
        """Served shares track weights; no non-empty tenant starves.

        Every tenant stays non-empty for the whole window, so deficit
        round-robin theory gives a hard bound: after any prefix, each
        tenant's round count differs by ≤ 1 and its served count is
        within its weight + 1 of (rounds × weight).
        """
        tenants = [f"t{i}" for i in range(len(weights))]
        policy = TenantPolicy(weights=dict(zip(tenants, weights)))
        queue = FairAdmissionQueue(capacity=4096, policy=policy)
        pops = 25 * len(tenants)
        seq = 0
        for _ in range(pops):  # nobody empties during the window
            for tenant in tenants:
                queue.push(_Item(seq=seq, tenant=tenant), now=0.0)
                seq += 1
        order = [queue.pop(timeout=0)[0].tenant for _ in range(pops)]
        served = {t: order.count(t) for t in tenants}
        # Starvation-freedom: every tenant was dispatched.
        assert all(served[t] >= 1 for t in tenants)
        # Convergence: per-weight normalized service within the DRR
        # deficit bound of each other (rounds differ by at most one,
        # credit remainders by less than one dispatch).
        normalized = {
            t: served[t] / policy.weight(t) for t in tenants
        }
        slack = {
            t: 1.0 + 1.0 / policy.weight(t) for t in tenants
        }
        for a in tenants:
            for b in tenants:
                assert (normalized[a] - normalized[b]
                        <= 1.0 + slack[a] + slack[b]), (served, weights)
        # Conservation: the remaining entries are exactly the unpopped.
        assert len(queue) == pops * len(tenants) - pops


class TestQuotaAndFloodIsolation:
    def test_quota_caps_one_tenant(self):
        policy = TenantPolicy(quota_fraction=0.5)
        queue = FairAdmissionQueue(capacity=10, policy=policy)
        admitted = [
            queue.push(_Item(seq=i, tenant="greedy"), now=0.0)[0]
            for i in range(8)
        ]
        assert admitted == [True] * 5 + [False] * 3
        assert queue.tenant_depth("greedy") == 5
        # Another tenant still has room under the global capacity.
        assert queue.push(_Item(seq=99, tenant="polite"), now=0.0)[0]

    def test_quota_always_leaves_one_slot(self):
        policy = TenantPolicy(quota_fraction=0.001)
        queue = FairAdmissionQueue(capacity=8, policy=policy)
        assert queue.tenant_quota() == 1
        assert queue.push(_Item(seq=0, tenant="x"), now=0.0)[0]
        assert not queue.push(_Item(seq=1, tenant="x"), now=0.0)[0]

    def test_flood_tenant_absorbs_global_overload(self):
        """A full queue displaces the over-share tenant, not the victim."""
        queue = FairAdmissionQueue(capacity=6)
        for i in range(6):
            queue.push(_Item(seq=i, tenant="flood"), now=0.0)
        admitted, displaced, _ = queue.push(
            _Item(seq=100, tenant="victim"), now=0.0
        )
        assert admitted
        assert displaced is not None and displaced.tenant == "flood"
        assert queue.tenant_depth("victim") == 1

    def test_flood_cannot_displace_the_minority_share(self):
        queue = FairAdmissionQueue(capacity=4)
        queue.push(_Item(seq=0, tenant="victim"), now=0.0)
        for i in range(1, 4):
            queue.push(_Item(seq=i, tenant="flood"), now=0.0)
        # Equal-priority flood push: its own tenant is the over-share
        # victim and the within-tenant rule rejects the newcomer.
        admitted, displaced, _ = queue.push(
            _Item(seq=4, tenant="flood"), now=0.0
        )
        assert not admitted and displaced is None
        assert queue.tenant_depth("victim") == 1

    def test_batch_sheds_before_interactive_under_pressure(self):
        hot = {"value": False}
        queue = FairAdmissionQueue(
            capacity=3, pressure=lambda: hot["value"]
        )
        batch = _Item(seq=0, tenant="flood", slo_class="batch")
        queue.push(batch, now=0.0)
        queue.push(_Item(seq=1, tenant="flood"), now=0.0)
        queue.push(_Item(seq=2, tenant="flood"), now=0.0)
        hot["value"] = True
        admitted, displaced, _ = queue.push(
            _Item(seq=3, tenant="victim"), now=0.0
        )
        # Cold policy would evict seq=2 (newest); hot evicts the batch
        # entry even though it queued first.
        assert admitted and displaced is batch

    def test_cold_shedding_ignores_slo_class(self):
        queue = FairAdmissionQueue(capacity=3, pressure=lambda: False)
        queue.push(_Item(seq=0, tenant="flood", slo_class="batch"), now=0.0)
        queue.push(_Item(seq=1, tenant="flood"), now=0.0)
        newest = _Item(seq=2, tenant="flood")
        queue.push(newest, now=0.0)
        _admitted, displaced, _ = queue.push(
            _Item(seq=3, tenant="victim"), now=0.0
        )
        assert displaced is newest


class TestClose:
    def test_close_releases_a_blocked_pop(self):
        queue = FairAdmissionQueue(capacity=4)
        results = []
        popper = threading.Thread(
            target=lambda: results.append(queue.pop()), daemon=True
        )
        popper.start()
        popper.join(timeout=0.05)
        assert popper.is_alive() and results == []
        queue.close()
        popper.join(timeout=5.0)
        assert results == [(None, [])]

    def test_a_closed_queue_hands_out_what_it_holds(self):
        queue = FairAdmissionQueue(capacity=4)
        first, second = _Item(seq=0, tenant="a"), _Item(seq=1, tenant="b")
        queue.push(first, now=0.0)
        queue.push(second, now=0.0)
        queue.close()
        assert queue.pop() == (first, [])
        assert queue.pop() == (second, [])
        assert queue.pop() == (None, [])

    def test_a_closed_queue_returns_its_expired_entries(self):
        queue = FairAdmissionQueue(capacity=4)
        stale = _Item(seq=0, deadline_at=0.0)
        queue.push(stale, now=0.0)
        queue.close()
        assert queue.pop() == (None, [stale])
        assert queue.pop() == (None, [])


class TestRequestTenantField:
    def test_default_tenant_when_absent(self):
        request = request_from_json('{"matrix": "CollegeMsg"}')
        assert request.tenant == DEFAULT_TENANT

    def test_tenant_round_trips_and_normalizes(self):
        request = request_from_json(json.dumps(
            {"matrix": "CollegeMsg", "tenant": " alice "}
        ))
        assert request.tenant == "alice"
        assert request_from_json(json.dumps(
            {"matrix": "CollegeMsg", "tenant": ""}
        )).tenant == DEFAULT_TENANT

    def test_non_string_tenant_is_a_config_error(self):
        with pytest.raises(ConfigError, match="tenant"):
            request_from_json(json.dumps(
                {"matrix": "CollegeMsg", "tenant": 7}
            ))

    def test_normalize_tenant(self):
        assert normalize_tenant(None) == DEFAULT_TENANT
        assert normalize_tenant("  ") == DEFAULT_TENANT
        assert normalize_tenant(" bob ") == "bob"

    def test_parse_weights_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANT_WEIGHTS", "a:2,b:1")
        assert parse_tenant_weights() == {"a": 2.0, "b": 1.0}


class TestEngineTenancy:
    #: Distinct matrices so flood requests never coalesce.
    SOURCES = [uniform_random(32, 32, 120, seed=s) for s in range(8)]

    def _request(self, request_id, tenant=None, source=None, **kwargs):
        return SpMVRequest(
            request_id=request_id,
            source=source if source is not None else MATRIX,
            scheme="crhcs", tenant=normalize_tenant(tenant), **kwargs
        )

    def test_responses_identical_across_tenants(self):
        """The tenant id must stay out of the work fingerprint: the
        same work answers byte-identically whoever submits it."""
        engine = ServingEngine(workers=1)
        engine.start()
        try:
            first = engine.submit_wait(self._request(1, tenant="alice"),
                                       timeout=30.0)
            second = engine.submit_wait(self._request(2, tenant="bob"),
                                        timeout=30.0)
        finally:
            engine.shutdown(drain=True)
        assert first.status == second.status == STATUS_OK
        assert json.dumps(dataclasses.asdict(first.report),
                          sort_keys=True) == \
               json.dumps(dataclasses.asdict(second.report), sort_keys=True)
        summary = engine.tenant_summary()
        assert summary["alice"]["completed"] == 1
        assert summary["bob"]["completed"] == 1

    def test_flood_tenant_absorbs_quota_shedding(self):
        policy = TenantPolicy(quota_fraction=0.25)
        engine = ServingEngine(workers=0, queue_capacity=8,
                               tenancy=policy).start()
        # Five requests queue against the flood tenant's quota of 2
        # slots.
        tickets = [
            engine.submit(self._request(
                i, tenant="flood", source=self.SOURCES[i]
            ))
            for i in range(5)
        ]
        rejected = [
            t.result(0) for t in tickets
            if t.done() and t.result(0).status == STATUS_REJECTED
        ]
        assert len(rejected) == 3  # 2 queued (quota), 3 shed
        assert all("quota" in r.detail and "'flood'" in r.detail
                   for r in rejected)
        # The victim tenant is untouched by the flood's quota.
        victim = engine.submit(self._request(
            50, tenant="victim", source=self.SOURCES[7]
        ))
        assert not victim.done()
        summary = engine.tenant_summary()
        assert summary["flood"]["shed"] == 3
        assert summary["victim"]["accepted"] == 1
        engine.shutdown(drain=True)
        assert victim.result(0).status == STATUS_OK


class TestQueueBooks:
    """The ledger is the one per-tenant book; the queue keeps none."""

    SOURCES = [uniform_random(32, 32, 120, seed=s) for s in range(5)]

    def test_micro_batched_requests_are_counted_once(self):
        """Five queued requests of one tenant run as one micro-batch."""
        engine = ServingEngine(workers=0, queue_capacity=8, max_batch=8)
        with telemetry.capture() as cap:
            engine.start()
            tickets = [
                engine.submit(SpMVRequest(source, scheme="crhcs", tenant="t"))
                for source in self.SOURCES
            ]
            assert engine.run_once()
            engine.shutdown(drain=True)
        assert all(ticket.result(0).ok for ticket in tickets)
        batches = [r["value"] for r in cap.records
                   if r["name"] == "serving.batch_size"]
        assert batches == [5]
        row = engine.tenant_summary()["t"]
        assert row["accepted"] == 5
        assert row["completed"] == 5
        assert "dispatched" not in row

    def test_one_request_tenants_leave_no_queue_rows(self):
        with ServingEngine(workers=1) as engine:
            for index in range(1000):
                response = engine.submit_wait(SpMVRequest(
                    MATRIX, scheme="crhcs", tenant=f"tenant-{index}"
                ), timeout=30.0)
                assert response.ok
        assert engine.stats["completed"] == 1000
        rows = {name: len(value)
                for name, value in vars(engine.queue).items()
                if isinstance(value, (dict, list))}
        assert rows and not any(rows.values()), rows


class TestSessionTenancy:
    def test_session_requests_inherit_the_tenant(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with manager.open(
                MATRIX, solver="power_iteration",
                max_iterations=2, tenant="team-ml",
            ) as session:
                assert session.spec.tenant == "team-ml"
                session.run()
            summary = engine.tenant_summary()
            assert summary["team-ml"]["completed"] >= 1

    def test_sessions_default_to_the_default_tenant(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with manager.open(MATRIX, max_iterations=1) as session:
                assert session.spec.tenant == DEFAULT_TENANT


class _FakeCluster:
    """Device-count ledger standing in for a Cluster in step tests."""

    def __init__(self, alive=2):
        self.alive = alive
        self.added = []
        self.removed = []
        self.devices = {}

    def add_device(self):
        self.alive += 1
        device_id = f"dev{90 + len(self.added)}"
        self.added.append(device_id)
        return device_id

    def remove_device(self, device_id, drain=True, reason="removed"):
        self.alive -= 1
        self.removed.append((device_id, drain, reason))

    def alive_count(self):
        return self.alive


class TestAutoscaler:
    def _signals(self, alive, depth, ewma=0.0):
        return AutoscaleSignals(
            alive=alive, mean_depth=depth,
            max_depth=int(depth), max_ewma_ms=ewma,
        )

    def _autoscaler(self, cluster, **kwargs):
        kwargs.setdefault("min_devices", 1)
        kwargs.setdefault("max_devices", 4)
        kwargs.setdefault("up_depth", 8.0)
        kwargs.setdefault("down_depth", 1.0)
        return Autoscaler(cluster, **kwargs)

    def test_scale_up_needs_a_streak(self):
        fake = _FakeCluster(alive=2)
        scaler = self._autoscaler(fake)
        assert scaler.step(self._signals(2, 20.0)) is None  # streak 1
        assert scaler.step(self._signals(2, 20.0)) == "up"  # streak 2
        assert fake.alive == 3

    def test_one_cool_sample_resets_the_streak(self):
        fake = _FakeCluster(alive=2)
        scaler = self._autoscaler(fake)
        assert scaler.step(self._signals(2, 20.0)) is None
        assert scaler.step(self._signals(2, 2.0)) is None  # resets
        assert scaler.step(self._signals(2, 20.0)) is None
        assert scaler.step(self._signals(2, 20.0)) == "up"

    def test_cooldown_blocks_consecutive_actions(self):
        fake = _FakeCluster(alive=2)
        scaler = self._autoscaler(fake, cooldown_steps=2)
        scaler.step(self._signals(2, 20.0))
        assert scaler.step(self._signals(2, 20.0)) == "up"
        # Two cooldown evaluations ignore the still-hot signal.
        assert scaler.step(self._signals(3, 20.0)) is None
        assert scaler.step(self._signals(3, 20.0)) is None
        assert scaler.step(self._signals(3, 20.0)) is None  # streak 1
        assert scaler.step(self._signals(3, 20.0)) == "up"

    def test_max_devices_is_a_hard_ceiling(self):
        fake = _FakeCluster(alive=4)
        scaler = self._autoscaler(fake, max_devices=4)
        for _ in range(6):
            assert scaler.step(self._signals(4, 50.0)) is None
        assert fake.added == []

    def test_scale_down_needs_the_longer_streak(self):
        fake = _FakeCluster(alive=3)
        fake.devices = {}
        scaler = self._autoscaler(fake, down_streak=4)
        for _ in range(3):
            assert scaler.step(self._signals(3, 0.0)) is None
        # Fourth idle evaluation scales down — but _pick_drain consults
        # cluster.devices, so give the fake a drainable fleet first.
        result = scaler.step(self._signals(3, 0.0))
        assert result is None  # no drainable device in the fake
        assert scaler.stats["steps"] == 4

    def test_below_min_recovers_immediately(self):
        fake = _FakeCluster(alive=0)
        scaler = self._autoscaler(fake, min_devices=2)
        assert scaler.step(self._signals(0, 0.0)) == "up"
        assert scaler.step(self._signals(1, 0.0)) == "up"
        assert fake.alive == 2

    def test_latency_trigger_scales_up(self):
        fake = _FakeCluster(alive=2)
        scaler = self._autoscaler(fake, up_latency_ms=50.0)
        assert scaler.step(self._signals(2, 0.0, ewma=120.0)) is None
        assert scaler.step(self._signals(2, 0.0, ewma=120.0)) == "up"

    def test_integration_add_and_drain_real_devices(self):
        cluster = Cluster(devices=2, replicas=1)
        cluster.start()
        try:
            scaler = Autoscaler(cluster, min_devices=1, max_devices=4,
                                up_streak=1, down_streak=1,
                                cooldown_steps=0)
            hot = self._signals(2, 100.0)
            assert scaler.step(hot) == "up"
            assert cluster.alive_count() == 3
            assert "dev2" in cluster.devices  # fresh id, never reused
            idle = self._signals(3, 0.0)
            assert scaler.step(idle) == "down"
            assert cluster.alive_count() == 2
            assert scaler.snapshot()["ups"] == 1
            assert scaler.snapshot()["downs"] == 1
            assert cluster.stats["added_devices"] == 1
        finally:
            cluster.shutdown(drain=True)

    def test_pick_drain_prefers_shallow_then_newest(self):
        cluster = Cluster(devices=3, replicas=1)
        try:
            scaler = Autoscaler(cluster, min_devices=1)
            # All queues empty → tie on depth → newest id drains.
            assert scaler._pick_drain() == "dev2"
        finally:
            cluster.shutdown(drain=False)

    def test_snapshot_reports_bounds_and_actions(self):
        fake = _FakeCluster(alive=1)
        scaler = self._autoscaler(fake, min_devices=1, max_devices=3)
        scaler.step(self._signals(1, 20.0))
        scaler.step(self._signals(1, 20.0))
        snap = scaler.snapshot()
        assert snap["min_devices"] == 1 and snap["max_devices"] == 3
        assert snap["ups"] == 1 and snap["downs"] == 0
        assert snap["actions"] == [("up", "dev90")]


class TestClusterTenantRollup:
    def test_status_includes_tenant_summary(self):
        cluster = Cluster(devices=2, replicas=1)
        cluster.start()
        try:
            request = SpMVRequest(
                request_id=1, source=MATRIX, scheme="crhcs",
                tenant="acme",
            )
            response = cluster.submit_wait(request, timeout=60.0)
            assert response.ok
            tenants = cluster.status()["tenants"]
            assert tenants["acme"]["completed"] == 1
        finally:
            cluster.shutdown(drain=True)
