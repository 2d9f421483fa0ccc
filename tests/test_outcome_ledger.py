"""Request-outcome books: replay equality and a property test.

Two scripted replays drive the serving engine and the cluster through
every outcome path and compare what they report with golden fixtures
(``fixtures/outcome_replay.json``) recorded from the same scripts on the
code before the outcome ledger existed:

* **engine** — one worker-less engine, stepped (``conftest.HookRunner``
  submits what arrives mid-execution): coalescing onto an executing
  and onto a queued leader, a micro-batch, quota shedding,
  displacement, a full-queue shed, expiry, a malformed request, an
  estimate-tier audit whose exact re-run fails, draining, and a
  non-graceful shutdown;
* **cluster** — three devices behind one closed-loop client, hedging
  effectively off, ``dev1`` crashing after two executions.

A third replay drives solver sessions and the autoscaler on a 3-device
cluster and compares its books with ``fixtures/session_replay.json``:

* **sessions** — one session steps and fetches, one loses its device to
  a crash mid-step, fails over and re-materializes, one stays open; the
  autoscaler adds a device and drains it again; every device left then
  crashes and one more open finds nothing to lease.

Compared: ``stats``, the per-tenant counts, SLO good/bad, the cluster's
``status()`` counters, every telemetry counter's (name, labels, value)
and every telemetry histogram's count.  Latencies are timing, not
books: a replay checks its histogram percentiles against the exact
percentiles of its own responses instead.

The property tests draw random scripts.  A state machine submits to,
steps, drains and shuts down one worker-less engine: the per-tenant
and per-status books agree with the answers after every rule, and at
the end every ticket has one answer and the latency books agree.
Session opens, steps, fetches and closes on a cluster that loses and
gains devices: the session manager's books agree with the handles'.

Record the fixtures with
``PYTHONPATH=src python tests/test_outcome_ledger.py --record`` and
``... --record-sessions``.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import telemetry
from repro.cluster import (
    AutoscaleSignals,
    Autoscaler,
    Cluster,
    parse_fault_plan,
)
from repro.errors import ReproError, SessionError
from repro.matrices.generators import uniform_random
from repro.serving import ServingEngine, SpMVRequest
from repro.serving.slo import OUTCOMES, OutcomeLedger
from repro.sessions import SessionManager
from repro.telemetry.hist import bucket_index, bucket_lower, bucket_upper
from repro.telemetry.summarize import percentile
from repro.tenancy import TenantPolicy

FIXTURE = Path(__file__).with_name("fixtures") / "outcome_replay.json"
SESSION_FIXTURE = FIXTURE.with_name("session_replay.json")

#: Keys a ``hist`` record's attrs add to its labels (the snapshot).
_SNAPSHOT_KEYS = {"buckets", "count", "sum", "min", "max", "growth"}

#: How long the replay's first execution lasts (its hook sleeps): an
#: interactive request waiting on it is certainly over its 50 ms
#: promise, and a batch one certainly under 1 s.
_HOLD_S = 0.15

#: Telemetry counters the fixture predates, with the total each replay
#: emits.  The replays pin them here and drop them from the books, so
#: every count the fixture holds is still compared as recorded.  Remove
#: an entry when the fixture is re-recorded.
_ADDED_COUNTERS = {
    "engine": {"scheduler.crhcs.jumped_holes {}": 39},
    "cluster": {"scheduler.crhcs.jumped_holes {}": 74},
    # One-shot answers lay out no tile; each session's schedule is laid
    # out once, when its first step compiles the replay plan.
    "session": {
        "scheduler.layout.tiles {}": 4,
        "scheduler.layout.rows {}": 54,
    },
}


def _matrix(seed):
    return uniform_random(24, 24, 90, seed=seed)


def _fail():
    raise ReproError("exact re-run failed")


def _label_key(name, labels):
    return f"{name} {json.dumps(labels, sort_keys=True)}"


def _telemetry(records):
    """Counter totals and histogram counts by (name, labels)."""
    counters, hists = {}, {}
    for record in records:
        attrs = record.get("attrs") or {}
        if record["kind"] == "counter":
            key = _label_key(record["name"], attrs)
            counters[key] = counters.get(key, 0) + record["value"]
        elif record["kind"] == "hist":
            labels = {k: v for k, v in attrs.items()
                      if k not in _SNAPSHOT_KEYS}
            key = _label_key(record["name"], labels)
            hists[key] = hists.get(key, 0) + record["value"]
    return counters, hists


def _pin_added_counters(books, replay):
    for key, value in _ADDED_COUNTERS[replay].items():
        assert books["counters"].pop(key, None) == value, key


def _slo_books(summary):
    return {name: {"good": entry["good"], "bad": entry["bad"]}
            for name, entry in summary.items()}


def _tenant_books(summary):
    return {tenant: {key: value for key, value in row.items()
                     if key != "latency"}
            for tenant, row in summary.items()}


def engine_replay(hooks):
    """Step one worker-less engine through every outcome path.

    ``hooks`` is the engine's runner (:class:`conftest.HookRunner`); the
    work submitted while a leader executes is submitted by its hook.
    Returns ``(books, engine, answers)``: the comparable books plus the
    engine and its ``(tenant, response)`` answers for the latency checks.
    """
    m = [_matrix(100 + i) for i in range(12)]
    engine = ServingEngine(
        workers=0, queue_capacity=4, max_batch=2, fidelity="estimate",
        audit_rate=1.0, tenancy=TenantPolicy(quota_fraction=0.5),
    )
    engine.runner = hooks
    tickets, tenants = [], []

    def submit(source, tenant, **kwargs):
        tickets.append(engine.submit(
            SpMVRequest(source, tenant=tenant, **kwargs)
        ))
        tenants.append(tenant)

    def while_m0_executes():
        submit(m[0], "b")            # coalesces onto the executing leader
        submit(m[1], "a")            # queued; micro-batches with m2
        submit(m[2], "a")
        submit(m[3], "a")            # shed: over a's quota of 2 slots
        submit(m[4], "b")
        submit(m[5], "b")
        submit(m[6], "c", priority=3)   # displaces m5; its audit fails
        submit(m[7], "c")            # shed: queue full
        submit(m[8], "b", priority=4, deadline_ms=1.0)  # displaces m4
        submit("no-such-matrix", "c")   # malformed: answered at once
        submit(m[1], "b", priority=2)   # coalesces onto queued m1
        time.sleep(_HOLD_S)          # m8 expires in the queue

    def while_m9_executes():
        submit(m[10], "b")           # queued, then shed by the shutdown
        submit(m[11], "c")
        submit(m[9], "c")            # coalesces onto the executing leader
        engine.drain()
        submit(m[11], "a")           # rejected: engine is draining

    hooks.before(m[0], while_m0_executes)
    hooks.before(m[6], _fail, fidelity="exact")
    hooks.before(m[9], while_m9_executes)
    with telemetry.capture() as cap:
        engine.start()
        submit(m[0], "a")
        while engine.run_once():
            pass
        submit(m[9], "a")
        assert engine.run_once()
        engine.shutdown(drain=False)
    responses = [ticket.result(0) for ticket in tickets]
    counters, hists = _telemetry(cap.records)
    audit = engine.audit_summary()
    books = {
        "statuses": [response.status for response in responses],
        "stats": dict(engine.stats),
        "tenants": _tenant_books(engine.tenant_summary()),
        "slo": _slo_books(engine.slo_summary()),
        "audit": {key: audit.get(key)
                  for key in ("sampled", "violations", "errors")},
        "latency_count": engine.latency_summary()["count"],
        "counters": counters,
        "hists": hists,
    }
    return books, engine, list(zip(tenants, responses))


def cluster_replay():
    """One closed-loop client on a 3-device cluster whose dev1 crashes."""
    m = [_matrix(200 + i) for i in range(5)]
    cluster = Cluster(
        devices=3, replicas=2, device_workers=1, queue_capacity=8,
        hedge_ms=60_000, fidelity="exact",
        fault_plan=parse_fault_plan("crash:1:after=2,seed=7"),
    )
    order = [0, 1, 2, 0, 3, 1, 4, 2, 0, 3, 4, 1, 2, 3]
    with telemetry.capture() as cap:
        cluster.start()
        results = [
            cluster.execute(SpMVRequest(m[index], tenant="ab"[n % 2]))
            for n, index in enumerate(order)
        ]
        results.append(cluster.execute(
            SpMVRequest("no-such-matrix", tenant="b")
        ))
        cluster.shutdown()
    status = cluster.status()
    counters, hists = _telemetry(cap.records)
    books = {
        "statuses": [result.response.status for result in results],
        "devices": [result.device for result in results],
        "stats": status["stats"],
        "engine_stats": {row["device"]: row["engine_stats"]
                         for row in status["devices"]},
        "tenants": status["tenants"],
        "slo": _slo_books(status["slo"]),
        "counters": counters,
        "hists": hists,
    }
    return books, cluster


def session_replay():
    """Sessions and autoscaling on a 3-device cluster whose dev2 crashes.

    Placement is by content hash: session ``a`` leases dev0, ``b`` dev2
    (replica dev1) and ``c`` dev1.  Returns the comparable books.
    """
    m = {"a": _matrix(407), "b": _matrix(401), "c": _matrix(400)}
    cluster = Cluster(
        devices=3, replicas=2, device_workers=1, queue_capacity=8,
        hedge_ms=60_000, fault_plan=parse_fault_plan("crash:2:after=4"),
    )
    manager = SessionManager(cluster=cluster)
    scaler = Autoscaler(
        cluster, min_devices=1, max_devices=4, interval_s=1.0,
        up_depth=4.0, down_depth=0.5, up_latency_ms=0.0,
        up_streak=1, down_streak=1, cooldown_steps=0,
    )

    def open_session(name):
        return manager.open(m[name], tolerance=0.0, max_iterations=9,
                            params={"seed": 0}, tenant=name)

    def signals(depth):
        return AutoscaleSignals(alive=cluster.alive_count(),
                                mean_depth=depth, max_depth=int(depth),
                                max_ewma_ms=0.0)

    sessions = {}
    with telemetry.capture() as cap:
        cluster.start()
        a = sessions["a"] = open_session("a")
        a.step(iterations=3)
        a.step(iterations=3)
        a.result()
        a.close()
        b = sessions["b"] = open_session("b")
        b.step(iterations=3)
        b.step(iterations=3)         # dev2 crashes on its 5th execution
        b.step(iterations=3)
        b.result()
        b.close()
        c = sessions["c"] = open_session("c")
        c.step(iterations=4)         # left open until close_all
        actions = [scaler.step(signals(8.0)), scaler.step(signals(0.0))]
        for device_id, device in sorted(cluster.devices.items()):
            if device.health.alive:
                cluster.report_failure(device_id, crashed=True)
        try:
            open_session("a")
        except SessionError as error:
            failed_open = str(error)
        else:
            failed_open = ""
        manager.close_all()
        cluster.shutdown()
    counters, _hists = _telemetry(cap.records)
    roots = [record["attrs"] for record in cap.records
             if record["kind"] == "span"
             and record["name"] == "session.request"]
    autoscaler = scaler.snapshot()
    return {
        "sessions": {
            name: {"steps": session.steps, "completed": session.completed,
                   "failovers": session.failovers,
                   "rematerializations": session.rematerializations,
                   "device": session.device.device_id}
            for name, session in sessions.items()
        },
        "roots": [
            {key: attrs[key] for key in ("status", "iterations",
                                         "failovers", "rematerializations")}
            for attrs in roots
        ],
        "actions": actions,
        "failed_open": failed_open,
        "manager": manager.snapshot(),
        "autoscaler": {key: autoscaler[key]
                       for key in ("alive", "steps", "ups", "downs")},
        "stats": cluster.stats,
        "counters": counters,
    }


def _width(value):
    index = bucket_index(value)
    return bucket_upper(index) - bucket_lower(index)


def _near_percentile(approx, samples, q):
    """Whether a histogram percentile is within one bucket of the exact
    one.  The exact percentile interpolates between the two order
    statistics around rank ``q/100 * (n - 1)``, and the histogram reads
    the bucket of one of them, so one bucket either side of that pair
    (a single point once samples are dense)."""
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    low = ordered[math.floor(rank)]
    high = ordered[math.ceil(rank)]
    assert low <= percentile(samples, q) <= high
    return (low - _width(low) - 1e-9 <= approx
            <= high + _width(high) + 1e-9)


def _assert_latency_matches(summary, responses):
    served = [response.total_s * 1e3 for response in responses
              if response.ok]
    assert summary["count"] == len(served)
    for q in (50.0, 95.0, 99.0):
        assert _near_percentile(summary[f"p{q:g}_ms"], served, q)
    assert summary["max_ms"] == pytest.approx(max(served))
    assert summary["mean_ms"] == pytest.approx(sum(served) / len(served))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


class TestReplayEquality:
    def test_engine_books_equal_the_recorded_replay(self, golden, hooks):
        books, engine, answers = engine_replay(hooks)
        expected = golden["engine"]
        _pin_added_counters(books, "engine")
        # The one intended difference: a failed audit re-run is an
        # audit error, not a second outcome of a request answered ok.
        assert books["audit"]["errors"] == 1
        assert expected["audit"]["errors"] is None
        books["audit"]["errors"] = None
        assert books["stats"]["errors"] == expected["stats"]["errors"] - 1
        books["stats"]["errors"] += 1
        key = _label_key("serving.final.errors", {})
        assert books["counters"][key] == expected["counters"][key] - 1
        books["counters"][key] += 1
        assert books == expected
        _assert_latency_matches(engine.latency_summary(),
                                [response for _tenant, response in answers])
        for tenant, row in engine.tenant_summary().items():
            mine = [response for owner, response in answers
                    if owner == tenant]
            if row["latency"]["count"]:
                _assert_latency_matches(row["latency"], mine)

    def test_cluster_books_equal_the_recorded_replay(self, golden):
        books, _cluster = cluster_replay()
        _pin_added_counters(books, "cluster")
        assert "failovers" in books["stats"]
        assert books["stats"]["failovers"] >= 1  # the crash was exercised
        assert books == golden["cluster"]

    def test_session_books_equal_the_recorded_replay(self):
        golden = json.loads(SESSION_FIXTURE.read_text())
        books = session_replay()
        _pin_added_counters(books, "session")
        # The fixture predates four fixes, each of which changes counts
        # it holds.  An autoscale drain is no failover:
        assert golden["counters"].pop(
            _label_key("cluster.failover", {"device": "dev3"})) == 1
        # a fetch is no step (sessions a and b fetched once each):
        golden["manager"]["steps"] -= 2
        assert books["manager"]["steps"] == sum(
            row["steps"] for row in books["sessions"].values())
        # an open that leased no device registers no session (the
        # fixture still holds the one ``close_all`` closed, root span
        # included);
        golden["manager"]["opened"] -= 1
        golden["manager"]["closed"] -= 1
        golden["counters"][_label_key("sessions.closed", {})] -= 1
        assert golden["roots"].pop() == {
            "status": "open", "iterations": 0, "failovers": 0,
            "rematerializations": 0,
        }
        # and session work a device served counts as
        # ``cluster.completed``, as one-shot answers do (the fixture
        # holds none of these counters).
        for device, done in {"dev0": 3, "dev1": 4, "dev2": 1}.items():
            key = _label_key("cluster.completed", {"device": device})
            assert key not in golden["counters"]
            golden["counters"][key] = done
        assert books == golden


# -- the books property test --------------------------------------------------

_BOOK_MATRICES = [_matrix(300 + i) for i in range(4)]

#: A deadline that has certainly passed by the push or step after its
#: submit.
_PASSED_MS = 0.5

_session_script = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["open", "add", "remove"]), st.just(0)),
        st.tuples(st.sampled_from(["step", "fetch", "close"]),
                  st.integers(0, 3)),
    ),
    min_size=1, max_size=12,
)


class EngineBooks(RuleBasedStateMachine):
    """Random scripts against one worker-less engine: submits (malformed
    ones included), steps, and once six tickets exist (sooner, most
    submits would be answered at the door) a drain and a shutdown,
    graceful or not.  After every rule each done ticket holds its own
    request's answer (a coalesced follower's, a shed or an expired
    request's: not the leader's) and the ledger's books equal those
    answers; at teardown every ticket is answered.

    A deadline is either far off or certainly passed by the next push or
    step, and burn pressure (which reads latency) is off, so an
    example's outcome depends only on its script.
    """

    @initialize(capacity=st.integers(2, 4), quota=st.sampled_from([0.5, 1.0]))
    def start(self, capacity, quota):
        self.engine = ServingEngine(
            workers=0, queue_capacity=capacity, max_batch=2,
            fidelity="exact",
            tenancy=TenantPolicy(quota_fraction=quota,
                                 burn_shed_threshold=math.inf),
        ).start()
        self.tickets = []

    @rule(burst=st.lists(st.tuples(
        st.sampled_from(["t0", "t1", "t2"]),
        # Index 4 is an unknown matrix: a malformed request.
        st.integers(0, 4),
        st.integers(0, 3),
        st.sampled_from([None, 60_000.0, _PASSED_MS]),
    ), min_size=1, max_size=4))
    @precondition(lambda self: self.engine._state != "stopped")
    def submit(self, burst):
        for tenant, matrix, priority, deadline_ms in burst:
            request = SpMVRequest(
                _BOOK_MATRICES[matrix] if matrix < 4 else "no-such-matrix",
                tenant=tenant, priority=priority, deadline_ms=deadline_ms,
            )
            self.tickets.append((request, self.engine.submit(request)))
            if deadline_ms == _PASSED_MS:
                # A sleep lasts at least this long: by the next push or
                # step the deadline has passed.
                time.sleep(2 * _PASSED_MS * 1e-3)

    @rule()
    def step(self):
        if not self.engine.run_once():
            # Nothing queued: every ticket has its answer.
            assert all(ticket.done() for _request, ticket in self.tickets)

    @precondition(lambda self: len(self.tickets) >= 6
                  and self.engine._state == "running")
    @rule()
    def drain(self):
        self.engine.drain()

    @precondition(lambda self: len(self.tickets) >= 6
                  and self.engine._state != "stopped")
    @rule(graceful=st.booleans())
    def shutdown(self, graceful):
        self.engine.shutdown(drain=graceful)

    @invariant()
    def books_equal_the_answers(self):
        done = [(request, ticket.result(0)) for request, ticket
                in self.tickets if ticket.done()]
        for request, response in done:
            assert response.request_id == request.request_id
        assert self.engine.ledger.status_totals() == dict(
            Counter(response.status for _request, response in done))
        rows = self.engine.ledger.tenant_counts()
        for tenant in {request.tenant for request, _ticket in self.tickets}:
            answered = sum(rows[tenant][key] for key in OUTCOMES.values())
            assert answered == sum(request.tenant == tenant
                                   for request, _response in done)

    def teardown(self):
        self.engine.shutdown(drain=True)
        assert all(ticket.done() for _request, ticket in self.tickets)
        self.books_equal_the_answers()
        served = [ticket.result(0) for _request, ticket in self.tickets
                  if ticket.result(0).ok]
        if served:
            _assert_latency_matches(self.engine.latency_summary(), served)


class TestBooks:
    def test_every_outcome_is_counted_once(self):
        run_state_machine_as_test(EngineBooks, settings=settings(
            max_examples=25, stateful_step_count=20, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ))

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_session_script)
    def test_every_session_event_is_counted_once(self, script):
        """Opens (refused ones included: the limit is two sessions, and
        ``remove`` can leave no device to lease), steps, fetches and
        closes; the manager's books agree with the handles' after every
        operation."""
        cluster = Cluster(devices=1, device_workers=1).start()
        manager = SessionManager(cluster=cluster, max_sessions=2)
        sessions = []
        try:
            for op, index in script:
                try:
                    if op == "open":
                        sessions.append(manager.open(
                            _BOOK_MATRICES[len(sessions) % 4],
                            tolerance=0.0, max_iterations=6,
                            params={"seed": 0},
                        ))
                    elif op == "add":
                        cluster.add_device()
                    elif op == "remove":
                        alive = [device_id for device_id, device
                                 in sorted(cluster.devices.items())
                                 if device.health.alive]
                        if alive:
                            cluster.remove_device(alive[0])
                    elif sessions:
                        session = sessions[index % len(sessions)]
                        if op == "step":
                            session.step(iterations=2)
                        elif op == "fetch":
                            session.result()
                        else:
                            session.close()
                except SessionError:
                    pass
                books = manager.snapshot()
                assert books["opened"] == books["closed"] + books["active"]
                assert books["opened"] == len(sessions)
                for key in ("steps", "failovers", "rematerializations"):
                    assert books[key] == sum(
                        getattr(session, key) for session in sessions)
        finally:
            manager.close_all()
            cluster.shutdown()
        books = manager.snapshot()
        assert books["active"] == 0
        assert books["closed"] == len(sessions)


class TestLedgerThreads:
    def test_concurrent_writers_lose_no_update(self):
        ledger = OutcomeLedger()
        threads, per_thread = 8, 2_000

        def work(index):
            tenant = f"t{index % 3}"
            for n in range(per_thread):
                ledger.admit(tenant, coalesced=bool(n % 2))
                ledger.record(tenant, ("interactive", "batch")[n % 2],
                              "error" if n % 3 == 0 else "ok", 1.0 + n % 7)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        total = threads * per_thread
        totals = ledger.status_totals()
        assert sum(totals.values()) == total
        assert sum(row["accepted"] + row["coalesced"]
                   for row in ledger.tenant_counts().values()) == total
        assert sum(rates["good"] + rates["bad"]
                   for rates in ledger.burn_rates().values()) == total
        assert ledger.latency_summary()["count"] == totals["ok"]


def _write(path: Path, books) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(books, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        from conftest import HookRunner  # this script's own directory

        engine_books, _engine, _answers = engine_replay(HookRunner())
        cluster_books, _cluster = cluster_replay()
        _write(FIXTURE, {"engine": engine_books, "cluster": cluster_books})
    elif sys.argv[1:] == ["--record-sessions"]:
        _write(SESSION_FIXTURE, session_replay())
    else:
        sys.exit("usage: test_outcome_ledger.py --record|--record-sessions")
