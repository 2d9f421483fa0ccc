"""Request-outcome books: replay equality and a property test.

Two scripted replays drive the serving engine and the cluster through
every outcome path and compare what they report with golden fixtures
(``fixtures/outcome_replay.json``) recorded from the same scripts on the
code before the outcome ledger existed:

* **engine** — one gated single-worker engine: coalescing onto an
  executing and onto a queued leader, a micro-batch, quota shedding,
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

The property tests draw random scripts.  Submits against one engine:
every ticket gets one answer, and the per-tenant, the per-status and
the latency books agree with what the test received.  Session opens,
steps, fetches and closes on a cluster that loses and gains devices:
the session manager's books agree with the session handles'.

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
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import (
    AutoscaleSignals,
    Autoscaler,
    Cluster,
    parse_fault_plan,
)
from repro.errors import ReproError, SessionError
from repro.matrices.generators import uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.serving import ServingEngine, SpMVRequest
from repro.serving.slo import OutcomeLedger
from repro.sessions import SessionManager
from repro.telemetry.hist import bucket_index, bucket_lower, bucket_upper
from repro.telemetry.summarize import percentile
from repro.tenancy import TenantPolicy

FIXTURE = Path(__file__).with_name("fixtures") / "outcome_replay.json"
SESSION_FIXTURE = FIXTURE.with_name("session_replay.json")

#: Keys a ``hist`` record's attrs add to its labels (the snapshot).
_SNAPSHOT_KEYS = {"buckets", "count", "sum", "min", "max", "growth"}

#: A request held by the gate long enough that an interactive one is
#: certainly over its 50 ms promise and a batch one certainly under 1 s.
_HOLD_S = 0.15

#: Telemetry counters the fixture predates, with the total each replay
#: emits.  The replays pin them here and drop them from the books, so
#: every count the fixture holds is still compared as recorded.  Remove
#: an entry when the fixture is re-recorded.
_ADDED_COUNTERS = {
    "engine": {"scheduler.crhcs.jumped_holes {}": 39},
    "cluster": {"scheduler.crhcs.jumped_holes {}": 74},
}


def _matrix(seed):
    return uniform_random(24, 24, 90, seed=seed)


class _GatedRunner:
    """Holds chosen sources' executions until released; one source's
    exact re-run (the audit) fails."""

    def __init__(self, fail_exact=None):
        self._runner = PipelineRunner()
        self._fail_exact = fail_exact
        self._holds = {}

    def hold(self, source):
        started, release = threading.Event(), threading.Event()
        self._holds[id(source)] = (started, release)
        return started, release

    def analyze(self, source, spec, config, **kwargs):
        hold = self._holds.get(id(source))
        if hold is not None:
            hold[0].set()
            assert hold[1].wait(30.0), "replay never released the runner"
        if source is self._fail_exact and kwargs.get("fidelity") == "exact":
            raise ReproError("exact re-run failed")
        return self._runner.analyze(source, spec, config, **kwargs)


def _wait_done(tickets, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not all(ticket.done() for ticket in tickets):
        assert time.monotonic() < deadline, "tickets never answered"
        time.sleep(0.001)


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


def engine_replay():
    """Drive one gated engine through every outcome path.

    Returns ``(books, engine, answers)``: the comparable books plus the
    engine and its ``(tenant, response)`` answers for the latency checks.
    """
    m = [_matrix(100 + i) for i in range(12)]
    gate = _GatedRunner(fail_exact=m[6])
    engine = ServingEngine(
        workers=1, queue_capacity=4, max_batch=2, fidelity="estimate",
        audit_rate=1.0, tenancy=TenantPolicy(quota_fraction=0.5),
    )
    engine.runner = gate
    tickets, tenants = [], []

    def submit(source, tenant, **kwargs):
        tickets.append(engine.submit(
            SpMVRequest(source, tenant=tenant, **kwargs)
        ))
        tenants.append(tenant)

    with telemetry.capture() as cap:
        engine.start()
        started, release = gate.hold(m[0])
        submit(m[0], "a")            # executes, held by the gate
        assert started.wait(30.0)
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
        release.set()
        _wait_done(tickets)

        started, release = gate.hold(m[9])
        submit(m[9], "a")
        assert started.wait(30.0)
        submit(m[10], "b")           # queued, then shed by the shutdown
        submit(m[11], "c")
        submit(m[9], "c")            # coalesces onto the held leader
        engine.drain()
        submit(m[11], "a")           # rejected: engine is draining
        stopper = threading.Thread(
            target=engine.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        _wait_done([tickets[-4], tickets[-3]])
        release.set()
        stopper.join(30.0)
        assert not stopper.is_alive()
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
    def test_engine_books_equal_the_recorded_replay(self, golden):
        books, engine, answers = engine_replay()
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
        # The fixture predates three fixes, each of which changes counts
        # it holds.  An autoscale drain is no failover:
        assert golden["counters"].pop(
            _label_key("cluster.failover", {"device": "dev3"})) == 1
        # a fetch is no step (sessions a and b fetched once each):
        golden["manager"]["steps"] -= 2
        assert books["manager"]["steps"] == sum(
            row["steps"] for row in books["sessions"].values())
        # and an open that leased no device registers no session (the
        # fixture still holds the one ``close_all`` closed, root span
        # included).
        golden["manager"]["opened"] -= 1
        golden["manager"]["closed"] -= 1
        golden["counters"][_label_key("sessions.closed", {})] -= 1
        assert golden["roots"].pop() == {
            "status": "open", "iterations": 0, "failovers": 0,
            "rematerializations": 0,
        }
        assert books == golden


# -- the books property test --------------------------------------------------

_BOOK_MATRICES = [_matrix(300 + i) for i in range(4)]

_submits = st.lists(
    st.fixed_dictionaries({
        "tenant": st.sampled_from(["t0", "t1", "t2"]),
        # Index 4 is an unknown matrix: a malformed request.
        "matrix": st.integers(0, 4),
        "priority": st.integers(0, 3),
        "deadline_ms": st.sampled_from([None, None, None, 0.5]),
    }),
    min_size=1, max_size=14,
)


_session_script = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["open", "add", "remove"]), st.just(0)),
        st.tuples(st.sampled_from(["step", "fetch", "close"]),
                  st.integers(0, 3)),
    ),
    min_size=1, max_size=12,
)


class TestBooks:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_submits, capacity=st.integers(2, 4),
           graceful=st.booleans(), quota=st.sampled_from([0.5, 1.0]))
    def test_every_outcome_is_counted_once(self, script, capacity,
                                            graceful, quota):
        gate = _GatedRunner()
        engine = ServingEngine(
            workers=1, queue_capacity=capacity, max_batch=2,
            fidelity="exact",
            tenancy=TenantPolicy(quota_fraction=quota),
        )
        engine.runner = gate
        # The first submit's matrix is held, so the rest queue behind it.
        held = _BOOK_MATRICES[script[0]["matrix"] % 4]
        _started, release = gate.hold(held)
        engine.start()
        requests = [
            SpMVRequest(
                _BOOK_MATRICES[draw["matrix"]] if draw["matrix"] < 4
                else "no-such-matrix",
                tenant=draw["tenant"], priority=draw["priority"],
                deadline_ms=draw["deadline_ms"],
            )
            for draw in script
        ]
        tickets = [engine.submit(request) for request in requests]
        tenants = [request.tenant for request in requests]
        if graceful:
            release.set()
            engine.shutdown(drain=True, timeout=30.0)
        else:
            stopper = threading.Thread(
                target=engine.shutdown, kwargs={"drain": False}
            )
            stopper.start()
            release.set()
            stopper.join(30.0)
            assert not stopper.is_alive()
        responses = [ticket.result(30.0) for ticket in tickets]
        assert [response.request_id for response in responses] == \
            [request.request_id for request in requests]

        summary = engine.tenant_summary()
        for tenant in set(tenants):
            row = summary[tenant]
            answered = (row["completed"] + row["shed"] + row["expired"]
                        + row["errors"])
            assert answered == tenants.count(tenant)

        received = {}
        for response in responses:
            received[response.status] = received.get(response.status, 0) + 1
        assert engine.ledger.status_totals() == received

        served = [response for response in responses if response.ok]
        if served:
            _assert_latency_matches(engine.latency_summary(), served)


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
        engine_books, _engine, _answers = engine_replay()
        cluster_books, _cluster = cluster_replay()
        _write(FIXTURE, {"engine": engine_books, "cluster": cluster_books})
    elif sys.argv[1:] == ["--record-sessions"]:
        _write(SESSION_FIXTURE, session_replay())
    else:
        sys.exit("usage: test_outcome_ledger.py --record|--record-sessions")
