"""Solver sessions: byte-identity, residency, failover, fairness, traces."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import Cluster
from repro.cluster.device import DeviceHandle
from repro.cluster.faults import FaultPlan, FaultSpec
from repro.core import ChasonAccelerator
from repro.errors import ConfigError, SessionError
from repro.matrices import generate_named, laplacian_1d
from repro.serving import ResidentStateStore, ServingEngine
from repro.sessions import (
    SessionManager,
    SessionSpec,
    get_program,
    session_iter_batch,
    session_max,
    solver_programs,
)
from repro.solvers import conjugate_gradient, jacobi, power_iteration


def _offline(solver: str, matrix, b, **kwargs):
    accelerator = ChasonAccelerator()
    if solver == "power_iteration":
        return power_iteration(accelerator, matrix, **kwargs)
    if solver == "cg":
        return conjugate_gradient(accelerator, matrix, b, **kwargs)
    return jacobi(accelerator, matrix, b, omega=0.9, **kwargs)


def _session_kwargs(solver: str, b):
    if solver == "power_iteration":
        return {"params": {"seed": 0}}
    if solver == "cg":
        return {"params": {"b": b}}
    return {"params": {"b": b, "omega": 0.9}}


def _assert_identical(offline, result):
    assert result.solution.tobytes() == offline.solution.tobytes()
    assert result.iterations == offline.iterations
    assert result.residual == offline.residual
    assert result.converged == offline.converged
    assert result.history == offline.history
    assert result.accelerator_seconds == offline.accelerator_seconds


@pytest.fixture
def spd_system():
    matrix = laplacian_1d(48)
    b = np.random.default_rng(11).normal(size=48)
    return matrix, b


class TestByteIdentity:
    """``SolverSession.run()`` equals the offline loop, byte for byte."""

    @pytest.mark.parametrize("solver", solver_programs())
    def test_session_matches_offline_solver(self, solver, spd_system):
        matrix, b = spd_system
        offline = _offline(solver, matrix, b,
                           tolerance=1e-6, max_iterations=60)
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with manager.open(
                matrix, solver=solver,
                tolerance=1e-6, max_iterations=60,
                **_session_kwargs(solver, b),
            ) as session:
                result = session.run()
        _assert_identical(offline, result)

    @pytest.mark.parametrize("solver", solver_programs())
    def test_session_survives_mid_run_crash(self, solver, spd_system):
        """Crash the leased device mid-iteration; the failed-over run
        re-materializes and still matches the uninterrupted offline
        solve exactly."""
        matrix, b = spd_system
        offline = _offline(solver, matrix, b,
                           tolerance=1e-8, max_iterations=60)
        with telemetry.capture() as cap, Cluster(devices=3) as cluster:
            manager = SessionManager(cluster=cluster)
            with manager.open(
                matrix, solver=solver,
                tolerance=1e-8, max_iterations=60,
                **_session_kwargs(solver, b),
            ) as session:
                session.step(iterations=3)
                crashed = session.device
                crashed.crash()
                result = session.run()
            assert session.failovers >= 1
            assert session.rematerializations >= 1
            # Counted like a fault plan's crash: removed once, and its
            # engine stopped before the cluster's shutdown.
            assert cluster.stats["removed_devices"] == 1
            assert crashed.engine._state == "stopped"
        assert [(r["attrs"]["device"], r["value"]) for r in cap.records
                if r["kind"] == "counter"
                and r["name"] == "cluster.failover"] == [
            (crashed.device_id, 1)
        ]
        _assert_identical(offline, result)

    def test_seeded_fault_plan_crash_matches_offline(self):
        """A seeded ``REPRO_CLUSTER_FAULTS``-style crash plan kills the
        primary after a few executions; every session still converges to
        the fault-free answer."""
        matrix = laplacian_1d(40)
        offline = _offline("power_iteration", matrix, None,
                           tolerance=1e-10, max_iterations=25)
        plan = FaultPlan(seed=7)
        plan.add(FaultSpec(kind="crash", device_id="dev0", after=5))
        plan.add(FaultSpec(kind="crash", device_id="dev1", after=9))
        with Cluster(devices=3, fault_plan=plan) as cluster:
            manager = SessionManager(cluster=cluster)
            results = []
            for _ in range(3):
                with manager.open(
                    matrix, solver="power_iteration",
                    tolerance=1e-10, max_iterations=25,
                    params={"seed": 0},
                ) as session:
                    results.append(session.run(timeout=30.0))
        for result in results:
            _assert_identical(offline, result)

    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=7),
           max_iterations=st.integers(min_value=1, max_value=12))
    def test_property_stepping_granularity_never_changes_result(
        self, batch, max_iterations
    ):
        """Property: however the iterations are sliced into step
        batches, the session result is the offline loop's result."""
        matrix = laplacian_1d(32)
        offline = _offline("power_iteration", matrix, None,
                           tolerance=1e-9,
                           max_iterations=max_iterations)
        with ServingEngine(workers=1) as engine:
            manager = SessionManager(engine=engine)
            with manager.open(
                matrix, tolerance=1e-9, max_iterations=max_iterations,
                params={"seed": 0},
            ) as session:
                while not session.finished:
                    session.step(iterations=batch)
                result = session.result()
        _assert_identical(offline, result)


class TestResidentStateStore:
    def test_put_get_discard(self):
        store = ResidentStateStore(budget_bytes=1000)
        store.put("a", "state-a", 100)
        assert store.get("a") == "state-a"
        assert store.bytes == 100 and len(store) == 1
        store.discard("a")
        assert store.get("a") is None
        assert store.bytes == 0

    def test_evicts_least_recently_used_over_budget(self):
        store = ResidentStateStore(budget_bytes=250)
        store.put("a", 1, 100)
        store.put("b", 2, 100)
        assert store.get("a") == 1  # bump a: b is now LRU
        store.put("c", 3, 100)     # 300 > 250: evict b
        assert store.get("b") is None
        assert store.get("a") == 1 and store.get("c") == 3
        assert store.snapshot()["evictions"] == 1

    def test_never_evicts_the_only_entry(self):
        store = ResidentStateStore(budget_bytes=10)
        store.put("big", "x", 1000)
        assert store.get("big") == "x"

    def test_reput_replaces_accounting(self):
        store = ResidentStateStore(budget_bytes=1000)
        store.put("a", 1, 100)
        store.put("a", 2, 300)
        assert store.bytes == 300 and len(store) == 1

    def test_eviction_forces_rematerialization_same_result(self):
        """A state budget of one entry makes two interleaved sessions
        evict each other every step; re-materialization keeps both
        byte-identical to their offline runs."""
        matrix = laplacian_1d(32)
        offline = _offline("power_iteration", matrix, None,
                           tolerance=1e-10, max_iterations=20)
        with ServingEngine() as engine:
            engine.resident = ResidentStateStore(budget_bytes=1)
            manager = SessionManager(engine=engine)
            a = manager.open(matrix, tolerance=1e-10, max_iterations=20,
                             params={"seed": 0})
            b = manager.open(matrix, tolerance=1e-10, max_iterations=20,
                             params={"seed": 0})
            while not (a.finished and b.finished):
                if not a.finished:
                    a.step(iterations=2)
                if not b.finished:
                    b.step(iterations=2)
            result_a, result_b = a.result(), b.result()
            assert a.rematerializations + b.rematerializations > 0
            manager.close_all()
        _assert_identical(offline, result_a)
        _assert_identical(offline, result_b)

    def test_reopened_session_reuses_the_compiled_plan(self):
        """On a device store a schedule hit is the stored artifact, so a
        re-opened session replays the plan the first open compiled."""
        matrix = laplacian_1d(32)
        runner = DeviceHandle("dev0").engine.runner
        first = runner.prepare(matrix, "crhcs")
        first.execute(np.ones(matrix.n_cols))
        second = runner.prepare(matrix, "crhcs")
        assert second.scheduled is first.scheduled
        assert second.scheduled.cached_plan is not None

    def test_replay_plan_counts_against_the_budget(self):
        """A budget that holds one session's plan + state, and two
        sessions' states, but not two plans: the second session evicts
        the first, and both still finish byte-identical."""
        matrix = laplacian_1d(32)
        offline = _offline("power_iteration", matrix, None,
                           tolerance=1e-10, max_iterations=20)
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with manager.open(matrix, tolerance=1e-10, max_iterations=20,
                              params={"seed": 0}) as probe:
                probe.result()  # resident, but nothing executed yet
                state_only = engine.resident.bytes
                probe.step(iterations=20)
                entry = engine.resident.get(probe.session_id)
                one_session = engine.resident.bytes
        plan_bytes = entry.prepared.scheduled.cached_plan.nbytes
        assert one_session - state_only >= plan_bytes > 0
        budget = 2 * one_session - plan_bytes
        assert 2 * (one_session - plan_bytes) <= budget < 2 * one_session

        with ServingEngine() as engine:
            engine.resident = ResidentStateStore(budget_bytes=budget)
            manager = SessionManager(engine=engine)
            a = manager.open(matrix, tolerance=1e-10, max_iterations=20,
                             params={"seed": 0})
            b = manager.open(matrix, tolerance=1e-10, max_iterations=20,
                             params={"seed": 0})
            a.step(iterations=1)
            b.step(iterations=1)
            assert engine.resident.snapshot()["evictions"] == 1
            assert engine.resident.get(a.session_id) is None
            while not (a.finished and b.finished):
                if not a.finished:
                    a.step(iterations=4)
                if not b.finished:
                    b.step(iterations=4)
            result_a, result_b = a.result(), b.result()
            assert a.rematerializations > 0 and b.rematerializations > 0
            manager.close_all()
        _assert_identical(offline, result_a)
        _assert_identical(offline, result_b)


class TestConcurrentSessions:
    def test_many_interleaved_sessions_all_converge(self):
        matrix = laplacian_1d(32)
        offline = _offline("power_iteration", matrix, None,
                           tolerance=1e-9, max_iterations=15)
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)

            def solve(_index):
                with manager.open(
                    matrix, tolerance=1e-9, max_iterations=15,
                    params={"seed": 0},
                ) as session:
                    return session.run(timeout=60.0)

            with ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(solve, range(30)))
        assert len(results) == 30
        for result in results:
            _assert_identical(offline, result)

    def test_iterations_are_monotonic_and_in_order(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with manager.open(laplacian_1d(32), tolerance=0.0,
                              max_iterations=20) as session:
                seen = [session.completed]
                while not session.finished:
                    payload = session.step(iterations=3)
                    assert payload["completed"] == session.completed
                    seen.append(session.completed)
        assert seen == sorted(seen)
        assert seen[-1] == 20

    def test_session_limit_is_enforced(self):
        with ServingEngine() as engine:
            matrix = laplacian_1d(16)
            manager = SessionManager(engine=engine, max_sessions=2)
            a = manager.open(matrix)
            b = manager.open(matrix)
            with pytest.raises(SessionError):
                manager.open(matrix)
            manager.close(a)
            c = manager.open(matrix)  # freed slot reusable
            manager.close_all()
            assert manager.active == 0
            assert c.status == "closed"
        del b


class TestSessionErrors:
    def test_unknown_solver_rejected_at_open(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            with pytest.raises(ConfigError, match="unknown solver"):
                manager.open(laplacian_1d(16), solver="sor")

    def test_cg_without_rhs_is_a_structured_error(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            session = manager.open(laplacian_1d(16), solver="cg")
            with pytest.raises(SessionError, match="params"):
                session.step()
            session.close()

    def test_step_after_close_raises(self):
        with ServingEngine() as engine:
            manager = SessionManager(engine=engine)
            session = manager.open(laplacian_1d(16))
            session.close()
            with pytest.raises(SessionError, match="closed"):
                session.step()

    def test_manager_needs_exactly_one_backend(self):
        with pytest.raises(ConfigError):
            SessionManager()
        with pytest.raises(ConfigError):
            SessionManager(engine=object(), cluster=object())


class TestSessionBooks:
    def test_steps_count_step_work_only(self, capsys, monkeypatch):
        """Three 10-iteration sessions at the default batch of 8 take
        two steps each; their fetches are not steps."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_SESSION_ITER_BATCH", raising=False)
        assert main([
            "session", "run", "CollegeMsg", "--sessions", "3",
            "--tolerance", "0", "--max-iterations", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "30 iterations in 6 steps" in out

    def test_a_step_computes_no_fingerprint(self, monkeypatch):
        """Session work never coalesces and is never audited, so the
        engine keys it by its request id: a warm step computes no
        digest."""
        from repro.pipeline.fingerprint import fingerprint as original

        calls = []

        def counted(*parts, **kwargs):
            calls.append(parts[0])
            return original(*parts, **kwargs)

        for loaded in list(sys.modules.values()):
            if getattr(loaded, "fingerprint", None) is original:
                monkeypatch.setattr(loaded, "fingerprint", counted)
        with ServingEngine(workers=1) as engine, \
                SessionManager(engine=engine) as manager:
            session = manager.open(
                laplacian_1d(16), tolerance=0, max_iterations=20
            )
            session.step(iterations=2)
            calls.clear()
            session.step(iterations=2)
            session.step(iterations=2)
        assert calls == []

    def test_a_failed_lease_holds_no_slot(self):
        matrix = laplacian_1d(16)
        with Cluster(devices=1) as cluster:
            cluster.remove_device("dev0")
            manager = SessionManager(cluster=cluster, max_sessions=2)
            for _ in range(3):
                with pytest.raises(SessionError, match="no alive device"):
                    manager.open(matrix)
            assert manager.snapshot()["opened"] == 0
            assert manager.active == 0
            cluster.add_device()
            with manager.open(matrix) as session:
                assert session.device.device_id == "dev1"
                assert manager.active == 1
        assert manager.snapshot()["opened"] == 1
        assert manager.snapshot()["closed"] == 1


class TestSessionTracing:
    def test_one_root_span_per_session_with_iteration_children(self):
        with telemetry.capture() as cap:
            with ServingEngine() as engine:
                manager = SessionManager(engine=engine)
                with manager.open(laplacian_1d(32), tolerance=1e-9,
                                  max_iterations=12) as session:
                    session.run()
            telemetry.get().flush()
        spans = [r for r in cap.records
                 if r["kind"] == "span" and r.get("trace_id")]
        roots = [s for s in spans if not s.get("parent_span_id")]
        assert [s["name"] for s in roots] == ["session.request"]
        root = roots[0]
        assert root["attrs"]["iterations"] == session.completed
        assert root["attrs"]["solver"] == "power_iteration"
        # Every span of the tree resolves to the one root.
        ids = {s["span_id"] for s in spans}
        for span in spans:
            assert span["trace_id"] == root["trace_id"]
            if span.get("parent_span_id"):
                assert span["parent_span_id"] in ids
        iteration_spans = [s for s in spans
                           if s["name"].endswith("solver.iteration")]
        assert len(iteration_spans) == session.completed
        for span in iteration_spans:
            assert "residual" in span["attrs"]

    def test_offline_solver_emits_the_same_iteration_spans(self):
        matrix = laplacian_1d(32)
        with telemetry.capture() as cap:
            offline = power_iteration(ChasonAccelerator(), matrix,
                                      tolerance=1e-9, max_iterations=12)
        spans = [r for r in cap.records
                 if r["kind"] == "span"
                 and r["name"].endswith("solver.iteration")]
        assert len(spans) == offline.iterations
        assert [s["attrs"]["iteration"] for s in spans] == list(
            range(1, offline.iterations + 1)
        )
        assert spans[-1]["attrs"]["residual"] == offline.residual


class TestSessionSpecAndKnobs:
    def test_work_fingerprint_matches_one_shot_requests(self):
        from repro.serving import SpMVRequest

        spec = SessionSpec(source="c52", scheme="crhcs")
        request = SpMVRequest(source="c52", scheme="crhcs")
        assert spec.work_fingerprint() == request.work_fingerprint()

    def test_defaults(self):
        assert session_max() == 4096
        assert session_iter_batch() == 8

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SESSION_MAX", "2")
        monkeypatch.setenv("REPRO_SESSION_ITER_BATCH", "3")
        assert session_max() == 2
        assert session_iter_batch() == 3

    def test_session_knobs_are_registered(self):
        from repro.knobs import RUNTIME_KNOBS

        names = {knob.name for knob in RUNTIME_KNOBS}
        assert {"REPRO_SESSION_MAX", "REPRO_SESSION_STATE_BUDGET",
                "REPRO_SESSION_ITER_BATCH"} <= names

    def test_programs_registry(self):
        assert solver_programs() == ("cg", "jacobi", "power_iteration")
        assert get_program("power").name == "power_iteration"
        with pytest.raises(ConfigError):
            get_program("gauss_seidel")


class TestSessionCLI:
    def test_session_run_command(self, capsys):
        from repro.cli import main

        assert main([
            "session", "run", "CollegeMsg", "--sessions", "2",
            "--tolerance", "1e-6", "--max-iterations", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "sessions 2 opened, 2 closed" in out
        assert "resident store:" in out

    def test_session_run_on_faulty_cluster(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CLUSTER_FAULTS", "crash:0:after=4")
        assert main([
            "session", "run", "CollegeMsg", "--sessions", "3",
            "--devices", "3",
            "--tolerance", "1e-6", "--max-iterations", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "sessions 3 opened, 3 closed" in out
