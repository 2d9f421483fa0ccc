#!/usr/bin/env python
"""Solver-session gate: device-resident iteration vs one-shot requests.

Five phases:

* **one-shot** — the pre-session client: every power-iteration step is
  submitted as its own one-shot :class:`SpMVRequest` and dispatched the
  way the serving throughput gate's serial arm does — a fresh,
  store-less :class:`PipelineRunner` per request — so each iteration
  pays the full load + fingerprint + schedule round trip before its
  single simulate step;
* **session** — the same solve through a :class:`SolverSession`: routed
  once, schedule built once at open, iterate device-resident, every
  step re-executing only the simulate stage;
* **byte-identity** — ``session.run()`` against the offline solver loop
  for every registered solver program;
* **crash-failover** — sessions on a fault-injected cluster that loses
  two of three devices mid-run; every surviving session must converge
  to the byte-identical fault-free answer;
* **replay** — the functional simulator alone: the timing matrix's
  schedule through the unit-by-unit reference walk, compiled into a
  replay plan, and replayed from the cached plan; then a corpus sweep
  (every registered scheme) of one-shot ``execute_schedule`` (compile
  + run) against the walk.

The gate (CI) requires the session's amortized per-iteration latency —
wall clock over the whole open/step/fetch lifecycle divided by
iterations — to beat the one-shot client's by ``--gate`` × (default
5.0), byte-identical results everywhere, and at least one observed
failover in the crash phase.  The replay phase requires the cached
plan to run at least 10× faster than the walk, one-shot compile + run
to be no slower than the walk on the timing matrix and over the corpus,
and bit-identical outputs.

The timing matrix is ``mycielskian12``: dense enough that CrHCS
schedule construction dominates a single simulate step, which is
exactly the regime sessions exist for.

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_sessions.py [--quick]

Writes ``BENCH_sessions.json`` plus its run manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster import Cluster
from repro.cluster.faults import FaultPlan, FaultSpec
from repro.core import ChasonAccelerator
from repro.matrices import laplacian_1d
from repro.matrices.collection import corpus_specs
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme, registered_schemes
from repro.serving import ServingEngine, SpMVRequest
from repro.sessions import SessionManager, solver_programs
from repro.sim import compile_plan, execute_schedule
from repro.sim.reference import execute_reference
from repro.solvers import conjugate_gradient, jacobi, power_iteration
from repro.solvers.steps import power_init, power_step
from repro.telemetry import write_manifest

DEFAULT_GATE = 5.0
#: Cached replay plan vs reference walk, per execution.
REPLAY_GATE = 10.0
TIMING_MATRIX = "mycielskian12"


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


def _identical(offline, result) -> bool:
    return (
        result.solution.tobytes() == offline.solution.tobytes()
        and result.iterations == offline.iterations
        and result.residual == offline.residual
        and result.converged == offline.converged
        and result.history == offline.history
    )


def run_oneshot(iterations: int):
    """Power iteration, one one-shot ``SpMVRequest`` per step.

    The solver state lives client-side; every iteration builds a fresh
    request for the same (matrix, scheme) work and dispatches it
    store-less — no cross-request artifact reuse, exactly the serial
    arm of ``bench_serving_throughput`` — then advances one step.
    """
    state = None
    wall = 0.0
    for iteration in range(1, iterations + 1):
        request = SpMVRequest(TIMING_MATRIX, scheme="crhcs")
        began = time.perf_counter()
        spec = get_scheme(request.scheme)
        config = request.resolve_config(spec)
        prepared = PipelineRunner().prepare(request.source, spec, config)
        if state is None:
            state = power_init(prepared.loaded.matrix.n_cols, seed=0)
        power_step(prepared.execute, state, iteration)
        wall += time.perf_counter() - began
    return wall, state


def run_session(iterations: int):
    """The same solve through a session: open once, step to the cap."""
    with ServingEngine() as engine:
        manager = SessionManager(engine=engine)
        began = time.perf_counter()
        with manager.open(
            TIMING_MATRIX, solver="power_iteration",
            tolerance=0.0, max_iterations=iterations,
            params={"seed": 0},
        ) as session:
            result = session.run(timeout=600.0)
        wall = time.perf_counter() - began
        stats = dict(manager.snapshot())
    return wall, result, stats


def run_byte_identity():
    """``session.run()`` vs the offline loop, every solver program."""
    matrix = laplacian_1d(48)
    b = np.random.default_rng(11).normal(size=48)
    outcomes = {}
    with ServingEngine() as engine:
        manager = SessionManager(engine=engine)
        for solver in solver_programs():
            offline = _offline(solver, matrix, b,
                               tolerance=1e-6, max_iterations=60)
            with manager.open(
                matrix, solver=solver,
                tolerance=1e-6, max_iterations=60,
                **_session_kwargs(solver, b),
            ) as session:
                result = session.run(timeout=600.0)
            outcomes[solver] = {
                "identical": _identical(offline, result),
                "iterations": result.iterations,
                "converged": result.converged,
            }
    return outcomes


def run_crash_failover(sessions: int):
    """Two of three devices crash mid-run; survivors must not notice.

    Every session's result is compared byte-for-byte against the
    offline (fault-free) loop — failover re-materializes the resident
    state deterministically, so a crash is invisible in the answer.
    """
    matrix = laplacian_1d(40)
    offline = _offline("power_iteration", matrix, None,
                       tolerance=1e-10, max_iterations=25)
    plan = FaultPlan(seed=7)
    plan.add(FaultSpec(kind="crash", device_id="dev0", after=5))
    plan.add(FaultSpec(kind="crash", device_id="dev1", after=9))
    identical = 0
    with Cluster(devices=3, fault_plan=plan) as cluster:
        manager = SessionManager(cluster=cluster)
        for _ in range(sessions):
            with manager.open(
                matrix, solver="power_iteration",
                tolerance=1e-10, max_iterations=25,
                params={"seed": 0},
            ) as session:
                result = session.run(timeout=600.0)
            if _identical(offline, result):
                identical += 1
        stats = dict(manager.snapshot())
    return {
        "sessions": sessions,
        "identical_to_fault_free": identical,
        "failovers": stats["failovers"],
        "rematerializations": stats["rematerializations"],
    }


def _best(fn, repeats: int):
    """``(seconds, result)`` of the fastest of ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        began = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - began)
    return best, result


def run_replay(quick: bool):
    """Reference walk vs replay plan, on the timing matrix and a corpus.

    Times are the best of several calls, so a slow spell of a shared
    host inflates neither side.
    """
    repeats = 3
    spec = get_scheme("crhcs")
    schedule = PipelineRunner().schedule(
        TIMING_MATRIX, spec, spec.default_config
    ).schedule
    x = np.random.default_rng(0).normal(size=schedule.n_cols)
    x = x.astype(np.float32)
    walk_s, walk = _best(lambda: execute_reference(schedule, x), repeats)
    compile_s, plan = _best(lambda: compile_plan(schedule), repeats)
    run_s, replayed = _best(lambda: plan.run(x), 5 * repeats)
    oneshot_s, oneshot = _best(lambda: execute_schedule(schedule, x),
                               repeats)
    identical = (replayed.y.tobytes() == walk.y.tobytes()
                 == oneshot.y.tobytes())

    corpus_walk_s = corpus_oneshot_s = 0.0
    cases = 0
    for corpus_spec in corpus_specs(count=8 if quick else 30,
                                    nnz_cap=4_000):
        matrix = corpus_spec.generate()
        vector = np.random.default_rng(corpus_spec.index).normal(
            size=matrix.n_cols).astype(np.float32)
        for name in registered_schemes():
            scheme = get_scheme(name)
            tiled = scheme.scheduler(matrix, scheme.default_config)
            seconds, walked = _best(
                lambda: execute_reference(tiled, vector), 1)
            corpus_walk_s += seconds
            seconds, replayed = _best(
                lambda: execute_schedule(tiled, vector), 1)
            corpus_oneshot_s += seconds
            identical &= replayed.y.tobytes() == walked.y.tobytes()
            cases += 1
    return {
        "walk_ms": round(1e3 * walk_s, 3),
        "compile_ms": round(1e3 * compile_s, 3),
        "cached_run_ms": round(1e3 * run_s, 3),
        "oneshot_ms": round(1e3 * oneshot_s, 3),
        "cached_speedup": round(walk_s / run_s, 2),
        "plan_bytes": plan.nbytes,
        "corpus_cases": cases,
        "corpus_walk_s": round(corpus_walk_s, 3),
        "corpus_oneshot_s": round(corpus_oneshot_s, 3),
        "identical": identical,
    }


def run(quick: bool, gate: float, output: Path) -> int:
    session_iters = 14 if quick else 30
    oneshot_iters = 2 if quick else 4
    failover_sessions = 2 if quick else 4

    # Warm imports/generators outside both timed phases.
    PipelineRunner().load(TIMING_MATRIX)

    oneshot_s, oneshot_state = run_oneshot(oneshot_iters)
    oneshot_ms = 1e3 * oneshot_s / oneshot_iters
    print(
        f"one-shot: {oneshot_iters} iterations, "
        f"{oneshot_ms:8.2f} ms/iteration"
    )

    session_s, session_result, session_stats = run_session(session_iters)
    session_ms = 1e3 * session_s / session_result.iterations
    speedup = oneshot_ms / session_ms
    print(
        f"session:  {session_result.iterations} iterations, "
        f"{session_ms:8.2f} ms/iteration  (amortized over "
        f"open + steps + fetch)  speedup {speedup:.2f}x"
    )

    # The two clients run the same math: after min(iters) iterations
    # their residual histories must agree exactly.
    shared = min(oneshot_iters, session_result.iterations)
    math_identical = (
        [float(v) for v in oneshot_state.history[:shared]]
        == [float(v) for v in session_result.history[:shared]]
    )
    print(f"shared {shared}-iteration history identical: {math_identical}")

    byte_identity = run_byte_identity()
    for solver, outcome in sorted(byte_identity.items()):
        print(
            f"byte-identity {solver}: "
            f"{'identical' if outcome['identical'] else 'MISMATCH'} "
            f"({outcome['iterations']} iterations, "
            f"converged={outcome['converged']})"
        )

    failover = run_crash_failover(failover_sessions)
    print(
        f"crash-failover: {failover['identical_to_fault_free']}/"
        f"{failover['sessions']} sessions byte-identical to the "
        f"fault-free run, {failover['failovers']} failovers, "
        f"{failover['rematerializations']} re-materializations"
    )

    replay = run_replay(quick)
    print(
        f"replay: walk {replay['walk_ms']:.2f} ms, compile "
        f"{replay['compile_ms']:.2f} ms, cached run "
        f"{replay['cached_run_ms']:.3f} ms ({replay['cached_speedup']:.1f}x), "
        f"one-shot {replay['oneshot_ms']:.2f} ms; corpus of "
        f"{replay['corpus_cases']}: walk {replay['corpus_walk_s']:.2f} s, "
        f"one-shot {replay['corpus_oneshot_s']:.2f} s; identical "
        f"{replay['identical']}"
    )

    payload = {
        "quick": quick,
        "matrix": TIMING_MATRIX,
        "gate": gate,
        "oneshot_iterations": oneshot_iters,
        "oneshot_ms_per_iteration": round(oneshot_ms, 3),
        "session_iterations": session_result.iterations,
        "session_ms_per_iteration": round(session_ms, 3),
        "speedup": round(speedup, 4),
        "shared_history_identical": math_identical,
        "session_stats": session_stats,
        "byte_identity": byte_identity,
        "crash_failover": failover,
        "replay": replay,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    manifest = write_manifest(
        output, extra={"bench": "solver_sessions", "quick": quick},
    )
    print(f"wrote {manifest}")

    failures = []
    if speedup < gate:
        failures.append(
            f"amortized speedup {speedup:.2f}x below the "
            f"{gate:.1f}x gate"
        )
    if not math_identical:
        failures.append("session and one-shot residual histories diverged")
    for solver, outcome in sorted(byte_identity.items()):
        if not outcome["identical"]:
            failures.append(
                f"{solver} session diverged from the offline solver"
            )
    if failover["identical_to_fault_free"] != failover["sessions"]:
        failures.append(
            f"only {failover['identical_to_fault_free']}/"
            f"{failover['sessions']} sessions survived failover "
            f"byte-identical"
        )
    if not failover["failovers"]:
        failures.append("crash phase observed no failovers")
    if replay["cached_speedup"] < REPLAY_GATE:
        failures.append(
            f"cached replay only {replay['cached_speedup']:.1f}x faster "
            f"than the reference walk (gate {REPLAY_GATE:.0f}x)"
        )
    if replay["oneshot_ms"] > replay["walk_ms"]:
        failures.append("one-shot compile + run slower than the walk")
    if replay["corpus_oneshot_s"] > replay["corpus_walk_s"]:
        failures.append(
            "one-shot compile + run slower than the walk over the corpus"
        )
    if not replay["identical"]:
        failures.append("replay plan diverged from the reference walk")
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
        help="minimum one-shot/session per-iteration latency ratio",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_sessions.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.gate, args.output)


if __name__ == "__main__":
    sys.exit(main())
