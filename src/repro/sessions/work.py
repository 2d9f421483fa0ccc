"""The session work items a device executes, and their resident state.

A session never ships its iterate over the wire after opening: the
engine keeps a :class:`ResidentEntry` — the prepared schedule handle
(with the replay plan its first step compiled) plus the solver state —
in its :class:`~repro.serving.resident.ResidentStateStore`, and the
client submits small :class:`StepWork` / :class:`FetchWork` items that
operate on it in place.

Both work items *re-materialize* on a resident miss: if the entry is
gone (new device after a failover, or evicted under the state budget)
or its iteration count disagrees with the client's, the item re-opens
the program from the spec and replays the completed iterations.  The
replay is byte-identical to the lost state — ``open`` is deterministic
and the step math is shared — so a crash mid-run is invisible in the
final result.

Resume safety: injected device faults raise inside the SpMV *before*
any state mutation in a step, so a resident entry always holds an
exactly-``completed``-iterations state; a retried work item either
resumes it directly or replays from scratch, never from a torn state.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

import numpy as np

from .. import telemetry
from ..formats.coo import COOMatrix
from ..pipeline.runner import PipelineRunner, PreparedSpMV
from ..serving.resident import ResidentStateStore
from .programs import get_program
from .spec import SessionSpec

#: Fixed per-entry accounting overhead (schedule handle, dataclass
#: scaffolding) charged against the resident-state budget.
_ENTRY_OVERHEAD = 1024


class ResidentEntry:
    """One session's device-resident half: schedule handle + iterate."""

    __slots__ = ("prepared", "state", "completed")

    def __init__(self, prepared: PreparedSpMV, state: Any,
                 completed: int = 0):
        self.prepared = prepared
        self.state = state
        self.completed = completed


def _state_nbytes(entry: ResidentEntry) -> int:
    """Approximate resident footprint of a session for the budget: its
    solver state plus the replay plan its schedule handle compiled.

    Sessions on one matrix share that plan (a store hit returns the same
    scheduled artifact), so the sum over sessions is an upper bound."""
    total = _ENTRY_OVERHEAD
    plan = entry.prepared.scheduled.cached_plan
    if plan is not None:
        total += plan.nbytes
    state = entry.state
    for field in dataclasses.fields(state):
        value = getattr(state, field.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, COOMatrix):
            total += (value.rows.nbytes + value.cols.nbytes
                      + value.values.nbytes)
        elif isinstance(value, list):
            total += 8 * len(value)
    return total


def _materialize(runner: PipelineRunner, spec: SessionSpec,
                 session_id: str, completed: int) -> ResidentEntry:
    """Re-open the program and replay ``completed`` iterations.

    Pure function of (spec, completed): the replayed state is byte-
    identical to the state an uninterrupted device would hold.
    """
    program = get_program(spec.solver)
    t = telemetry.get()
    name = "session.rematerialize" if completed else "session.open"
    with t.span(
        name,
        session=session_id,
        solver=spec.solver,
        replay=completed,
    ):
        prepared, state = program.open(runner, spec)
        for iteration in range(1, completed + 1):
            program.step(prepared.execute, state, iteration)
    return ResidentEntry(prepared, state, completed)


def _resident(
    runner: PipelineRunner,
    resident: ResidentStateStore,
    spec: SessionSpec,
    session_id: str,
    completed: int,
) -> Tuple[ResidentEntry, bool]:
    """The session's entry, re-materialized on miss or divergence."""
    entry = resident.get(session_id)
    if entry is not None and entry.completed == completed:
        # Re-point the resident handle at the engine's *current* runner:
        # a fault injector (or a crash) may have wrapped it since the
        # schedule was prepared, and injected faults must reach the
        # per-iteration path of already-resident sessions too.
        entry.prepared.runner = runner
        return entry, False
    if entry is not None:
        resident.discard(session_id)
    entry = _materialize(runner, spec, session_id, completed)
    # The very first materialization is the session *opening*, not a
    # recovery — only replays count as re-materializations.
    return entry, completed > 0


class StepWork:
    """Advance a session by up to ``iterations`` solver iterations."""

    kind = "step"

    __slots__ = ("session_id", "spec", "completed", "iterations")

    def __init__(self, session_id: str, spec: SessionSpec,
                 completed: int, iterations: int):
        self.session_id = session_id
        self.spec = spec
        self.completed = completed
        self.iterations = iterations

    def execute(self, runner: PipelineRunner,
                resident: ResidentStateStore) -> Dict[str, Any]:
        spec = self.spec
        entry, rematerialized = _resident(
            runner, resident, spec, self.session_id, self.completed
        )
        program = get_program(spec.solver)
        state = entry.state
        made = 0
        while (
            made < self.iterations
            and entry.completed < spec.max_iterations
            and not state.finished(spec.tolerance)
        ):
            program.step(entry.prepared.execute, state,
                         entry.completed + 1)
            entry.completed += 1
            made += 1
        resident.put(self.session_id, entry, _state_nbytes(entry))
        finished = (
            state.finished(spec.tolerance)
            or entry.completed >= spec.max_iterations
        )
        return {
            "session": self.session_id,
            "kind": self.kind,
            "iterations": made,
            "completed": entry.completed,
            "residual": float(state.residual),
            "finished": finished,
            "converged": state.converged(spec.tolerance),
            "accelerator_seconds": state.accelerator_seconds,
            "rematerialized": rematerialized,
        }


class FetchWork:
    """Pull a session's current solution off the device."""

    kind = "fetch"

    __slots__ = ("session_id", "spec", "completed")

    def __init__(self, session_id: str, spec: SessionSpec,
                 completed: int):
        self.session_id = session_id
        self.spec = spec
        self.completed = completed

    def execute(self, runner: PipelineRunner,
                resident: ResidentStateStore) -> Dict[str, Any]:
        spec = self.spec
        entry, rematerialized = _resident(
            runner, resident, spec, self.session_id, self.completed
        )
        resident.put(self.session_id, entry, _state_nbytes(entry))
        state = entry.state
        return {
            "session": self.session_id,
            "kind": self.kind,
            "completed": entry.completed,
            "solution": state.x.copy(),
            "history": list(state.history),
            "residual": float(state.residual),
            "converged": state.converged(spec.tolerance),
            "accelerator_seconds": state.accelerator_seconds,
            "rematerialized": rematerialized,
        }
