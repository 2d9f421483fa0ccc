"""The replay plan against the unit-by-unit reference walk.

``execute_schedule`` compiles a schedule into a replay plan and runs it;
``repro.sim.reference.execute_reference`` is the PE/PEG/URAM/Reduction/
Rearrange object walk it replaced.  The two must agree bit for bit on
y, on every reported number, on telemetry and on the exception class
a faulty schedule raises.  Solver sessions run the plan on every step,
so they are held to an offline loop driven by the walk as well.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.config import ChasonConfig
from repro.errors import CapacityError, ReproError, ShapeError, SimulationError
from repro.formats.convert import to_coo
from repro.formats.coo import COOMatrix
from repro.matrices import generators, laplacian_1d
from repro.matrices.collection import corpus_specs
from repro.pipeline.runner import PipelineRunner
from repro.scheduling.registry import get_scheme, registered_schemes
from repro.serving import ServingEngine
from repro.sessions import SessionManager, solver_programs
from repro.sim import compile_plan, execute_schedule
from repro.sim.memory import URAM_PARTIAL_SUMS
from repro.sim.reference import execute_reference
from repro.solvers.steps import (
    cg_init,
    cg_step,
    jacobi_init,
    jacobi_split,
    jacobi_step,
    power_init,
    power_step,
)

#: The 30-matrix golden corpus of ``tests/test_passes.py``.
MINI_CORPUS = list(corpus_specs(count=30, nnz_cap=4_000))


def _x(n_cols: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n_cols).astype(np.float32)


def _assert_same_execution(schedule, x, config=None):
    plan = execute_schedule(schedule, x, config)
    walk = execute_reference(schedule, x, config)
    assert plan.y.tobytes() == walk.y.tobytes()
    assert dataclasses.asdict(plan.cycles) == dataclasses.asdict(walk.cycles)
    assert plan.total_macs == walk.total_macs
    assert plan.shared_macs == walk.shared_macs
    assert plan.stats == walk.stats
    return plan


def _outcome(execute, schedule, x, config=None):
    try:
        return execute(schedule, x, config)
    except ReproError as error:
        return error


def _assert_same_outcome(schedule, x, config=None):
    """Same exception class, or (if neither raises) the same result."""
    walk = _outcome(execute_reference, schedule, x, config)
    plan = _outcome(execute_schedule, schedule, x, config)
    if isinstance(walk, ReproError):
        assert type(plan) is type(walk), (plan, walk)
        return type(walk)
    assert not isinstance(plan, ReproError), plan
    assert plan.y.tobytes() == walk.y.tobytes()
    assert plan.stats == walk.stats
    return None


def _small_config(name, small_chason, small_serpens):
    chason = isinstance(get_scheme(name).default_config, ChasonConfig)
    return small_chason if chason else small_serpens


class TestReferenceDifferential:
    def test_six_schemes_registered(self):
        assert len(registered_schemes()) == 6

    @pytest.mark.parametrize(
        "spec", MINI_CORPUS, ids=[f"corpus{s.index}" for s in MINI_CORPUS]
    )
    def test_golden_corpus_every_scheme(self, spec):
        matrix = spec.generate()
        x = _x(matrix.n_cols, spec.index)
        for name in registered_schemes():
            scheme = get_scheme(name)
            schedule = scheme.scheduler(matrix, scheme.default_config)
            _assert_same_execution(schedule, x)

    @pytest.mark.parametrize("name", sorted(registered_schemes()))
    def test_multi_window_small_configs(self, name, small_chason,
                                        small_serpens):
        config = _small_config(name, small_chason, small_serpens)
        matrix = generators.uniform_random(600, 300, 3000, seed=17)
        schedule = get_scheme(name).scheduler(matrix, config)
        assert len(schedule.tiles) == 15
        assert len({tile.row_base for tile in schedule.tiles}) == 3
        execution = _assert_same_execution(schedule, _x(300))
        assert execution.verify(matrix.matvec(_x(300)))

    @pytest.mark.parametrize("span", [1, 2, 3])
    @pytest.mark.parametrize("name", ["crhcs", "crhcs_rebuild"])
    def test_wide_migration_spans(self, name, span, small_chason,
                                  skewed_matrix):
        # crhcs_rebuild keeps part of each row private, and spans above
        # one reduce several donors' sums onto one row: rows merge three
        # or more contributions, so the merge order shows in the bits.
        config = dataclasses.replace(small_chason, migration_span=span)
        for matrix in (skewed_matrix,
                       generators.power_law_rows(600, 300, 3000, seed=17)):
            schedule = get_scheme(name).scheduler(matrix, config)
            execution = _assert_same_execution(schedule, _x(matrix.n_cols))
            assert execution.shared_macs > 0

    @pytest.mark.parametrize("name", sorted(registered_schemes()))
    def test_empty_matrix(self, name):
        scheme = get_scheme(name)
        matrix = COOMatrix.from_entries((8, 8), [])
        schedule = scheme.scheduler(matrix, scheme.default_config)
        execution = _assert_same_execution(schedule, _x(8))
        assert not execution.y.any()

    def test_one_plan_replays_many_vectors(self, small_chason):
        matrix = generators.uniform_random(600, 300, 3000, seed=17)
        schedule = get_scheme("crhcs").scheduler(matrix, small_chason)
        plan = compile_plan(schedule)
        for seed in range(3):
            x = _x(300, seed)
            assert (plan.run(x).y.tobytes()
                    == execute_reference(schedule, x).y.tobytes())

    def test_wrong_x_length_is_a_shape_error_first(self, small_chason):
        matrix = generators.uniform_random(600, 300, 3000, seed=17)
        schedule = get_scheme("crhcs").scheduler(matrix, small_chason)
        with pytest.raises(ShapeError):
            compile_plan(schedule).run(np.zeros(299, dtype=np.float32))
        schedule.tiles[0].col_base = 10_000  # faulty, but x is checked first
        assert _assert_same_outcome(schedule, _x(299)) is ShapeError


class TestFaultParity:
    """Every faulty schedule raises the walk's exception class.

    ``crhcs`` migrates every element of this matrix into a ScUG, and
    ``pe_aware`` migrates none, so the two cover the shared and the
    private datapath.
    """

    @pytest.fixture
    def matrix(self):
        return generators.uniform_random(600, 300, 3000, seed=17)

    @pytest.fixture
    def shared(self, matrix, small_chason):
        return get_scheme("crhcs").scheduler(matrix, small_chason)

    @pytest.fixture
    def private(self, matrix, small_chason):
        return get_scheme("pe_aware").scheduler(matrix, small_chason)

    @pytest.fixture
    def far(self, small_chason):
        """A row offset that lands past every URAM and ScUG bank."""
        return URAM_PARTIAL_SUMS * small_chason.total_pes

    @staticmethod
    def _tiles(schedule):
        return sorted(schedule.tiles, key=lambda t: (t.row_base, t.col_base))

    @staticmethod
    def _slots(tile):
        for grid in tile.grids:
            for cycle, pe, element in grid.iter_elements():
                yield grid, (cycle, pe), element

    def _edit(self, tile, nth=0, **changes):
        """Corrupt one slot of a writable copy of its grid (a schedule's
        grids are read-only) and put the copy in the tile."""
        grid, key, element = list(self._slots(tile))[nth]
        corrupt = copy.deepcopy(grid)
        corrupt.occupied[key] = element._replace(
            **{k: f(element) for k, f in changes.items()}
        )
        tile.grids[tile.grids.index(grid)] = corrupt

    def _raises(self, schedule, expected, config=None):
        assert _assert_same_outcome(schedule, _x(300), config) is expected
        with pytest.raises(expected):
            compile_plan(schedule, config)

    def test_datapaths_cover_private_and_shared(self, shared, private):
        assert execute_schedule(shared, _x(300)).stats["private_values"] == 0
        assert execute_schedule(private, _x(300)).shared_macs == 0

    def test_crhcs_schedule_on_serpens_datapath(self, matrix,
                                                small_serpens):
        schedule = get_scheme("crhcs").scheduler(matrix, small_serpens)
        self._raises(schedule, SimulationError)

    def test_misrouted_private_element(self, private):
        self._edit(self._tiles(private)[4],
                   origin_pe=lambda e: (e.origin_pe + 1) % 4)
        self._raises(private, SimulationError)

    def test_tile_moved_past_last_column(self, shared):
        shared.tiles[-1].col_base = shared.n_cols + 64
        self._raises(shared, SimulationError)

    def test_tile_window_truncated_by_x(self, shared):
        self._tiles(shared)[0].col_base = 280
        self._raises(shared, SimulationError)

    def test_private_address_beyond_uram(self, private, far):
        self._edit(self._tiles(private)[2], row=lambda e: e.row + far)
        self._raises(private, CapacityError)

    def test_shared_address_beyond_scug(self, shared, far):
        self._edit(self._tiles(shared)[2], row=lambda e: e.row + far)
        self._raises(shared, CapacityError)

    def test_negative_address(self, shared):
        self._edit(self._tiles(shared)[2], row=lambda e: -1)
        self._raises(shared, SimulationError)

    def test_source_pe_out_of_range(self, shared):
        self._edit(self._tiles(shared)[1], origin_pe=lambda e: 4)
        self._raises(shared, SimulationError)

    def test_more_donors_than_migration_span(self, shared):
        # Every PE already borrows from its one neighbour; a second
        # donor would need a second ScUG.  (Full 256-row windows, so
        # the re-pointed sums still land inside their window.)
        for tile in self._tiles(shared)[:10]:
            self._edit(tile,
                       origin_channel=lambda e: (e.origin_channel + 1) % 4)
        self._raises(shared, SimulationError)

    def test_row_outside_its_window(self, private, small_chason):
        self._edit(self._tiles(private)[-1],
                   row=lambda e: e.row + 10 * small_chason.total_pes)
        self._raises(private, SimulationError)

    def test_mac_count_mismatch(self, shared):
        next(g for g in shared.tiles[3].grids if g.element_count).length = 0
        self._raises(shared, SimulationError)

    def test_grid_in_the_wrong_peg(self, shared):
        grids = shared.tiles[0].grids
        grids[0], grids[1] = grids[1], grids[0]
        self._raises(shared, SimulationError)

    def test_earliest_fault_wins_capacity_first(self, shared, far):
        tiles = self._tiles(shared)
        self._edit(tiles[1], row=lambda e: e.row + far)
        self._edit(tiles[7], origin_pe=lambda e: 4)
        self._raises(shared, CapacityError)

    def test_earliest_fault_wins_routing_first(self, shared, far):
        tiles = self._tiles(shared)
        self._edit(tiles[1], origin_pe=lambda e: 4)
        self._edit(tiles[7], row=lambda e: e.row + far)
        self._raises(shared, SimulationError)

    def test_router_check_precedes_the_bank_in_one_lane(self, private,
                                                        far):
        # One PE's batch: a capacity fault streams first, a misrouted
        # element later; the PE checks routing before it accumulates.
        slots = list(self._slots(self._tiles(private)[0]))
        grid, (cycle, pe), _ = slots[0]
        later = max(i for i, (g, (c, p), _) in enumerate(slots)
                    if g is grid and p == pe)
        self._edit(self._tiles(private)[0], row=lambda e: e.row + far)
        self._edit(self._tiles(private)[0], later,
                   origin_pe=lambda e: (e.origin_pe + 1) % 4)
        self._raises(private, SimulationError)

    def test_source_pes_checked_in_ascending_order(self, shared, far):
        # Same lane and donor: a capacity fault streams first, but the
        # ScUG checks source PE -1 before it.
        slots = list(self._slots(self._tiles(shared)[0]))
        grid, (cycle, pe), first = slots[0]
        later = max(i for i, (g, (c, p), e) in enumerate(slots)
                    if g is grid and p == pe
                    and e.origin_channel == first.origin_channel)
        self._edit(self._tiles(shared)[0], row=lambda e: e.row + far)
        self._edit(self._tiles(shared)[0], later, origin_pe=lambda e: -1)
        self._raises(shared, SimulationError)

    def test_window_merge_fault_precedes_next_window(self, private, far,
                                                     small_chason):
        tiles = self._tiles(private)
        self._edit(tiles[0],
                   row=lambda e: e.row + 300 * small_chason.total_pes)
        self._edit(tiles[-1], row=lambda e: e.row + far)
        self._raises(private, SimulationError)


class TestPlanArtifact:
    def test_plan_is_read_only(self, small_chason, tiny_matrix):
        plan = compile_plan(get_scheme("crhcs").scheduler(tiny_matrix,
                                                          small_chason))
        for array in (plan.cols, plan.values, plan.banks, plan.outputs,
                      plan.rows):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            plan.values[0] = 1.0
        with pytest.raises(AttributeError):
            plan.nnz = 0
        assert plan.nbytes == sum(
            a.nbytes for a in (plan.cols, plan.values, plan.banks,
                               plan.outputs, plan.rows)
        )

    def test_scheduled_matrix_compiles_once_on_first_execute(self):
        runner = PipelineRunner()
        prepared = runner.prepare(laplacian_1d(32), "crhcs")
        scheduled = prepared.scheduled
        assert scheduled.cached_plan is None
        prepared.execute(_x(32))
        plan = scheduled.cached_plan
        assert plan is not None
        prepared.execute(_x(32, 1))
        assert scheduled.cached_plan is plan

    def test_cached_plan_is_not_a_dataclass_field(self):
        runner = PipelineRunner()
        scheduled = runner.schedule(laplacian_1d(32), "crhcs")
        twin = dataclasses.replace(scheduled)
        runner.execute(scheduled, _x(32))
        assert scheduled.cached_plan is not None and twin.cached_plan is None
        assert not any("plan" in f.name
                       for f in dataclasses.fields(scheduled))
        assert scheduled == twin
        assert repr(scheduled) == repr(twin)


def _reference_solve(solver, matrix, b, tolerance, max_iterations):
    """The offline step loop, every SpMV through the reference walk on
    the schedule a session builds."""
    scheme = get_scheme("crhcs")
    config = scheme.default_config
    runner = PipelineRunner()
    if solver == "jacobi":
        coo = to_coo(matrix)
        diagonal, remainder = jacobi_split(coo)
        schedule = runner.schedule(remainder, scheme, config).schedule
    else:
        schedule = runner.schedule(matrix, scheme, config).schedule

    def spmv(vector):
        return execute_reference(schedule, vector, config)

    if solver == "power_iteration":
        state, step = power_init(matrix.n_cols, seed=0), power_step
    elif solver == "cg":
        state, step = cg_init(spmv, b), cg_step
    else:
        state = jacobi_init(coo, b, omega=0.9, diagonal=diagonal)
        step = jacobi_step
    iterations = 0
    while iterations < max_iterations and not state.finished(tolerance):
        iterations += 1
        step(spmv, state, iterations)
    return state.result(iterations, tolerance)


@pytest.mark.parametrize("solver", solver_programs())
def test_session_matches_reference_walk_loop(solver):
    matrix = laplacian_1d(48)
    b = np.random.default_rng(11).normal(size=48)
    params = {"power_iteration": {"seed": 0}, "cg": {"b": b},
              "jacobi": {"b": b, "omega": 0.9}}[solver]
    expected = _reference_solve(solver, matrix, b, 1e-6, 60)
    with ServingEngine() as engine:
        manager = SessionManager(engine=engine)
        with manager.open(matrix, solver=solver, tolerance=1e-6,
                          max_iterations=60, params=params) as session:
            result = session.run()
    assert result.iterations == expected.iterations > 1
    assert result.solution.tobytes() == expected.solution.tobytes()
    assert result.history == expected.history
    assert result.residual == expected.residual
    assert result.converged == expected.converged
    assert result.accelerator_seconds == expected.accelerator_seconds


def _sim_metrics(records):
    """``(kind, name, channel|fifo) -> value`` of the datapath metrics."""
    return {
        (r["kind"], r["name"], r["attrs"].get("channel",
                                              r["attrs"].get("fifo"))):
        r["value"]
        for r in records
        if r["name"].startswith(("sim.peg.", "sim.fifo."))
    }


class TestTelemetryParity:
    @pytest.mark.parametrize("name", sorted(registered_schemes()))
    def test_counters_and_gauge_match_the_walk(self, name, small_chason,
                                               small_serpens):
        config = _small_config(name, small_chason, small_serpens)
        matrix = generators.uniform_random(600, 300, 3000, seed=17)
        schedule = get_scheme(name).scheduler(matrix, config)
        with telemetry.capture() as walk:
            execute_reference(schedule, _x(300))
        with telemetry.capture() as plan:
            execute_schedule(schedule, _x(300))
        expected = _sim_metrics(walk.records)
        assert len(expected) == 2 * config.sparse_channels + 1
        assert _sim_metrics(plan.records) == expected

    def test_paper_config_corpus_matrix(self):
        scheme = get_scheme("crhcs")
        matrix = MINI_CORPUS[3].generate()
        schedule = scheme.scheduler(matrix, scheme.default_config)
        x = _x(matrix.n_cols)
        with telemetry.capture() as walk:
            execute_reference(schedule, x)
        with telemetry.capture() as plan:
            compile_plan(schedule).run(x)
        assert _sim_metrics(plan.records) == _sim_metrics(walk.records)

    def test_session_steps_nest_sim_execute_under_reexecute(self):
        with telemetry.capture() as cap:
            with ServingEngine() as engine:
                manager = SessionManager(engine=engine)
                with manager.open(laplacian_1d(32), tolerance=0.0,
                                  max_iterations=3,
                                  params={"seed": 0}) as session:
                    session.run()
        executes = [r["name"] for r in cap.records if r["kind"] == "span"
                    and r["name"].rsplit("/", 1)[-1] == "sim.execute"]
        assert len(executes) == 3
        assert all(name.endswith("pipeline.reexecute/sim.execute")
                   for name in executes)
