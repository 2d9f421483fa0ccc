"""Error-path and cross-module consistency coverage."""

import copy
import logging

import numpy as np
import pytest

from repro import ChasonAccelerator, SerpensAccelerator, telemetry
from repro.cluster import cluster_hedge_ms
from repro.serving import ServingEngine, serve_max_batch, serve_worker_count
from repro.config import ChasonConfig, SerpensConfig
from repro.errors import (
    ReproError,
    SchedulingError,
    ShapeError,
    SimulationError,
)
from repro.formats.coo import COOMatrix
from repro.matrices import generators
from repro.scheduling import schedule_crhcs, schedule_pe_aware
from repro.scheduling.base import ChannelGrid, ScheduledElement
from repro.sim.engine import execute_schedule
from repro.sim.rearrange import RearrangeUnit
from repro.sim.peg import ProcessingElementGroup


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in (
            "ConfigError", "FormatError", "ShapeError", "SchedulingError",
            "RawHazardError", "CapacityError", "SimulationError",
            "DatasetError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_shape_error_is_format_error(self):
        from repro.errors import FormatError, ShapeError

        assert issubclass(ShapeError, FormatError)

    def test_raw_hazard_is_scheduling_error(self):
        from repro.errors import RawHazardError

        assert issubclass(RawHazardError, SchedulingError)


class TestEngineErrorPaths:
    def test_corrupted_schedule_detected_by_verify(self, small_chason,
                                                   tiny_matrix, rng):
        schedule = schedule_crhcs(tiny_matrix, small_chason)
        # Corrupt one value of a writable copy of a grid (the schedule's
        # own grids are read-only) and put the copy in the tile.
        tile, index = next(
            (t, i) for t in schedule.tiles
            for i, g in enumerate(t.grids) if g.occupied
        )
        grid = copy.deepcopy(tile.grids[index])
        key = next(iter(grid.occupied))
        element = grid.occupied[key]
        grid.occupied[key] = ScheduledElement(
            element.row, element.col, element.value + 1.0,
            element.origin_channel, element.origin_pe,
        )
        tile.grids[index] = grid
        x = rng.normal(size=tiny_matrix.n_cols).astype(np.float32)
        execution = execute_schedule(schedule, x)
        assert not execution.verify(tiny_matrix.matvec(x))

    def test_rearrange_rejects_wrong_peg_count(self, small_chason):
        rearrange = RearrangeUnit(small_chason)
        with pytest.raises(SimulationError):
            rearrange.merge([], {}, 0, 4, np.zeros(4))

    def test_rearrange_rejects_out_of_window_row(self, small_chason):
        pegs = [
            ProcessingElementGroup(c, small_chason)
            for c in range(small_chason.sparse_channels)
        ]
        pegs[0].load_x_window(np.ones(4, dtype=np.float32))
        # Row 32 is outside a 4-row window.
        pegs[0].pes[0].process(ScheduledElement(32, 0, 1.0, 0, 0))
        with pytest.raises(SimulationError):
            RearrangeUnit(small_chason).merge(pegs, {}, 0, 4, np.zeros(64))

    def test_double_placement_rejected(self):
        grid = ChannelGrid(channel_id=0, pes=2)
        grid.place(0, 0, ScheduledElement(0, 0, 1.0, 0, 0))
        with pytest.raises(SchedulingError):
            grid.place(0, 0, ScheduledElement(2, 0, 1.0, 0, 0))


class TestAcceleratorConsistency:
    def test_analyze_and_run_agree_on_cycles(self, small_chason,
                                             skewed_matrix, rng):
        chason = ChasonAccelerator(small_chason)
        schedule = chason.schedule(skewed_matrix)
        analyzed = chason.analyze(skewed_matrix, schedule=schedule)
        x = rng.normal(size=skewed_matrix.n_cols).astype(np.float32)
        _, executed = chason.run(skewed_matrix, x, schedule=schedule)
        assert analyzed.total_cycles == executed.total_cycles
        assert analyzed.latency_ms == pytest.approx(executed.latency_ms)

    def test_same_matrix_same_report(self, small_serpens, skewed_matrix):
        serpens = SerpensAccelerator(small_serpens)
        first = serpens.analyze(skewed_matrix)
        second = serpens.analyze(skewed_matrix)
        assert first == second  # scheduling is deterministic

    def test_frequency_is_only_latency_difference(self, skewed_matrix):
        # Same schedule shape on both clocks: latency ratio = clock ratio.
        slow = ChasonAccelerator(ChasonConfig(frequency_mhz=150.5))
        fast = ChasonAccelerator(ChasonConfig(frequency_mhz=301.0))
        slow_report = slow.analyze(skewed_matrix)
        fast_report = fast.analyze(skewed_matrix)
        assert slow_report.total_cycles == fast_report.total_cycles
        assert slow_report.latency_ms == pytest.approx(
            2 * fast_report.latency_ms
        )

    def test_traffic_accounting_is_word_aligned(self, small_serpens,
                                                skewed_matrix):
        schedule = schedule_pe_aware(skewed_matrix, small_serpens)
        word_bytes = small_serpens.pes_per_channel * 8
        assert schedule.traffic_bytes % word_bytes == 0
        assert schedule.traffic_bytes == (
            schedule.words_per_channel
            * small_serpens.sparse_channels
            * word_bytes
        )


class TestWindowingConsistency:
    def test_tiled_metrics_sum_over_tiles(self, small_chason):
        matrix = generators.uniform_random(600, 300, 2400, seed=91)
        schedule = schedule_crhcs(matrix, small_chason)
        assert len(schedule.tiles) > 1
        assert schedule.nnz == sum(t.nnz for t in schedule.tiles)
        assert schedule.stream_cycles == sum(
            t.stream_cycles for t in schedule.tiles
        )
        assert schedule.total_stalls == sum(
            t.total_stalls for t in schedule.tiles
        )

    def test_row_partitioning_respects_capacity(self, small_chason, rng):
        matrix = generators.uniform_random(600, 60, 1200, seed=92)
        schedule = schedule_crhcs(matrix, small_chason,
                                  max_rows_per_pass=100)
        assert all(t.row_base % 100 == 0 for t in schedule.tiles)
        x = rng.normal(size=60).astype(np.float32)
        execution = execute_schedule(schedule, x)
        # Note: executing with a non-default row window still verifies
        # because the engine groups tiles by their actual row bases.
        assert execution.verify(matrix.matvec(x))

    def test_empty_matrix_report(self, small_chason):
        matrix = COOMatrix.from_entries((8, 8), [])
        report = ChasonAccelerator(small_chason).analyze(matrix)
        assert report.nnz == 0
        assert report.latency_ms > 0  # invocation floor
        assert report.underutilization_pct == 0.0


class TestRuntimeKnobFallbacks:
    """Invalid ``REPRO_*`` values warn once and fall back, never raise."""

    @pytest.fixture(autouse=True)
    def _fresh_warnings(self):
        telemetry.reset_warnings()
        yield
        telemetry.reset_warnings()

    def test_invalid_serve_batch_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_SERVE_BATCH", "a lot")
        with caplog.at_level(logging.WARNING):
            assert serve_max_batch() == 8
            assert serve_max_batch() == 8  # second parse: silent
        assert caplog.text.count("REPRO_SERVE_BATCH") == 1

    def test_invalid_serve_workers_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "4.5")
        with caplog.at_level(logging.WARNING):
            assert serve_worker_count() == 4
            assert serve_worker_count() == 4
        assert caplog.text.count("REPRO_SERVE_WORKERS") == 1

    def test_invalid_cluster_hedge_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_CLUSTER_HEDGE_MS", "soon")
        with caplog.at_level(logging.WARNING):
            assert cluster_hedge_ms() == 100
            assert cluster_hedge_ms() == 100
        assert caplog.text.count("REPRO_CLUSTER_HEDGE_MS") == 1

    def test_fallback_counts_in_telemetry_warning_bucket(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_BATCH", "banana")
        with telemetry.capture() as cap:
            assert serve_max_batch() == 8
        warnings = [r for r in cap.records
                    if r["name"] == "telemetry.warnings"]
        assert len(warnings) == 1
        assert warnings[0]["attrs"]["key"] == "invalid_serve_batch"

    def test_engine_survives_garbage_knob_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "??")
        monkeypatch.setenv("REPRO_SERVE_BATCH", "-")
        engine = ServingEngine()
        assert engine.workers == 4 and engine.max_batch == 8

    def test_invalid_audit_rate_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.estimator.fidelity import (
            DEFAULT_AUDIT_RATE,
            resolve_audit_rate,
        )

        monkeypatch.setenv("REPRO_AUDIT_RATE", "sometimes")
        with caplog.at_level(logging.WARNING):
            assert resolve_audit_rate() == DEFAULT_AUDIT_RATE
            assert resolve_audit_rate() == DEFAULT_AUDIT_RATE
        assert caplog.text.count("REPRO_AUDIT_RATE") == 1

    def test_non_finite_audit_rate_falls_back(self, monkeypatch, caplog):
        from repro.estimator.fidelity import (
            DEFAULT_AUDIT_RATE,
            resolve_audit_rate,
        )

        for raw in ("nan", "inf", "-inf"):
            telemetry.reset_warnings()
            monkeypatch.setenv("REPRO_AUDIT_RATE", raw)
            with caplog.at_level(logging.WARNING):
                assert resolve_audit_rate() == DEFAULT_AUDIT_RATE

    def test_out_of_range_audit_rate_clamps_and_warns(
        self, monkeypatch, caplog
    ):
        from repro.estimator.fidelity import resolve_audit_rate

        monkeypatch.setenv("REPRO_AUDIT_RATE", "5.0")
        with caplog.at_level(logging.WARNING):
            assert resolve_audit_rate() == 1.0
        assert "clamping" in caplog.text
        telemetry.reset_warnings()
        monkeypatch.setenv("REPRO_AUDIT_RATE", "-0.25")
        with caplog.at_level(logging.WARNING):
            assert resolve_audit_rate() == 0.0

    def test_invalid_tenant_weights_fall_back_and_warn_once(
        self, monkeypatch, caplog
    ):
        from repro.tenancy import parse_tenant_weights

        for raw in ("alice=3", "alice:heavy", "alice:-1", "alice:0",
                    "alice:nan", ":3"):
            telemetry.reset_warnings()
            monkeypatch.setenv("REPRO_TENANT_WEIGHTS", raw)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert parse_tenant_weights() == {}
                assert parse_tenant_weights() == {}  # second parse: silent
            assert caplog.text.count("REPRO_TENANT_WEIGHTS") == 1

    def test_valid_tenant_weights_parse(self, monkeypatch):
        from repro.tenancy import parse_tenant_weights

        monkeypatch.setenv("REPRO_TENANT_WEIGHTS", " alice:3, bob:0.5 ")
        assert parse_tenant_weights() == {"alice": 3.0, "bob": 0.5}

    def test_invalid_tenant_quota_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.tenancy import tenant_quota_fraction

        monkeypatch.setenv("REPRO_TENANT_QUOTA", "half")
        with caplog.at_level(logging.WARNING):
            assert tenant_quota_fraction() == 1.0
            assert tenant_quota_fraction() == 1.0
        assert caplog.text.count("REPRO_TENANT_QUOTA") == 1

    def test_invalid_burn_shed_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.tenancy import tenant_burn_shed_threshold

        monkeypatch.setenv("REPRO_TENANT_BURN_SHED", "hot")
        with caplog.at_level(logging.WARNING):
            assert tenant_burn_shed_threshold() == 1.0
            assert tenant_burn_shed_threshold() == 1.0
        assert caplog.text.count("REPRO_TENANT_BURN_SHED") == 1

    def test_invalid_autoscale_knobs_fall_back_and_warn_once(
        self, monkeypatch, caplog
    ):
        from repro.cluster.autoscaler import (
            autoscale_interval_s,
            autoscale_max_devices,
            autoscale_min_devices,
        )

        cases = (
            ("REPRO_AUTOSCALE_MIN", "few", autoscale_min_devices, 1),
            ("REPRO_AUTOSCALE_MAX", "4.5", autoscale_max_devices, 8),
            ("REPRO_AUTOSCALE_INTERVAL", "fast", autoscale_interval_s,
             1.0),
        )
        for env, raw, fn, default in cases:
            telemetry.reset_warnings()
            monkeypatch.setenv(env, raw)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert fn() == default
                assert fn() == default
            assert caplog.text.count(env) == 1
            monkeypatch.delenv(env)

    def test_autoscale_bounds_clamp_instead_of_raising(self, monkeypatch):
        from repro.cluster.autoscaler import (
            autoscale_interval_s,
            autoscale_min_devices,
        )

        monkeypatch.setenv("REPRO_AUTOSCALE_MIN", "-3")
        assert autoscale_min_devices() == 1
        monkeypatch.setenv("REPRO_AUTOSCALE_INTERVAL", "0")
        assert autoscale_interval_s() == 0.01

    def test_tenancy_knobs_are_registered(self):
        from repro.knobs import knob

        for name in (
            "REPRO_TENANT_WEIGHTS", "REPRO_TENANT_QUOTA",
            "REPRO_TENANT_BURN_SHED", "REPRO_AUTOSCALE_MIN",
            "REPRO_AUTOSCALE_MAX", "REPRO_AUTOSCALE_INTERVAL",
            "REPRO_AUTOSCALE_UP_DEPTH", "REPRO_AUTOSCALE_DOWN_DEPTH",
            "REPRO_AUTOSCALE_UP_LATENCY_MS",
        ):
            assert knob(name).subsystem in ("tenancy", "autoscale")

    def test_audit_rate_fallback_counts_in_warning_bucket(
        self, monkeypatch
    ):
        from repro.estimator.fidelity import resolve_audit_rate

        monkeypatch.setenv("REPRO_AUDIT_RATE", "banana")
        with telemetry.capture() as cap:
            resolve_audit_rate()
        warnings = [r for r in cap.records
                    if r["name"] == "telemetry.warnings"]
        assert len(warnings) == 1
        assert warnings[0]["attrs"]["key"] == "invalid_audit_rate"

    def test_explicit_audit_rate_beats_garbage_environment(
        self, monkeypatch
    ):
        from repro.estimator.fidelity import resolve_audit_rate

        monkeypatch.setenv("REPRO_AUDIT_RATE", "??")
        assert resolve_audit_rate(0.25) == 0.25


class TestSessionKnobFallbacks:
    """Invalid ``REPRO_SESSION_*`` values warn once and fall back."""

    @pytest.fixture(autouse=True)
    def _fresh_warnings(self):
        telemetry.reset_warnings()
        yield
        telemetry.reset_warnings()

    def test_invalid_session_max_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.sessions import session_max

        monkeypatch.setenv("REPRO_SESSION_MAX", "many")
        with caplog.at_level(logging.WARNING):
            assert session_max() == 4096
            assert session_max() == 4096  # second parse: silent
        assert caplog.text.count("REPRO_SESSION_MAX") == 1

    def test_invalid_iter_batch_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.sessions import session_iter_batch

        monkeypatch.setenv("REPRO_SESSION_ITER_BATCH", "2.5")
        with caplog.at_level(logging.WARNING):
            assert session_iter_batch() == 8
            assert session_iter_batch() == 8
        assert caplog.text.count("REPRO_SESSION_ITER_BATCH") == 1

    def test_invalid_state_budget_falls_back_and_warns_once(
        self, monkeypatch, caplog
    ):
        from repro.serving.resident import (
            DEFAULT_STATE_BUDGET,
            session_state_budget,
        )

        monkeypatch.setenv("REPRO_SESSION_STATE_BUDGET", "64 MiB")
        with caplog.at_level(logging.WARNING):
            assert session_state_budget() == DEFAULT_STATE_BUDGET
            assert session_state_budget() == DEFAULT_STATE_BUDGET
        assert caplog.text.count("REPRO_SESSION_STATE_BUDGET") == 1

    def test_session_fallbacks_count_in_warning_bucket(
        self, monkeypatch
    ):
        from repro.sessions import session_max

        monkeypatch.setenv("REPRO_SESSION_MAX", "banana")
        with telemetry.capture() as cap:
            session_max()
        warnings = [r for r in cap.records
                    if r["name"] == "telemetry.warnings"]
        assert len(warnings) == 1
        assert warnings[0]["attrs"]["key"] == "invalid_session_max"

    def test_minimums_are_clamped(self, monkeypatch):
        from repro.sessions import session_iter_batch, session_max

        monkeypatch.setenv("REPRO_SESSION_MAX", "0")
        monkeypatch.setenv("REPRO_SESSION_ITER_BATCH", "-3")
        assert session_max() == 1
        assert session_iter_batch() == 1


class TestTolerantRequestFile:
    """``load_request_file`` skips malformed lines instead of raising."""

    @pytest.fixture(autouse=True)
    def _fresh_warnings(self):
        telemetry.reset_warnings()
        yield
        telemetry.reset_warnings()

    def _write(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_malformed_lines_skip_with_one_warning(
        self, tmp_path, caplog
    ):
        from repro.serving import load_request_file

        path = self._write(tmp_path, [
            '{"matrix": "CollegeMsg"}',
            "not json at all",
            '{"matrix": "wiki-Vote", "priorty": 1}',
            "# a comment",
            '{"matrix": "wiki-Vote", "priority": 2}',
        ])
        with caplog.at_level(logging.WARNING):
            requests = load_request_file(path)
        assert [r.source for r in requests] == ["CollegeMsg", "wiki-Vote"]
        assert requests[1].priority == 2
        assert caplog.text.count("skipped 2 malformed") == 1
        # First failure is named with its line number.
        assert "line 2" in caplog.text

    def test_skips_count_in_telemetry(self, tmp_path):
        from repro.serving import load_request_file

        path = self._write(tmp_path, [
            "garbage", '{"matrix": "CollegeMsg"}',
        ])
        with telemetry.capture() as cap:
            requests = load_request_file(path)
        assert len(requests) == 1
        skipped = [r for r in cap.records
                   if r["name"] == "serving.request_file.skipped"]
        assert len(skipped) == 1 and skipped[0]["value"] == 1

    def test_clean_file_stays_silent(self, tmp_path, caplog):
        from repro.serving import load_request_file

        path = self._write(tmp_path, ['{"matrix": "CollegeMsg"}'])
        with caplog.at_level(logging.WARNING):
            requests = load_request_file(path)
        assert len(requests) == 1
        assert "malformed" not in caplog.text
