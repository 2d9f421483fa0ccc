"""The tiered-fidelity estimator: prediction, calibration, audit.

The property at the heart of the tier: for **every** registered scheme,
the calibrated analytical estimate stays within its calibration entry's
tolerance of the exact simulator — checked here on a slice of the
golden corpus (the smallest Table 2 matrices plus the uniform controls
the calibration was fitted on).  The audit tests then close the loop:
a deliberately miscalibrated table must trip the differential gate and
demote the scheme back to the exact tier.
"""

import logging

import pytest

from repro import telemetry
from repro.cluster import Cluster
from repro.errors import ConfigError, EstimationError, ReproError
from repro.estimator import (
    DEFAULT_CALIBRATION,
    PREDICTABLE_SCHEMES,
    CalibrationSample,
    CalibrationTable,
    SchemeCalibration,
    audit_draw,
    fit_scheme,
    predict_schedule,
    resolve_audit_rate,
    resolve_fidelity,
    should_audit,
)
from repro.matrices.generators import uniform_random
from repro.matrices.named import generate_named
from repro.pipeline import EstimateResult, PipelineResult, PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling.registry import get_scheme, iter_schemes
from repro.serving import ServingEngine, SpMVRequest

#: The corpus slice the tolerance property runs on: the four smallest
#: Table 2 matrices plus the two uniform controls from the fit corpus.
CORPUS_NAMES = ("c52", "CollegeMsg", "as-735", "reorientation_4")


@pytest.fixture(scope="module")
def corpus():
    matrices = {name: generate_named(name) for name in CORPUS_NAMES}
    for index in range(2):
        matrices[f"uniform-{index}"] = uniform_random(
            128, 128, 1_800, seed=1_000 + index
        )
    return matrices


@pytest.fixture(scope="module")
def runner():
    return PipelineRunner(ArtifactStore(capacity=256))


class TestToleranceProperty:
    def test_every_scheme_is_calibrated(self):
        assert set(PREDICTABLE_SCHEMES) == {
            spec.name for spec in iter_schemes()
        }
        assert set(PREDICTABLE_SCHEMES) <= set(DEFAULT_CALIBRATION.schemes)

    @pytest.mark.parametrize("scheme", PREDICTABLE_SCHEMES)
    def test_estimate_within_calibrated_tolerance(
        self, scheme, corpus, runner
    ):
        entry = DEFAULT_CALIBRATION.for_scheme(scheme)
        for name, matrix in corpus.items():
            estimate = runner.estimate(matrix, scheme)
            exact = runner.analyze(matrix, scheme, fidelity="exact")
            exact_total = exact.cycles.total
            rel = (
                abs(estimate.predicted.cycles.total - exact_total)
                / max(exact_total, 1)
            )
            assert rel <= entry.tolerance, (
                f"{scheme} on {name}: {100 * rel:.2f}% error exceeds "
                f"the calibrated ±{100 * entry.tolerance:.2f}%"
            )
            report = estimate.report
            assert report.scheme == scheme
            assert report.nnz == matrix.nnz
            assert (report.n_rows, report.n_cols) == matrix.shape

    @pytest.mark.parametrize("scheme", PREDICTABLE_SCHEMES)
    def test_stalls_never_negative(self, scheme, corpus):
        config = get_scheme(scheme).default_config
        for matrix in corpus.values():
            predicted = predict_schedule(matrix, scheme, config)
            assert predicted.total_stalls >= 0
            assert predicted.stream_cycles >= 1


class TestFidelityResolution:
    @pytest.fixture(autouse=True)
    def _fresh_warnings(self):
        telemetry.reset_warnings()
        yield
        telemetry.reset_warnings()

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "estimate")
        assert resolve_fidelity("exact") == "exact"
        assert resolve_fidelity(None) == "estimate"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "auto")
        assert resolve_fidelity(None, default="exact") == "auto"
        monkeypatch.delenv("REPRO_FIDELITY")
        assert resolve_fidelity(None, default="exact") == "exact"

    def test_invalid_explicit_tier_raises(self):
        with pytest.raises(ConfigError):
            resolve_fidelity("approximate")

    def test_invalid_env_tier_warns_once_and_falls_back(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_FIDELITY", "approximate")
        with caplog.at_level(logging.WARNING):
            assert resolve_fidelity(None, default="exact") == "exact"
            assert resolve_fidelity(None, default="exact") == "exact"
        assert caplog.text.count("REPRO_FIDELITY") == 1

    def test_invalid_audit_rate_warns_and_falls_back(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_AUDIT_RATE", "often")
        with caplog.at_level(logging.WARNING):
            assert resolve_audit_rate(None) == 0.05
        assert "REPRO_AUDIT_RATE" in caplog.text

    def test_audit_rate_clamps_to_unit_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT_RATE", "7")
        assert resolve_audit_rate(None) == 1.0
        assert resolve_audit_rate(-0.5) == 0.0

    def test_audit_sampling_is_deterministic_and_bounded(self):
        fingerprints = [f"{i:08x}feedface" for i in range(64)]
        draws = [audit_draw(fp) for fp in fingerprints]
        assert draws == [audit_draw(fp) for fp in fingerprints]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        assert not any(should_audit(fp, 0.0) for fp in fingerprints)
        assert all(should_audit(fp, 1.0) for fp in fingerprints)


class TestCalibrationTable:
    def test_missing_scheme_raises_estimation_error(self):
        with pytest.raises(EstimationError):
            DEFAULT_CALIBRATION.for_scheme("no_such_scheme")

    def test_digest_tracks_entries(self):
        entry = SchemeCalibration(
            scheme="pe_aware", scale=2.0, tolerance=0.5,
            max_observed_error=0.4, fitted_on=3,
        )
        patched = DEFAULT_CALIBRATION.with_entry(entry)
        assert patched.digest() != DEFAULT_CALIBRATION.digest()
        assert patched.for_scheme("pe_aware").scale == 2.0
        # The original table is untouched.
        assert DEFAULT_CALIBRATION.for_scheme("pe_aware").scale != 2.0

    def test_fit_scheme_median_scale_and_tolerance_margin(self):
        samples = [
            CalibrationSample(raw_stream=100, exact_stream=110,
                              predicted_fixed=50, exact_total=160),
            CalibrationSample(raw_stream=200, exact_stream=220,
                              predicted_fixed=50, exact_total=270),
            CalibrationSample(raw_stream=400, exact_stream=440,
                              predicted_fixed=50, exact_total=490),
        ]
        entry = fit_scheme("pe_aware", samples)
        assert entry.scale == pytest.approx(1.1)
        # A perfect post-scale fit still keeps the tolerance floor.
        assert entry.tolerance >= 0.02
        assert entry.fitted_on == 3

    def test_refit_invalidates_the_estimate_cache(self, corpus):
        store = ArtifactStore(capacity=64)
        runner = PipelineRunner(store)
        matrix = corpus["uniform-0"]
        first = runner.estimate(matrix, "pe_aware")
        patched = DEFAULT_CALIBRATION.with_entry(SchemeCalibration(
            scheme="pe_aware", scale=2.0, tolerance=0.5,
            max_observed_error=0.4, fitted_on=1,
        ))
        second = runner.estimate(matrix, "pe_aware",
                                 calibration=patched)
        assert (first.estimate_artifact.fingerprint
                != second.estimate_artifact.fingerprint)
        assert (second.predicted.stream_cycles
                > first.predicted.stream_cycles)


class TestAnalyzeDispatch:
    def test_estimate_tier_returns_estimate_result(self, corpus, runner):
        result = runner.analyze(corpus["uniform-0"], "pe_aware",
                                fidelity="estimate")
        assert isinstance(result, EstimateResult)
        assert result.fidelity == "estimate"

    def test_exact_tier_returns_pipeline_result(self, corpus, runner):
        result = runner.analyze(corpus["uniform-0"], "pe_aware",
                                fidelity="exact")
        assert isinstance(result, PipelineResult)
        assert result.fidelity == "exact"

    def test_scheduler_kwargs_force_the_exact_tier(self, corpus, runner):
        result = runner.analyze(
            corpus["uniform-0"], "crhcs", fidelity="auto",
            max_rows_per_pass=64,
        )
        assert isinstance(result, PipelineResult)

    def test_auto_falls_back_when_calibration_is_missing(self, corpus):
        runner = PipelineRunner()
        empty = CalibrationTable({})
        auto = runner.analyze(corpus["uniform-0"], "pe_aware",
                              fidelity="auto", calibration=empty)
        assert isinstance(auto, PipelineResult)
        with pytest.raises(EstimationError):
            runner.analyze(corpus["uniform-0"], "pe_aware",
                           fidelity="estimate", calibration=empty)


class _ExactFails:
    """A runner whose exact-tier runs fail (the audit re-run path)."""

    def __init__(self, runner):
        self._runner = runner

    def analyze(self, source, spec, config, **kwargs):
        if kwargs.get("fidelity") == "exact":
            raise ReproError("exact re-run failed")
        return self._runner.analyze(source, spec, config, **kwargs)


class TestAuditGate:
    def test_miscalibration_demotes_the_scheme_to_exact(self):
        telemetry.reset_warnings()
        bad = DEFAULT_CALIBRATION.with_entry(SchemeCalibration(
            scheme="pe_aware", scale=5.0, tolerance=0.01,
            max_observed_error=0.0, fitted_on=1,
        ))
        engine = ServingEngine(
            workers=0, fidelity="estimate", audit_rate=1.0,
            calibration=bad,
        ).start()
        first = engine.submit(SpMVRequest(
            uniform_random(96, 96, 900, seed=41), scheme="pe_aware"
        ))
        assert engine.run_once()
        assert first.result(0).ok and first.result(0).fidelity == "estimate"
        # The audit ran inside the step that answered the request.
        assert engine.demoted_schemes() == ("pe_aware",)
        summary = engine.audit_summary()
        assert summary["violations"] == 1
        assert summary["max_rel_error"] > bad.for_scheme(
            "pe_aware"
        ).tolerance
        # Post-demotion requests run the exact tier.
        second = engine.submit(SpMVRequest(
            uniform_random(96, 96, 900, seed=42), scheme="pe_aware"
        ))
        engine.shutdown(drain=True)
        assert second.result(0).ok and second.result(0).fidelity == "exact"
        telemetry.reset_warnings()

    def test_well_calibrated_audit_passes_clean(self):
        engine = ServingEngine(
            workers=1, fidelity="estimate", audit_rate=1.0,
        )
        engine.start()
        try:
            responses = [
                engine.submit(SpMVRequest(
                    uniform_random(96, 96, 900, seed=50 + index),
                    scheme=PREDICTABLE_SCHEMES[
                        index % len(PREDICTABLE_SCHEMES)
                    ],
                )).result(timeout=30.0)
                for index in range(6)
            ]
        finally:
            engine.shutdown(drain=True)
        assert all(r.ok and r.fidelity == "estimate" for r in responses)
        summary = engine.audit_summary()
        assert summary["sampled"] == 6
        assert summary["violations"] == 0
        assert summary["demoted"] == []

    def test_failed_audit_rerun_is_an_audit_error(self):
        """A request answered ok stays completed when its exact re-run
        fails: the failure is counted once, as an audit error."""
        engine = ServingEngine(workers=1, fidelity="estimate",
                               audit_rate=1.0)
        engine.runner = _ExactFails(engine.runner)
        engine.start()
        try:
            response = engine.submit(SpMVRequest(
                uniform_random(96, 96, 900, seed=61)
            )).result(timeout=30.0)
        finally:
            engine.shutdown(drain=True)
        assert response.ok and response.fidelity == "estimate"
        assert engine.stats["completed"] == 1
        assert engine.stats["errors"] == 0
        assert engine.audit_summary()["errors"] == 1

    def test_cluster_sums_device_audit_errors(self):
        cluster = Cluster(devices=2, fidelity="estimate", audit_rate=1.0)
        for device in cluster.devices.values():
            device.engine.runner = _ExactFails(device.engine.runner)
        with cluster:
            results = cluster.run([
                SpMVRequest(uniform_random(96, 96, 900, seed=seed))
                for seed in (62, 63, 64)
            ], clients=1)
        assert all(result.ok for result in results)
        assert cluster.audit_summary()["errors"] == 3
        assert cluster.stats["errors"] == 0

    def test_exact_tier_never_audits(self):
        engine = ServingEngine(workers=1, fidelity="exact",
                               audit_rate=1.0)
        engine.start()
        try:
            response = engine.submit(SpMVRequest(
                uniform_random(96, 96, 900, seed=60)
            )).result(timeout=30.0)
        finally:
            engine.shutdown(drain=True)
        assert response.ok and response.fidelity == "exact"
        assert engine.audit_summary()["sampled"] == 0
