"""Pipeline architecture tests.

Three families:

* **golden differential** — ≥20 corpus matrices through the legacy
  façade-shaped flow (scheduler function → ``estimate_cycles`` →
  hand-assembled Eqs. 4–7 report, copied verbatim from the pre-pipeline
  ``StreamingAccelerator.report_from_cycles``) against
  :meth:`PipelineRunner.analyze`, asserting byte-identical
  :class:`SpMVReport` fields for every registered scheme;
* **registry** — round-trip registration, duplicate rejection, and the
  did-you-mean :class:`ConfigError` on unknown scheme names;
* **artifact store** — stage-level hit/miss accounting: a config change
  busts schedule/simulate/metrics but not load, a matrix change busts
  nothing for other matrices, a scheduler version bump busts the
  schedule stage, and a power-model change busts only metrics.
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.serpens import SerpensAccelerator
from repro.config import DEFAULT_CHASON, DEFAULT_SERPENS
from repro.core.accelerator import SpMVReport as ReExportedReport
from repro.core.chason import ChasonAccelerator
from repro.errors import ConfigError
from repro.matrices.collection import corpus_specs
from repro.matrices.named import generate_named
from repro.metrics import (
    bandwidth_efficiency,
    energy_efficiency,
    pe_underutilization_percent,
    throughput_gflops,
)
from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    SpMVReport,
    fingerprint,
    fingerprint_config,
    fingerprint_matrix,
)
from repro.scheduling.crhcs import MigrationReport, schedule_crhcs
from repro.scheduling.pe_aware import schedule_pe_aware
from repro.scheduling.registry import (
    get_scheme,
    iter_schemes,
    register_scheme,
    registered_schemes,
    unregister,
)
from repro.sim.engine import estimate_cycles

#: The differential corpus: 20 seeded matrices, capped so the heavier
#: schemes stay fast.
CORPUS = corpus_specs(20, nnz_cap=6_000)


def legacy_report(schedule, cycles, config, name, power_watts):
    """The pre-pipeline ``report_from_cycles``, verbatim.

    Any drift between the pipeline's metrics stage and this reference is
    a reproduction-breaking change, hence exact equality below.
    """
    latency_seconds = cycles.total / config.frequency_hz
    gflops = throughput_gflops(schedule.nnz, schedule.n_cols, latency_seconds)
    bandwidth = config.streaming_bandwidth_gbps
    return SpMVReport(
        accelerator=name,
        scheme=schedule.scheme,
        n_rows=schedule.n_rows,
        n_cols=schedule.n_cols,
        nnz=schedule.nnz,
        stream_cycles=cycles.stream,
        total_cycles=cycles.total,
        latency_ms=latency_seconds * 1e3,
        throughput_gflops=gflops,
        underutilization_pct=pe_underutilization_percent(
            schedule.total_stalls, schedule.nnz
        ),
        traffic_bytes=schedule.traffic_bytes,
        bandwidth_gbps=bandwidth,
        bandwidth_efficiency=bandwidth_efficiency(gflops, bandwidth),
        power_watts=power_watts,
        energy_efficiency=energy_efficiency(gflops, power_watts),
        migrated=schedule.migrated_count,
    )


def fresh_runner() -> PipelineRunner:
    """A runner with a private device-shaped store (schedules on their
    own budget; no cross-test pollution)."""
    return PipelineRunner(ArtifactStore(schedule_capacity=16))


class TestGoldenDifferential:
    def test_crhcs_byte_identical_over_corpus(self):
        """Legacy ChasonAccelerator flow == pipeline, 20 corpus matrices."""
        runner = PipelineRunner()
        chason_power = ChasonAccelerator.power_watts
        for spec in CORPUS:
            matrix = spec.generate()
            schedule = schedule_crhcs(
                matrix, DEFAULT_CHASON, mode="migrate",
                report=MigrationReport(),
            )
            cycles = estimate_cycles(schedule, DEFAULT_CHASON)
            expected = legacy_report(
                schedule, cycles, DEFAULT_CHASON, "chason", chason_power
            )
            actual = runner.analyze(spec, "crhcs").report
            assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

    def test_pe_aware_byte_identical_over_corpus(self):
        """Legacy SerpensAccelerator flow == pipeline, 20 corpus matrices."""
        runner = PipelineRunner()
        serpens_power = SerpensAccelerator.power_watts
        for spec in CORPUS:
            matrix = spec.generate()
            schedule = schedule_pe_aware(matrix, DEFAULT_SERPENS)
            cycles = estimate_cycles(schedule, DEFAULT_SERPENS)
            expected = legacy_report(
                schedule, cycles, DEFAULT_SERPENS, "serpens", serpens_power
            )
            actual = runner.analyze(spec, "pe_aware").report
            assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

    def test_every_registered_scheme_byte_identical(self):
        """The differential holds for all registered schemes."""
        runner = PipelineRunner()
        for spec in CORPUS[:3]:
            matrix = spec.generate()
            for scheme in iter_schemes():
                kwargs = (
                    {"report": MigrationReport()} if scheme.report_kwarg
                    else {}
                )
                schedule = scheme.scheduler(
                    matrix, scheme.default_config, **kwargs
                )
                cycles = estimate_cycles(schedule, scheme.default_config)
                expected = legacy_report(
                    schedule, cycles, scheme.default_config,
                    scheme.accelerator_name, scheme.power_watts(),
                )
                actual = runner.analyze(spec, scheme.name).report
                assert dataclasses.asdict(actual) == dataclasses.asdict(
                    expected
                ), scheme.name

    def test_facades_match_pipeline_on_memory_matrix(self):
        """In-memory (content-fingerprinted) sources agree too."""
        matrix = generate_named("c52")
        assert ChasonAccelerator().analyze(matrix) == (
            PipelineRunner().analyze(matrix, "crhcs").report
        )
        assert SerpensAccelerator().analyze(matrix) == (
            PipelineRunner().analyze(matrix, "pe_aware").report
        )

    def test_functional_run_matches_analytic_report(self):
        """run() (executed datapath) and analyze() agree field-for-field."""
        matrix = CORPUS[0].generate()
        x = np.ones(matrix.n_cols, dtype=np.float32)
        runner = PipelineRunner()
        _, run_report = runner.run(matrix, x, "crhcs")
        assert run_report == runner.analyze(matrix, "crhcs").report

    def test_report_reexport_is_the_pipeline_type(self):
        assert ReExportedReport is SpMVReport


class TestRegistry:
    def test_round_trip(self):
        @register_scheme(
            name="unit_test_scheme",
            version="1",
            default_config=DEFAULT_SERPENS,
            power_key="serpens",
            description="registry round-trip probe",
        )
        def schedule_probe(matrix, config):
            return schedule_pe_aware(matrix, config)

        try:
            assert "unit_test_scheme" in registered_schemes()
            spec = get_scheme("unit_test_scheme")
            assert spec.scheduler is schedule_probe
            assert spec.version == "1"
            assert spec.accelerator_name == "unit_test_scheme"
            assert spec.default_config is DEFAULT_SERPENS
            report = (
                PipelineRunner().analyze(CORPUS[0], "unit_test_scheme").report
            )
            assert report.accelerator == "unit_test_scheme"
            assert report.scheme == "pe_aware"
        finally:
            assert unregister("unit_test_scheme") is spec
        assert "unit_test_scheme" not in registered_schemes()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_scheme(
                name="crhcs",
                version="99",
                default_config=DEFAULT_CHASON,
                power_key="chason",
            )(lambda matrix, config: None)

    def test_unknown_scheme_suggests_closest(self):
        with pytest.raises(ConfigError, match="did you mean"):
            get_scheme("chrcs")
        with pytest.raises(ConfigError, match="registered:"):
            get_scheme("definitely-not-a-scheme")

    def test_builtin_schemes_present(self):
        names = registered_schemes()
        for expected in ("crhcs", "crhcs_rebuild", "greedy_ooo",
                         "pe_aware", "row_based", "row_split"):
            assert expected in names

    def test_version_tag_changes_schedule_fingerprint(self):
        from repro.pipeline.stages import ScheduleStage

        spec = get_scheme("pe_aware")
        bumped = dataclasses.replace(spec, version=spec.version + "-next")
        digest = ScheduleStage.fingerprint_for(
            "m", spec, DEFAULT_SERPENS, {}
        )
        assert digest != ScheduleStage.fingerprint_for(
            "m", bumped, DEFAULT_SERPENS, {}
        )


class TestFingerprints:
    def test_config_fingerprint_covers_every_field(self):
        base = fingerprint_config(DEFAULT_SERPENS)
        changed = dataclasses.replace(DEFAULT_SERPENS, column_window=4096)
        assert fingerprint_config(changed) != base
        assert fingerprint_config(
            dataclasses.replace(DEFAULT_SERPENS)
        ) == base

    @pytest.mark.parametrize("first", ["default", "replaced"])
    def test_config_digest_is_kept_per_object_not_per_value(self, first):
        """``frequency_mhz=301`` equals the default's 301.0 and hashes
        the same, yet digests differently: whichever is fingerprinted
        first, each config object keeps its own digest."""
        default = dataclasses.replace(DEFAULT_CHASON)
        replaced = dataclasses.replace(DEFAULT_CHASON, frequency_mhz=301)
        assert replaced == default and hash(replaced) == hash(default)
        order = [default, replaced]
        if first == "replaced":
            order.reverse()
        for config in order + order:
            assert fingerprint_config(config) == fingerprint(
                "config", config
            )
        assert fingerprint_config(replaced) != fingerprint_config(default)

    def test_pass_signature_memo_tells_equal_kwargs_apart(self):
        """``8``, ``8.0`` and ``True`` are equal keyword values with
        different encodings: the memoized signature of each digests
        exactly like a freshly planned one."""
        spec = get_scheme("crhcs")
        digests = []
        for value in (8, 8.0, True, 8, 8.0, True):
            kwargs = {"steal_tries": value}
            planned = tuple(
                p.signature() for p in spec.pass_plan(DEFAULT_CHASON, kwargs)
            )
            signature = spec.pass_signature(DEFAULT_CHASON, kwargs)
            assert fingerprint(signature) == fingerprint(planned)
            digests.append(fingerprint(signature))
        assert len(set(digests)) == 3

    def test_override_configs_leave_no_memo_behind(self):
        """Every request with overrides resolves a new config object.
        Keying three times the signature memo's size of them leaves
        that memo at its bound, and no config outlives its request."""
        import gc
        import weakref

        from repro.pipeline.stages import ScheduleStage
        from repro.scheduling.registry import _SIGNATURE_MEMO
        from repro.serving import SpMVRequest

        spec = get_scheme("crhcs")
        refs = []
        for index in range(3 * _SIGNATURE_MEMO):
            request = SpMVRequest(
                "CollegeMsg", config_overrides={"frequency_mhz": 250.0 + index}
            )
            config = request.resolve_config(spec)
            ScheduleStage.fingerprint_for("0" * 64, spec, config, {})
            refs.append(weakref.ref(config))
        del request, config
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(spec.__dict__["_signatures"]) <= _SIGNATURE_MEMO

    def test_matrix_fingerprint_tracks_content(self):
        a = CORPUS[0].generate()
        b = CORPUS[1].generate()
        assert fingerprint_matrix(a) == fingerprint_matrix(a)
        assert fingerprint_matrix(a) != fingerprint_matrix(b)

    def test_fingerprint_type_tags_distinguish_values(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(["a", "b"]) != fingerprint(["ab"])


class TestArtifactStore:
    def test_repeat_analyze_hits_every_stage(self):
        runner = fresh_runner()
        first = runner.analyze(CORPUS[0], "pe_aware")
        second = runner.analyze(CORPUS[0], "pe_aware")
        store = runner.store
        for stage in ("load", "schedule", "simulate", "metrics"):
            assert store.stage_hits(stage) == 1, stage
            assert store.stage_misses(stage) == 1, stage
        assert second.report == first.report
        # A memory hit is the built artifact itself (migration report
        # and compiled replay plan included).
        assert second.scheduled is first.scheduled

    def test_config_change_busts_downstream_but_not_load(self):
        runner = fresh_runner()
        store = runner.store
        runner.analyze(CORPUS[0], "pe_aware")
        changed = dataclasses.replace(DEFAULT_SERPENS, column_window=4096)
        runner.analyze(CORPUS[0], "pe_aware", changed)
        assert store.stage_hits("load") == 1
        for stage in ("schedule", "simulate", "metrics"):
            assert store.stage_misses(stage) == 2, stage
            assert store.stage_hits(stage) == 0, stage

    def test_matrix_change_does_not_bust_other_entries(self):
        runner = fresh_runner()
        store = runner.store
        runner.analyze(CORPUS[0], "pe_aware")
        runner.analyze(CORPUS[1], "pe_aware")  # all stages miss
        runner.analyze(CORPUS[0], "pe_aware")  # original still cached
        for stage in ("load", "schedule", "simulate", "metrics"):
            assert store.stage_misses(stage) == 2, stage
            assert store.stage_hits(stage) == 1, stage

    def test_power_change_busts_only_metrics(self):
        runner = fresh_runner()
        store = runner.store
        runner.analyze(CORPUS[0], "pe_aware")
        runner.analyze(CORPUS[0], "pe_aware", power_watts=123.0)
        assert store.stage_hits("load") == 1
        assert store.stage_hits("schedule") == 1
        assert store.stage_hits("simulate") == 1
        assert store.stage_misses("metrics") == 2
        assert store.stage_hits("metrics") == 0

    def test_version_bump_busts_schedule_stage(self):
        def schedule_probe(matrix, config):
            return schedule_pe_aware(matrix, config)

        runner = fresh_runner()
        store = runner.store
        register_scheme(
            name="unit_test_versioned", version="1",
            default_config=DEFAULT_SERPENS, power_key="serpens",
        )(schedule_probe)
        try:
            runner.analyze(CORPUS[0], "unit_test_versioned")
            runner.analyze(CORPUS[0], "unit_test_versioned")
            assert store.stage_hits("schedule") == 1
        finally:
            unregister("unit_test_versioned")
        register_scheme(
            name="unit_test_versioned", version="2",
            default_config=DEFAULT_SERPENS, power_key="serpens",
        )(schedule_probe)
        try:
            runner.analyze(CORPUS[0], "unit_test_versioned")
            assert store.stage_misses("schedule") == 2
            assert store.stage_hits("schedule") == 1
        finally:
            unregister("unit_test_versioned")

    def test_schedule_cache_key_includes_version(self):
        runner = fresh_runner()
        v1 = get_scheme("pe_aware")
        v2 = dataclasses.replace(v1, version=v1.version + "-next")
        first = runner.schedule(CORPUS[0], v1)
        assert runner.schedule(CORPUS[0], v2) is not first
        assert runner.store.stage_misses("schedule") == 2

    def test_capacity_zero_disables_generic_tier(self):
        runner = PipelineRunner(
            ArtifactStore(capacity=0, schedule_capacity=16)
        )
        runner.analyze(CORPUS[0], "pe_aware")
        runner.analyze(CORPUS[0], "pe_aware")
        # Schedules still memoise in their own LRU; the shared-LRU
        # stages rebuild every time.
        assert runner.store.stage_hits("schedule") == 1
        assert runner.store.stage_hits("simulate") == 0
        assert runner.store.stage_misses("simulate") == 2

    def test_concurrent_lookups_keep_the_counters_exact(self):
        """More threads than cores on one small store: every lookup is
        counted exactly once and no LRU outgrows its budget."""
        store = ArtifactStore(capacity=4, schedule_capacity=3)
        kinds = ("load", "schedule", "pass", "simulate")
        workers, rounds = 8, 300

        def hammer(worker):
            for i in range(rounds):
                kind = kinds[(worker + i) % len(kinds)]
                store.get_or_build(kind, str(i % 7), lambda: (worker, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(hammer, w) for w in range(workers)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for kind in kinds:
            lookups = store.stage_hits(kind) + store.stage_misses(kind)
            assert lookups == workers * rounds // len(kinds), kind
        assert len(store) <= 4 + 3
        assert sum(store.evictions.values()) + len(store) <= sum(
            store.misses.values()
        )


class TestTelemetrySpans:
    def test_analyze_emits_pipeline_stage_spans(self):
        with telemetry.capture() as tel:
            PipelineRunner().analyze(CORPUS[0], "pe_aware")
        spans = {r["name"] for r in tel.records if r["kind"] == "span"}
        for expected in ("pipeline.load", "pipeline.schedule",
                         "pipeline.simulate", "pipeline.metrics"):
            assert expected in spans

    def test_store_emits_cache_counters(self):
        with telemetry.capture() as tel:
            runner = fresh_runner()
            runner.analyze(CORPUS[0], "pe_aware")
            runner.analyze(CORPUS[0], "pe_aware")
        names = {r["name"] for r in tel.records if r["kind"] == "counter"}
        assert "pipeline.cache.hits" in names
        assert "pipeline.cache.misses" in names


class TestMigrationSideChannel:
    def test_uncached_analyze_populates_last_migration(self):
        matrix = generate_named("c52")
        chason = ChasonAccelerator()
        chason.analyze(matrix)
        assert chason.last_migration is not None
        assert chason.last_migration.migrated > 0
