"""Tests for the telemetry subsystem (spans, counters, JSONL traces)."""

import json
import logging
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro import telemetry
from repro.analysis.runner import (
    WORKERS_ENV,
    corpus_worker_count,
    run_over_specs,
)
from repro.config import DEFAULT_CHASON, DEFAULT_SERPENS
from repro.errors import SimulationError, TelemetryError
from repro.matrices.collection import corpus_specs
from repro.matrices.generators import power_law_rows, uniform_random
from repro.matrices.named import generate_named
from repro.pipeline import ArtifactStore, PipelineRunner
from repro.scheduling.crhcs import MigrationReport, schedule_crhcs
from repro.scheduling.pe_aware import schedule_pe_aware
from repro.sim.plan import compile_plan
from repro.sim.trace import ScheduleTrace
from repro.telemetry.schema import (
    validate_file,
    validate_record,
    validate_records,
)
from repro.telemetry.sinks import JsonlSink, MemorySink, Sink
from repro.telemetry.summarize import summarize_records

SPEC = corpus_specs(count=1, nnz_cap=2_000)[0]
MATRIX = SPEC.generate()


@pytest.fixture(autouse=True)
def _clean_telemetry_state():
    """Every test starts disabled with a clean one-time-warning registry."""
    telemetry.disable()
    telemetry.reset_warnings()
    yield
    telemetry.disable()
    telemetry.reset_warnings()


class TestDisabledPath:
    def test_unset_env_resolves_to_null(self, monkeypatch):
        monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
        telemetry.reset()
        active = telemetry.get()
        assert active is telemetry.NULL
        assert active.enabled is False

    def test_null_instruments_are_no_ops(self):
        null = telemetry.NULL
        with null.span("anything", attr=1) as span:
            span.annotate(more=2)
            null.counter("c", 5, k="v")
            null.gauge("g", 1.5)
        assert null.counter_total("c") == 0
        null.flush()
        null.close()

    def test_null_span_is_one_shared_object(self):
        assert telemetry.NULL.span("a") is telemetry.NULL.span("b")

    def test_disabled_scheduling_emits_nothing(self):
        # The instrumented hot path must not blow up (or record) when
        # telemetry is off — the default state of every test run.
        schedule = schedule_pe_aware(MATRIX, DEFAULT_SERPENS)
        assert schedule.nnz == MATRIX.nnz


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        with telemetry.capture() as cap:
            with cap.span("outer"):
                with cap.span("inner"):
                    pass
        names = [r["name"] for r in cap.records if r["kind"] == "span"]
        assert names == ["outer/inner", "outer"]

    def test_children_close_before_parents(self):
        with telemetry.capture() as cap:
            with cap.span("a"):
                with cap.span("b"):
                    with cap.span("c"):
                        pass
        seqs = {r["name"]: r["seq"] for r in cap.records}
        assert seqs["a/b/c"] < seqs["a/b"] < seqs["a"]

    def test_sibling_spans_reuse_parent_path(self):
        with telemetry.capture() as cap:
            with cap.span("root"):
                with cap.span("first"):
                    pass
                with cap.span("second"):
                    pass
        names = [r["name"] for r in cap.records if r["kind"] == "span"]
        assert names == ["root/first", "root/second", "root"]

    def test_annotate_attaches_late_attributes(self):
        with telemetry.capture() as cap:
            with cap.span("work", early=1) as span:
                span.annotate(late=2)
        record = cap.records[0]
        assert record["attrs"] == {"early": 1, "late": 2}

    def test_durations_are_non_negative_and_ordered(self):
        with telemetry.capture() as cap:
            with cap.span("outer"):
                with cap.span("inner"):
                    pass
        inner, outer = cap.records
        assert 0 <= inner["duration_s"] <= outer["duration_s"]


class TestCountersAndGauges:
    def test_counter_accumulates_until_flush(self):
        with telemetry.capture() as cap:
            cap.counter("hits", 2)
            cap.counter("hits", 3)
        records = [r for r in cap.records if r["kind"] == "counter"]
        assert len(records) == 1
        assert records[0]["value"] == 5

    def test_attrs_partition_counter_buckets(self):
        with telemetry.capture() as cap:
            cap.counter("migrated", 4, dest=0, donor=1)
            cap.counter("migrated", 6, dest=1, donor=2)
            cap.counter("migrated", 1, dest=0, donor=1)
        buckets = {
            (r["attrs"]["dest"], r["attrs"]["donor"]): r["value"]
            for r in cap.records
        }
        assert buckets == {(0, 1): 5, (1, 2): 6}

    def test_gauge_keeps_last_value_and_aggregates(self):
        with telemetry.capture() as cap:
            cap.gauge("depth", 4)
            cap.gauge("depth", 9)
            cap.gauge("depth", 2)
        record = cap.records[0]
        assert record["value"] == 2
        assert record["attrs"]["max"] == 9
        assert record["attrs"]["min"] == 2
        assert record["attrs"]["count"] == 3

    def test_flush_resets_accumulators(self):
        with telemetry.capture() as cap:
            cap.counter("n", 1)
            cap.flush()
            cap.counter("n", 1)
        totals = [r["value"] for r in cap.records if r["name"] == "n"]
        assert totals == [1, 1]


class TestSchemaRoundTrip:
    def test_jsonl_file_round_trips_and_validates(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        configured = telemetry.configure(str(trace))
        try:
            schedule_pe_aware(MATRIX, DEFAULT_SERPENS)
            schedule_crhcs(MATRIX, DEFAULT_CHASON)
        finally:
            configured.close()
            telemetry.disable()
        count = validate_file(trace)
        assert count > 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert {"span", "counter"} <= kinds
        names = {r["name"] for r in records}
        assert "schedule.pe_aware" in names
        assert "scheduler.crhcs.migrated" in names

    def test_every_capture_record_validates(self):
        with telemetry.capture() as cap:
            with cap.span("s", a=1):
                cap.counter("c", 2)
                cap.gauge("g", 3.5, unit="cycles")
        assert validate_records(cap.records) == len(cap.records) >= 3

    @pytest.mark.parametrize(
        "record",
        [
            "not a dict",
            {},
            {"run_id": "nothex", "seq": 0, "ts": 0.0, "kind": "span",
             "name": "a", "duration_s": 0.1},
            {"run_id": "0123456789ab", "seq": -1, "ts": 0.0,
             "kind": "span", "name": "a", "duration_s": 0.1},
            {"run_id": "0123456789ab", "seq": 0, "ts": 0.0,
             "kind": "bogus", "name": "a"},
            {"run_id": "0123456789ab", "seq": 0, "ts": 0.0,
             "kind": "span", "name": "a"},          # span w/o duration
            {"run_id": "0123456789ab", "seq": 0, "ts": 0.0,
             "kind": "counter", "name": "a"},       # counter w/o value
            {"run_id": "0123456789ab", "seq": 0, "ts": 0.0,
             "kind": "event", "name": "a", "extra_field": 1},
        ],
    )
    def test_malformed_records_are_rejected(self, record):
        with pytest.raises(TelemetryError):
            validate_record(record)


def _doubling_worker(value):
    t = telemetry.get()
    with t.span("test.work", value=value):
        t.counter("test.items", 1)
        t.counter("test.value_sum", value)
    return value * 2


class TestJsonlBatching:
    """The JSONL sink writes records a batch at a time, off the request
    path, with the lines per-record writing gave."""

    class _Tee(Sink):
        """Hands every record to both sinks, in the registry's order."""

        def __init__(self, *sinks):
            self.sinks = sinks

        def write(self, record):
            for sink in self.sinks:
                sink.write(record)

        def flush(self):
            for sink in self.sinks:
                sink.flush()

        def close(self):
            for sink in self.sinks:
                sink.close()

    def test_a_batched_trace_equals_per_record_lines(self, tmp_path):
        trace = tmp_path / "batched.jsonl"
        memory = MemorySink()
        batched = JsonlSink(str(trace))
        registry = telemetry.Telemetry(self._Tee(memory, batched))

        def work(worker):
            for i in range(200):
                with registry.span("work", worker=worker, i=i):
                    registry.counter("items", 1, worker=worker)
                    registry.histogram("latency_ms", 0.5 + i)
                registry.event("tick", worker=worker, note="é\n\"")

        threads = [threading.Thread(target=work, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        registry.close()
        per_record = [
            json.dumps(record, separators=(",", ":"), sort_keys=False)
            for record in memory.records
        ]
        assert trace.read_text(encoding="utf-8").splitlines() == per_record
        kinds = {record["kind"] for record in memory.records}
        assert kinds == {"span", "event", "counter", "hist"}
        assert len(per_record) > 2 * JsonlSink.BATCH_SIZE
        assert [r["seq"] for r in memory.records] == list(
            range(len(per_record))
        )

    def test_the_batch_stays_bounded(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        registry = telemetry.Telemetry(sink)
        for i in range(1_000):
            registry.event("e", i=i)
            assert len(sink._batch) < JsonlSink.BATCH_SIZE
        written = 1_000 - 1_000 % JsonlSink.BATCH_SIZE
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == written
        registry.close()
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1_000

    def test_an_exit_without_close_leaves_every_record(self, tmp_path):
        trace = tmp_path / "exit.jsonl"
        events = 3 * JsonlSink.BATCH_SIZE + 5
        script = (
            "from repro import telemetry\n"
            f"active = telemetry.configure({str(trace)!r})\n"
            f"for i in range({events}):\n"
            "    active.event('e', i=i)\n"
            "active.counter('c', 2)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        env.pop("REPRO_TELEMETRY", None)
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=120)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(events + 1))
        assert [r["attrs"]["i"] for r in records[:-1]] == list(range(events))
        assert records[-1]["name"] == "c" and records[-1]["value"] == 2


class TestParallelMerge:
    def test_merge_is_ordered_by_spec_index(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        items = list(range(8))
        with telemetry.capture() as cap:
            results = run_over_specs(_doubling_worker, items)
        assert results == [v * 2 for v in items]
        spec_indices = [
            r["attrs"]["index"]
            for r in cap.records
            if r["name"].endswith("corpus.spec") and r["kind"] == "span"
        ]
        assert spec_indices == items
        # Merged records carry worker attribution and monotonic seqs.
        merged = [r for r in cap.records if "worker" in r]
        assert merged
        seqs = [r["seq"] for r in cap.records]
        assert seqs == sorted(seqs)
        assert validate_records(cap.records) == len(cap.records)

    def test_parallel_counter_totals_match_serial(self, monkeypatch):
        items = list(range(8))

        def totals(records):
            out = {}
            for record in records:
                if record["kind"] == "counter":
                    key = record["name"]
                    out[key] = out.get(key, 0) + record["value"]
            return out

        monkeypatch.setenv(WORKERS_ENV, "1")
        with telemetry.capture() as serial_cap:
            serial = run_over_specs(_doubling_worker, items)
        monkeypatch.setenv(WORKERS_ENV, "4")
        with telemetry.capture() as parallel_cap:
            parallel = run_over_specs(_doubling_worker, items)
        assert serial == parallel
        serial_totals = totals(serial_cap.records)
        parallel_totals = totals(parallel_cap.records)
        for name in ("test.items", "test.value_sum", "runner.specs"):
            assert serial_totals[name] == parallel_totals[name]

    def test_disabled_parallel_path_unchanged(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert run_over_specs(_doubling_worker, [1, 2, 3]) == [2, 4, 6]


def _cache_totals(records):
    """(counter name, stage) → summed value of ``pipeline.cache.*``."""
    totals = {}
    for record in records:
        if record["kind"] == "counter" and record["name"].startswith(
            "pipeline.cache."
        ):
            key = (record["name"], record["attrs"]["stage"])
            totals[key] = totals.get(key, 0) + record["value"]
    return totals


class TestCacheCounters:
    def test_hits_misses_evictions_reach_telemetry(self):
        with telemetry.capture() as cap:
            store = ArtifactStore(schedule_capacity=1)
            build = lambda: schedule_pe_aware(MATRIX, DEFAULT_SERPENS)
            store.get_or_build("schedule", "a", build)
            store.get_or_build("schedule", "a", build)  # hit
            store.get_or_build("schedule", "b", build)  # evicts a
        totals = _cache_totals(cap.records)
        assert totals[("pipeline.cache.hits", "schedule")] == 1
        assert totals[("pipeline.cache.misses", "schedule")] == 2
        assert totals[("pipeline.cache.evictions", "schedule")] == 1
        assert (store.hits, store.misses, store.evictions) == (
            {"schedule": 1}, {"schedule": 2}, {"schedule": 1}
        )

    def test_disk_loads_counted(self, tmp_path):
        writer = ArtifactStore(schedule_capacity=0, disk_dir=str(tmp_path))
        PipelineRunner(writer).schedule(SPEC, "pe_aware")
        with telemetry.capture() as cap:
            reader = ArtifactStore(
                schedule_capacity=0, disk_dir=str(tmp_path)
            )
            PipelineRunner(reader).schedule(SPEC, "pe_aware")
        totals = _cache_totals(cap.records)
        assert totals[("pipeline.cache.disk_loads", "schedule")] == 1
        assert reader.disk_loads == 1

    @pytest.mark.parametrize(
        "budgets",
        [
            # device-shaped: a small shared LRU, schedules on their own
            # budget, plus the disk tier
            {"capacity": 3, "schedule_capacity": 2},
            # every budget 0: nothing is kept, every lookup misses
            {"capacity": 0, "schedule_capacity": 0},
        ],
        ids=["device", "budget0"],
    )
    def test_every_kind_matches_its_telemetry(self, budgets, tmp_path):
        specs = corpus_specs(count=3, nnz_cap=2_000)
        with telemetry.capture() as cap:
            store = ArtifactStore(disk_dir=str(tmp_path), **budgets)
            runner = PipelineRunner(store)
            for _ in range(2):
                for spec in specs:
                    runner.analyze(spec, "crhcs")
                    # the only pass snapshots: reschedule's own store
                    runner.reschedule(spec, "crhcs", steal_tries=4)
                    runner.analyze(spec, "pe_aware")
                    runner.analyze(spec, "pe_aware")
                runner.estimate(specs[1], "pe_aware")
        totals = _cache_totals(cap.records)
        kinds = set(store.hits) | set(store.misses) | set(store.evictions)
        assert kinds == {"load", "schedule", "simulate", "metrics",
                         "estimate"}
        if budgets["capacity"]:
            for kind in ("load", "schedule", "simulate"):
                assert store.hits[kind] and store.evictions[kind], kind
        else:
            assert not store.hits and not store.evictions
        # The reschedule store's fixed budget outlasts this workload, so
        # ``pass`` shows hits and misses but no evictions here (the
        # eviction path is the shared LRU's, exercised above).
        passes = runner._reschedule_store
        assert passes.hits["pass"] and passes.misses["pass"]
        assert not passes.evictions
        assert {stage for _name, stage in totals} == kinds | {"pass"}
        for kind, owner in [(k, store) for k in kinds] + [("pass", passes)]:
            for name, table in (("hits", owner.hits),
                                ("misses", owner.misses),
                                ("evictions", owner.evictions)):
                assert totals.get((f"pipeline.cache.{name}", kind), 0) == (
                    table.get(kind, 0)
                ), (name, kind)
        assert store.disk_loads > 0
        assert totals[("pipeline.cache.disk_loads", "schedule")] == (
            store.disk_loads
        )


def _pinned(source, span, *counts, steal_tries=8, max_rows=0):
    """One golden row of the walk counters.  Its id is the source, span
    and counts, then any setting off the default (``steal_tries`` 8, one
    tile)."""
    labels = [source, span, *counts]
    if steal_tries != 8:
        labels.append(f"tries{steal_tries}")
    if max_rows:
        labels.append(f"rows{max_rows}")
    return pytest.param(
        source, span, steal_tries, max_rows, *counts,
        id="-".join(map(str, labels)),
    )


def _walk_totals(source, span, steal_tries, max_rows):
    """The ``scheduler.crhcs`` walk counters of one cold schedule."""
    if source == "uniform128":
        matrix = uniform_random(128, 128, 1_800, seed=0)
    elif source == "power_law":
        matrix = power_law_rows(2_000, 2_000, 20_000, seed=4)
    else:
        matrix = generate_named(source)
    config = replace(DEFAULT_CHASON, migration_span=span)
    with telemetry.capture() as cap:
        schedule_crhcs(
            matrix, config, steal_tries=steal_tries,
            max_rows_per_pass=max_rows,
        )
    return {
        name: sum(
            r["value"] for r in cap.records
            if r["name"] == f"scheduler.crhcs.{name}"
        )
        for name in ("prefix_slots", "walk_slots", "jumped_holes")
    }


class TestLayoutCounters:
    """``scheduler.layout.tiles``/``rows``: tiles laid out and the cycle
    rows they fill, counted where every tile is laid out."""

    @staticmethod
    def _layouts(records):
        return tuple(
            sum(r["value"] for r in records if r["name"] == name)
            for name in ("scheduler.layout.tiles", "scheduler.layout.rows")
        )

    def test_an_analysis_lays_out_nothing_until_a_plan_compiles(self):
        matrix = uniform_random(128, 128, 1_800, seed=0)
        runner = PipelineRunner(store=ArtifactStore(capacity=8))
        with telemetry.capture() as cap:
            result = runner.analyze(matrix, "crhcs")
        assert result.report.underutilization_pct > 0
        assert self._layouts(cap.records) == (0, 0)
        with telemetry.capture() as cap:
            result.scheduled.replay_plan()
        assert self._layouts(cap.records) == (1, 336)
        schedule = result.scheduled.schedule
        with telemetry.capture() as cap:
            compile_plan(schedule, result.scheduled.config)
            for tile in schedule.tiles:
                for grid in tile.grids:
                    grid.element_arrays()
        assert self._layouts(cap.records) == (0, 0)

    def test_nothing_is_counted_while_telemetry_is_off(self, monkeypatch):
        emitted = []
        monkeypatch.setattr(
            telemetry.NULL, "counter",
            lambda name, *args, **kwargs: emitted.append(name),
        )
        matrix = uniform_random(128, 128, 1_800, seed=0)
        runner = PipelineRunner(store=ArtifactStore(capacity=8))
        runner.analyze(matrix, "crhcs").scheduled.replay_plan()
        assert not [name for name in emitted if "layout" in name]


class TestMigrationCounters:
    def test_pair_counters_fold_the_migration_report(self):
        report = MigrationReport()
        with telemetry.capture() as cap:
            schedule_crhcs(MATRIX, DEFAULT_CHASON, report=report)
        pair_total = sum(
            r["value"]
            for r in cap.records
            if r["name"] == "scheduler.crhcs.migrated_pair"
        )
        migrated_total = sum(
            r["value"]
            for r in cap.records
            if r["name"] == "scheduler.crhcs.migrated"
        )
        assert pair_total == report.migrated == migrated_total
        assert report.migrated == sum(report.pair_counts.values())
        prefix = sum(
            r["value"] for r in cap.records
            if r["name"] == "scheduler.crhcs.prefix_slots"
        )
        walk = sum(
            r["value"] for r in cap.records
            if r["name"] == "scheduler.crhcs.walk_slots"
        )
        assert prefix + walk == report.migrated

    @pytest.mark.parametrize(
        "source, span, steal_tries, max_rows, prefix, walk",
        [
            _pinned("CollegeMsg", 1, 137, 20_159),
            _pinned("CollegeMsg", 2, 126, 20_170),
            _pinned("uniform128", 1, 151, 1_649),
            _pinned("CollegeMsg", 1, 1_142, 19_154, max_rows=256),
            _pinned("CollegeMsg", 1, 137, 20_159, steal_tries=1),
            _pinned("uniform128", 1, 151, 1_649, steal_tries=3),
            _pinned("power_law", 2, 162, 19_838),
        ],
    )
    def test_prefix_walk_split_is_pinned(
        self, source, span, steal_tries, max_rows, prefix, walk
    ):
        """Golden split: a step's prefix is the slots it fills before its
        first RAW skip when nothing has migrated into its destination
        yet; every other migrated slot is a walk slot.  Rows cover one
        and eight tiles (``max_rows_per_pass``), windows of 1, 3 and 8
        candidates and a power-law matrix at span 2."""
        totals = _walk_totals(source, span, steal_tries, max_rows)
        assert (totals["prefix_slots"], totals["walk_slots"]) == (
            prefix, walk
        )

    @pytest.mark.parametrize(
        "source, span, steal_tries, max_rows, jumped",
        [
            _pinned("CollegeMsg", 1, 14_735),
            _pinned("CollegeMsg", 2, 14_541),
            _pinned("uniform128", 1, 447),
            _pinned("CollegeMsg", 1, 32_216, max_rows=256),
            _pinned("CollegeMsg", 1, 14_981, steal_tries=1),
            _pinned("uniform128", 1, 442, steal_tries=3),
            _pinned("power_law", 2, 31_994),
        ],
    )
    def test_jumped_holes_are_pinned(
        self, source, span, steal_tries, max_rows, jumped
    ):
        """Golden count of the holes the walk jumps over: each would have
        failed a full ``steal_tries`` scan, and each still counts those
        skips in ``raw_skips``."""
        totals = _walk_totals(source, span, steal_tries, max_rows)
        assert totals["jumped_holes"] == jumped


class TestWarnOnce:
    def test_invalid_workers_env_warns_once(self, monkeypatch, caplog):
        monkeypatch.setenv(WORKERS_ENV, "eight")
        with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
            assert corpus_worker_count() == 1
            assert corpus_worker_count() == 1
        warnings = [
            r for r in caplog.records if "REPRO_CORPUS_WORKERS" in r.message
        ]
        assert len(warnings) == 1
        assert "'eight'" in warnings[0].message
        assert "serial" in warnings[0].message

    def test_warning_counted_in_telemetry(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "garbage")
        with telemetry.capture() as cap:
            corpus_worker_count()
        counters = [
            r for r in cap.records
            if r["kind"] == "counter" and r["name"] == "telemetry.warnings"
        ]
        assert len(counters) == 1
        assert counters[0]["attrs"]["key"] == "invalid_corpus_workers"


class TestTraceRenderLimit:
    def test_default_limit_names_the_override(self):
        trace = ScheduleTrace(timelines={}, cycles=600)
        with pytest.raises(SimulationError) as excinfo:
            trace.render()
        message = str(excinfo.value)
        assert "512" in message
        assert "max_cycles" in message

    def test_parameter_override(self):
        trace = ScheduleTrace(timelines={}, cycles=600)
        assert trace.render(max_cycles=1000) == ""


class TestSummarize:
    def test_report_renders_spans_counters_gauges(self):
        with telemetry.capture() as cap:
            with cap.span("corpus.run"):
                with cap.span("corpus.spec", index=0):
                    cap.counter("cache.hits", 3)
            cap.gauge("runner.specs_per_s", 12.5)
        report = summarize_records(cap.records)
        assert "corpus.run" in report
        assert "corpus.spec" in report
        assert "cache.hits" in report
        assert "runner.specs_per_s" in report

    def test_counter_totals_sum_across_flushes(self):
        with telemetry.capture() as cap:
            cap.counter("n", 2)
            cap.flush()
            cap.counter("n", 5)
        report = summarize_records(cap.records)
        assert "7" in report


class TestManifest:
    def test_manifest_written_alongside_bench_json(self, tmp_path):
        from repro.telemetry import write_manifest

        bench = tmp_path / "BENCH_test.json"
        bench.write_text("{}\n")
        path = write_manifest(bench, workers=3, extra={"bench": "test"})
        assert path.name == "BENCH_test.manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["workers"] == 3
        assert manifest["bench"] == "test"
        assert manifest["python"]
        assert manifest["numpy"]
        assert len(manifest["config_hash"]) == 16


class TestCli:
    def test_telemetry_flag_and_summarize_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "cli.jsonl"
        assert main(
            ["--telemetry", str(trace), "schedule", "CollegeMsg",
             "--scheme", "pe_aware"]
        ) == 0
        assert trace.exists()
        assert validate_file(trace) > 0
        assert main(["telemetry", "summarize", str(trace),
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schedule.pe_aware" in out
        assert "validate against the event schema" in out

    def test_schema_subcommand_prints_json_schema(self, capsys):
        from repro.cli import main

        assert main(["telemetry", "schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["title"] == "repro telemetry event record"
