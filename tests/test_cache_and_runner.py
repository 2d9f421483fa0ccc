"""Unit tests for the artifact store's schedule kind and the corpus runner."""

import os

import pytest

from repro.config import DEFAULT_CHASON, DEFAULT_SERPENS
from repro.analysis.runner import (
    WORKERS_ENV,
    corpus_worker_count,
    run_over_specs,
)
from repro.matrices.collection import corpus_specs
from repro.pipeline import ArtifactStore, PipelineRunner
from repro.pipeline.stages import ScheduleStage
from repro.scheduling.pe_aware import schedule_pe_aware

SPEC = corpus_specs(count=1, nnz_cap=2_000)[0]
MATRIX = SPEC.generate()


def _build_pe_aware():
    return schedule_pe_aware(MATRIX, DEFAULT_SERPENS)


class TestScheduleKind:
    def test_hit_returns_same_object(self):
        store = ArtifactStore(schedule_capacity=4)
        first = store.get_or_build("schedule", "d0", _build_pe_aware)
        second = store.get_or_build("schedule", "d0", _build_pe_aware)
        assert first is second
        assert store.stage_hits("schedule") == 1
        assert store.stage_misses("schedule") == 1

    def test_scheme_and_config_partition_the_key_space(self):
        runner = PipelineRunner(ArtifactStore(schedule_capacity=4))
        pe_aware = runner.schedule(SPEC, "pe_aware", DEFAULT_SERPENS)
        crhcs = runner.schedule(SPEC, "crhcs", DEFAULT_CHASON)
        pe_chason = runner.schedule(SPEC, "pe_aware", DEFAULT_CHASON)
        assert len({id(pe_aware), id(crhcs), id(pe_chason)}) == 3
        assert runner.store.stage_misses("schedule") == 3
        # The kind partitions the keys too: one digest, two artifacts.
        runner.store.put("simulate", pe_aware.fingerprint, "cycles")
        assert runner.schedule(SPEC, "pe_aware", DEFAULT_SERPENS) is pe_aware

    def test_lru_evicts_oldest(self):
        store = ArtifactStore(schedule_capacity=2)
        for digest in ("a", "b", "c"):
            store.get_or_build("schedule", digest, _build_pe_aware)
        assert len(store) == 2
        assert store.evictions == {"schedule": 1}
        # "a" was evicted: rebuilding it is a miss, "c" is still a hit.
        store.get_or_build("schedule", "c", _build_pe_aware)
        assert store.stage_hits("schedule") == 1
        store.get_or_build("schedule", "a", _build_pe_aware)
        assert store.stage_misses("schedule") == 4

    def test_capacity_zero_disables_memoisation(self):
        store = ArtifactStore(schedule_capacity=0)
        first = store.get_or_build("schedule", "d0", _build_pe_aware)
        second = store.get_or_build("schedule", "d0", _build_pe_aware)
        assert first is not second
        assert len(store) == 0
        assert store.stage_misses("schedule") == 2

    def test_disk_tier_round_trips_the_wire_format(
        self, tmp_path, monkeypatch
    ):
        writer = PipelineRunner(
            ArtifactStore(schedule_capacity=0, disk_dir=str(tmp_path))
        )
        built = writer.schedule(SPEC, "pe_aware")
        files = [f for f in os.listdir(tmp_path) if f.endswith(".chsn")]
        assert files == [f"{built.fingerprint}.chsn"]

        monkeypatch.setattr(
            ScheduleStage, "run",
            lambda *args, **kwargs: pytest.fail(
                "disk hit expected, schedule built"
            ),
        )
        reader = ArtifactStore(schedule_capacity=0, disk_dir=str(tmp_path))
        restored = PipelineRunner(reader).schedule(SPEC, "pe_aware")
        assert reader.disk_loads == 1
        assert restored.fingerprint == built.fingerprint
        assert restored.migration is None
        assert restored.schedule.stream_cycles == built.schedule.stream_cycles
        assert restored.schedule.nnz == built.schedule.nnz
        # Wire format stores float32 values; stall structure is exact.
        assert restored.schedule.total_stalls == built.schedule.total_stalls

    def test_clear_resets_counters(self):
        store = ArtifactStore(schedule_capacity=4)
        store.get_or_build("schedule", "d0", _build_pe_aware)
        store.clear()
        assert (len(store), store.hits, store.misses) == (0, {}, {})


def _square(value):
    return value * value


class TestCorpusRunner:
    def test_worker_count_defaults_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert corpus_worker_count() == 1
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert corpus_worker_count() == 1
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert corpus_worker_count() == 1
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert corpus_worker_count() == 4

    def test_serial_map_preserves_order(self):
        assert run_over_specs(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        items = list(range(17))
        serial = run_over_specs(_square, items, workers=1)
        parallel = run_over_specs(_square, items, workers=2)
        assert parallel == serial

    def test_single_item_never_forks(self):
        # len(items) <= 1 short-circuits to the serial path even with
        # workers > 1, so non-picklable workers are fine here.
        assert run_over_specs(lambda v: v + 1, [41], workers=8) == [42]
