"""Unit tests for the artifact store (its schedule kind and its eviction
policy) and the corpus runner."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
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


#: Entries each budget protects once hit: ``capacity - max(1,
#: capacity // 5)``, so probation always keeps a slot.
PROTECTED = {2: 1, 5: 4, 16: 13, 64: 52}


class TestSegmentedLru:
    @pytest.mark.parametrize("capacity", [2, 5, 16, 64])
    @pytest.mark.parametrize("own_budget", [False, True])
    def test_a_hit_hot_set_survives_any_number_of_one_off_inserts(
        self, capacity, own_budget
    ):
        if own_budget:
            store, kind = ArtifactStore(schedule_capacity=capacity), "schedule"
        else:
            store, kind = ArtifactStore(capacity=capacity), "simulate"
        hot = [f"hot{index}" for index in range(PROTECTED[capacity])]
        for digest in hot:
            store.put(kind, digest, digest)
            assert store.get(kind, digest) == digest
        one_offs = 10_000
        for index in range(one_offs):
            store.put(kind, f"once{index}", index)
        assert all(store.get(kind, digest) == digest for digest in hot)
        assert len(store) == capacity
        assert store.evictions[kind] == len(hot) + one_offs - capacity

    def test_an_overflowing_hit_demotes_the_least_recent_protected_entry(
        self,
    ):
        """Capacity 10 protects 8.  A ninth promoted key demotes the
        least recent protected one to probation's recent end: it then
        goes after the older probation entry, before any protected one."""

        def store_after(one_offs):
            store = ArtifactStore(schedule_capacity=10)
            for digest in ("old", "ninth"):
                store.put("schedule", digest, digest)
            protected = [f"p{index}" for index in range(8)]
            for digest in protected:
                store.put("schedule", digest, digest)
                store.get("schedule", digest)
            store.get("schedule", "ninth")  # demotes p0
            for index in range(one_offs):
                store.put("schedule", f"once{index}", index)
            return store, protected[1:] + ["ninth"]

        store, _ = store_after(1)
        assert store.get("schedule", "old") is None
        assert store.get("schedule", "p0") == "p0"
        store, _ = store_after(2)
        assert store.get("schedule", "p0") is None
        store, protected = store_after(1_000)
        assert all(store.get("schedule", d) == d for d in protected)
        assert store.evictions == {"schedule": 2 + 8 + 1_000 - 10}

    def test_capacity_one_is_a_plain_lru(self):
        store = ArtifactStore(capacity=1)
        store.put("load", "a", "a")
        assert store.get("load", "a") == "a"
        store.put("load", "b", "b")
        assert store.get("load", "a") is None
        assert store.get("load", "b") == "b"

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(0, 6),
        schedule_capacity=st.integers(0, 6),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(["schedule", "simulate", "metrics"]),
                st.integers(0, 9),
            ),
            max_size=80,
        ),
    )
    def test_random_traffic_keeps_budgets_and_books(
        self, capacity, schedule_capacity, ops
    ):
        """Any put/get sequence, over a kind with its own budget and two
        sharing one: the store never outgrows its budgets, every get is
        one hit or one miss, and the telemetry counters equal the
        store's own."""
        gets = {}
        with telemetry.capture() as tel:
            store = ArtifactStore(
                capacity=capacity, schedule_capacity=schedule_capacity
            )
            for is_put, kind, key in ops:
                if is_put:
                    store.put(kind, str(key), (kind, key))
                else:
                    gets[kind] = gets.get(kind, 0) + 1
                    artifact = store.get(kind, str(key))
                    assert artifact in (None, (kind, key))
                assert len(store) <= capacity + schedule_capacity
        for kind, count in gets.items():
            assert store.stage_hits(kind) + store.stage_misses(kind) == count
        emitted = {}
        for record in tel.records:
            if record["kind"] == "counter":
                key = (record["name"], record["attrs"]["stage"])
                emitted[key] = emitted.get(key, 0) + record["value"]
        books = {
            (f"pipeline.cache.{name}", kind): value
            for name, table in (("hits", store.hits),
                                ("misses", store.misses),
                                ("evictions", store.evictions))
            for kind, value in table.items()
        }
        assert emitted == books


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
