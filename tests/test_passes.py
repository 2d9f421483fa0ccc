"""Tests for the Schedule-IR pass pipeline.

Covers the golden differential (every registered scheme, byte-identical
to the pre-refactor monolithic builders over the 30-matrix mini-corpus),
incremental rescheduling (random in-place edits → byte-identical output
with strictly fewer tile-passes executed), the per-pass artifact cache
behind reschedule (a MigratePass-only config change reuses cached
BuildGridPass artifacts), registry pass-list validation, the ``schedule.pass.*``
telemetry spans, and the CLI surfaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.config import DEFAULT_SERPENS
from repro.errors import ConfigError
from repro.formats.coo import COOMatrix
from repro.matrices.collection import corpus_specs
from repro.pipeline import PipelineRunner
from repro.pipeline.stages import ScheduleStage
from repro.pipeline.store import ArtifactStore
from repro.scheduling.base import TiledSchedule
from repro.scheduling.crhcs import schedule_crhcs, schedule_crhcs_tile
from repro.scheduling.greedy import schedule_greedy_tile
from repro.scheduling.passes import (
    known_pass_names,
    resolve_passes,
    schedules_identical,
    validate_pass_name,
)
from repro.scheduling.passes.fingerprint import encode
from repro.scheduling.pe_aware import schedule_pe_aware_tile
from repro.scheduling.registry import get_scheme, register_scheme, unregister
from repro.scheduling.row_based import schedule_row_based_tile
from repro.scheduling.row_split import schedule_row_split_tile
from repro.scheduling.stats import MigrationReport
from repro.scheduling.window import tile_matrix
from repro.telemetry.summarize import (
    summarize_records,
    summarize_schedule_passes,
)

MINI_CORPUS = list(corpus_specs(count=30, nnz_cap=4_000))

#: scheme name → the pre-refactor per-tile builder it must reproduce.
REFERENCE_TILE = {
    "pe_aware": lambda tile, config: schedule_pe_aware_tile(tile, config),
    "greedy_ooo": lambda tile, config: schedule_greedy_tile(tile, config),
    "row_based": lambda tile, config: schedule_row_based_tile(tile, config),
    "row_split": lambda tile, config: schedule_row_split_tile(tile, config),
    "crhcs": lambda tile, config: schedule_crhcs_tile(tile, config),
    "crhcs_rebuild": lambda tile, config: schedule_crhcs_tile(
        tile, config, mode="rebuild"
    ),
}


def _reference_schedule(matrix, name, config):
    tiles = tile_matrix(matrix, config, 0)
    built = [REFERENCE_TILE[name](tile, config) for tile in tiles]
    return TiledSchedule(
        config=config,
        tiles=built,
        scheme=built[0].scheme if built else name,
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
    )


def _multi_tile_matrix(seed, n=1200, nnz=8_000):
    rng = np.random.default_rng(seed)
    return COOMatrix(
        shape=(n, n),
        rows=rng.integers(0, n, nnz),
        cols=rng.integers(0, n, nnz),
        values=rng.random(nnz) + 0.5,
    ).sum_duplicates()


# ---------------------------------------------------------------------------
# golden differential: pass pipeline vs monolithic builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", MINI_CORPUS, ids=[f"corpus{s.index}" for s in MINI_CORPUS]
)
def test_pass_pipeline_matches_monolithic_builders(spec):
    matrix = spec.generate()
    for name in sorted(REFERENCE_TILE):
        scheme = get_scheme(name)
        config = scheme.default_config
        fast = scheme.scheduler(matrix, config)
        slow = _reference_schedule(matrix, name, config)
        assert schedules_identical(fast, slow), name


def test_crhcs_migration_report_matches_tile_composition():
    matrix = MINI_CORPUS[0].generate()
    scheme = get_scheme("crhcs")
    config = scheme.default_config
    pipeline_report = MigrationReport()
    scheme.scheduler(matrix, config, report=pipeline_report)
    tile_report = MigrationReport()
    for tile in tile_matrix(matrix, config, 0):
        schedule_crhcs_tile(tile, config, report=tile_report)
    assert pipeline_report.migrated == tile_report.migrated
    assert pipeline_report.own_issues == tile_report.own_issues
    assert pipeline_report.raw_skips == tile_report.raw_skips
    assert dict(pipeline_report.pair_counts) == dict(tile_report.pair_counts)


def test_every_registered_scheme_declares_a_pass_list():
    for name in sorted(REFERENCE_TILE):
        scheme = get_scheme(name)
        assert scheme.passes, name
        assert scheme.plan is not None, name
        for pass_name in scheme.passes:
            validate_pass_name(pass_name)
        plan = scheme.pass_plan(scheme.default_config, {})
        assert [p.token for p in plan] == list(scheme.passes)


# ---------------------------------------------------------------------------
# incremental rescheduling
# ---------------------------------------------------------------------------


def test_incremental_reschedule_edits_byte_identical_fewer_passes():
    runner = PipelineRunner()
    matrix = _multi_tile_matrix(11)
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    cold_total = runner.last_reschedule_stats.executed_total
    n_tiles = len(tile_matrix(matrix, DEFAULT_SERPENS, 150))
    assert n_tiles >= 4

    rng = np.random.default_rng(5)
    for _ in range(3):
        for site in rng.integers(0, matrix.nnz, 2):
            matrix.values[int(site)] += 1.0
        warm = runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
        stats = runner.last_reschedule_stats
        assert stats.executed_total < cold_total
        assert stats.skipped_total > 0
        fresh = PipelineRunner().schedule(
            matrix, "crhcs", max_rows_per_pass=150
        )
        assert schedules_identical(warm.schedule, fresh.schedule)


def test_incremental_scheduler_noop_resumes_every_cacheable_pass():
    runner = PipelineRunner()
    matrix = _multi_tile_matrix(3)
    first = runner.reschedule(matrix, "pe_aware", max_rows_per_pass=150)
    assert "build:pe_aware" in runner.last_reschedule_stats.executed
    second = runner.reschedule(matrix, "pe_aware", max_rows_per_pass=150)
    assert schedules_identical(first.schedule, second.schedule)
    stats = runner.last_reschedule_stats
    assert "build:pe_aware" not in stats.executed
    assert stats.skipped["build:pe_aware"] == len(first.schedule.tiles)


def test_reschedule_rejects_non_pass_schemes():
    runner = PipelineRunner()
    with pytest.raises(ConfigError, match="no pass"):
        register_scheme(
            name="tmp_monolith",
            version="1",
            default_config=DEFAULT_SERPENS,
            power_key="serpens",
        )(lambda matrix, config: None)
        try:
            runner.reschedule(_multi_tile_matrix(1), "tmp_monolith")
        finally:
            unregister("tmp_monolith")


# ---------------------------------------------------------------------------
# the per-pass artifact cache (and the cache-key bugfix)
# ---------------------------------------------------------------------------


def test_migrate_only_config_change_reuses_build_artifacts():
    """Regression: a MigratePass-only parameter change must reuse every
    cached BuildGridPass artifact instead of rebuilding from scratch."""
    runner = PipelineRunner()
    matrix = _multi_tile_matrix(7)
    first = runner.reschedule(
        matrix, "crhcs", max_rows_per_pass=150, steal_tries=8
    )
    n_tiles = len(first.schedule.tiles)
    assert runner.last_reschedule_stats.skipped_total == 0

    second = runner.reschedule(
        matrix, "crhcs", max_rows_per_pass=150, steal_tries=4
    )
    # Different steal_tries → different migrate digests, but the build
    # prefix of the pass chain is unchanged and every tile resumes from
    # its cached build artifact.
    stats = runner.last_reschedule_stats
    assert "build:pe_aware" not in stats.executed
    assert stats.skipped["build:pe_aware"] == n_tiles
    assert stats.executed["migrate:crhcs"] == n_tiles
    # Resuming is invisible in the output: byte-identical to a cold,
    # store-less build under the new parameter.
    cold = PipelineRunner().schedule(
        matrix, "crhcs", max_rows_per_pass=150, steal_tries=4
    )
    assert schedules_identical(second.schedule, cold.schedule)


def test_schedule_fingerprint_folds_pass_signature_and_skips_private():
    scheme = get_scheme("row_split")
    config = scheme.default_config
    base = ScheduleStage.fingerprint_for(
        "m0", scheme, config, {"split_threshold": 7}
    )
    other = ScheduleStage.fingerprint_for(
        "m0", scheme, config, {"split_threshold": 9}
    )
    assert base != other
    private = ScheduleStage.fingerprint_for(
        "m0", scheme, config,
        {"split_threshold": 7, "_pass_cache": ArtifactStore()},
    )
    assert private == base


def test_pass_cache_lru():
    empty = ArtifactStore(capacity=0)
    empty.put("pass", "anything", object())
    assert empty.get("pass", "anything") is None
    store = ArtifactStore(capacity=2)
    for digest in ("a", "b", "c"):
        store.put("pass", digest, digest)
    assert store.get("pass", "a") is None
    assert store.get("pass", "c") == "c"
    assert store.evictions == {"pass": 1}


def test_reschedule_store_clear_clears_pass_tier():
    runner = PipelineRunner()
    matrix = _multi_tile_matrix(3)
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    store = runner._reschedule_store
    assert store.stage_misses("pass") > 0 and store.last_pass_stats
    store.clear()
    assert len(store) == 0
    assert store.misses == {} and store.last_pass_stats is None
    # Cleared means cold: the next call resumes nothing.
    runner.reschedule(matrix, "crhcs", max_rows_per_pass=150)
    assert runner.last_reschedule_stats.skipped_total == 0


# ---------------------------------------------------------------------------
# registry pass-list validation
# ---------------------------------------------------------------------------


def test_register_scheme_rejects_unknown_pass_with_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'compact'"):
        register_scheme(
            name="tmp_bad_passes",
            version="1",
            default_config=DEFAULT_SERPENS,
            power_key="serpens",
            passes=("build:pe_aware", "compactt"),
            plan=lambda config, kwargs: [],
        )(lambda matrix, config: None)
    unregister("tmp_bad_passes")


def test_register_scheme_requires_plan_with_passes():
    with pytest.raises(ConfigError, match="no plan"):
        register_scheme(
            name="tmp_planless",
            version="1",
            default_config=DEFAULT_SERPENS,
            power_key="serpens",
            passes=("compact",),
        )(lambda matrix, config: None)
    unregister("tmp_planless")


def test_resolve_passes_unknown_name_raises():
    with pytest.raises(ConfigError, match="did you mean"):
        resolve_passes(("build:pe_awre",))


def test_known_pass_names_cover_builtin_kernels():
    names = known_pass_names()
    for expected in (
        "build:pe_aware", "build:greedy", "build:row_based",
        "build:row_split", "build:crhcs_rebuild", "migrate:crhcs",
        "compact", "trim", "verify",
    ):
        assert expected in names


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


def test_schedule_pass_spans_and_summary_section():
    matrix = MINI_CORPUS[1].generate()
    scheme = get_scheme("crhcs")
    with telemetry.capture() as cap:
        scheme.scheduler(matrix, scheme.default_config)
    spans = [
        r for r in cap.records
        if r["kind"] == "span"
        and r["name"].rsplit("/", 1)[-1].startswith("schedule.pass.")
    ]
    tokens = {r["attrs"]["token"] for r in spans}
    assert tokens == {
        "build:pe_aware", "migrate:crhcs", "compact", "trim", "verify"
    }
    for record in spans:
        assert record["attrs"]["scheme"] == "crhcs"
        assert record["attrs"]["tiles"] >= 1
        assert record["attrs"]["resumed"] == 0
    section = summarize_schedule_passes(cap.records)
    assert "migrate:crhcs" in section
    assert "schedule passes" in summarize_records(cap.records)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list_passes(self, capsys):
        assert main(["schedule", "--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "build:pe_aware" in out
        assert "migrate:crhcs" in out
        assert "crhcs          build:pe_aware -> migrate:crhcs" in out

    def test_info_shows_pass_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "scheme pass pipelines:" in out
        assert "build:pe_aware -> migrate:crhcs -> compact" in out

    def test_reschedule_command(self, capsys):
        assert main([
            "reschedule", "reorientation_4",
            "--scheme", "crhcs", "--edits", "2", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical to a cold schedule: yes" in out
        assert "resumed from cache" in out

    def test_reschedule_rejects_bad_edits(self, capsys):
        assert main([
            "reschedule", "reorientation_4", "--edits", "0",
        ]) == 1


# -- digest encoding: chained tails and array buffers ------------------------


def _reference_encode(value):
    """The canonical encoding as it was written before arrays were fed
    as buffers: every array copied with ``tobytes()``."""
    if isinstance(value, np.ndarray):
        return (b"\x06a" + str(value.dtype).encode()
                + str(value.shape).encode()
                + np.ascontiguousarray(value).tobytes() + b"\x1f")
    if isinstance(value, tuple):
        return b"\x09l" + b"".join(map(_reference_encode, value)) + b"\x1f"
    return encode(value)


ARRAYS = [
    np.arange(12, dtype=np.int64),
    np.arange(12, dtype=np.int32),
    np.linspace(0, 1, 12, dtype=np.float32),
    np.linspace(0, 1, 12),
    np.arange(12) % 3 == 0,
    np.arange(12, dtype=np.uint8),
    np.arange(12, dtype=">i4"),
    np.arange(24.0).reshape(4, 6)[:, ::2],  # not contiguous
    np.arange(24).reshape(4, 6).T,
    np.arange(12)[::-1],
    np.array(2.5),
    np.empty((0, 3)),
]


@pytest.mark.parametrize("array", ARRAYS, ids=range(len(ARRAYS)))
def test_an_array_digests_as_its_copied_bytes(array):
    import hashlib

    from repro.scheduling.passes.fingerprint import fingerprint

    expected = hashlib.sha256(_reference_encode(array)).hexdigest()
    assert fingerprint(array) == expected
    assert encode(array) == _reference_encode(array)
    assert fingerprint("x", tail=encode(array, (array, 3))) == fingerprint(
        "x", array, (array, 3)
    )


def test_every_pass_chains_by_its_encoded_signature():
    from repro.scheduling.passes.fingerprint import fingerprint

    for name in known_pass_names():
        (schedule_pass,) = resolve_passes(
            [name], {"migration_span": 1, "steal_tries": 8,
                     "split_threshold": 7}
        )
        encoded = schedule_pass.encoded_signature()
        assert encoded is schedule_pass.encoded_signature()
        assert encoded == _reference_encode(schedule_pass.signature())
        assert fingerprint("pass", "d0", tail=encoded) == fingerprint(
            "pass", "d0", schedule_pass.signature()
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["crhcs", "pe_aware"]))
def test_drawn_tiles_chain_the_digests_they_did(seed, scheme):
    """A tile's chain, as the pass manager computes it, equals the chain
    of ``fingerprint("pass", upstream, signature)`` over copied bytes."""
    import hashlib

    from repro.scheduling.passes.fingerprint import (
        fingerprint_config,
        fingerprint_tile,
    )

    class Recorder(ArtifactStore):
        def __init__(self):
            super().__init__()
            self.keys = []

        def get(self, kind, key):
            self.keys.append(key)
            return super().get(kind, key)

    rng = np.random.default_rng(seed)
    matrix = COOMatrix(
        (300, 90), rng.integers(0, 300, 400), rng.integers(0, 90, 400),
        rng.uniform(0.5, 1.5, 400),
    )
    spec = get_scheme(scheme)
    config = spec.default_config
    store = Recorder()
    spec.scheduler(matrix, config, max_rows_per_pass=100, _pass_cache=store)
    plan = spec.plan(config, {})
    config_digest = fingerprint_config(config)
    expected = []
    for tile in tile_matrix(matrix, config, 100):
        digest = hashlib.sha256(
            _reference_encode("tile") + _reference_encode(config_digest)
            + b"".join(_reference_encode(v) for v in (
                tile.row_base, tile.col_base, tile.n_rows, tile.n_cols,
                tile.rows, tile.cols, tile.values))
        ).hexdigest()
        assert digest == fingerprint_tile(tile, config_digest)
        chain = []
        for schedule_pass in plan:
            digest = hashlib.sha256(
                _reference_encode("pass") + _reference_encode(digest)
                + _reference_encode(schedule_pass.signature())
            ).hexdigest()
            chain.append(digest)
        expected += [key for key, p in zip(reversed(chain), reversed(plan))
                     if p.cacheable]
    assert store.keys == expected
