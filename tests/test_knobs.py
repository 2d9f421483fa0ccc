"""The numeric-knob rule, read through every consumer's accessor, and
the faults the per-module parsers used to have."""

from __future__ import annotations

import logging
import math
import threading
import time

import pytest

from repro import telemetry
from repro.analysis.experiments import (
    _resolve_corpus_specs,
    default_corpus_size,
)
from repro.analysis.runner import corpus_worker_count
from repro.cli import main
from repro.cluster import Autoscaler, Cluster
from repro.cluster.autoscaler import (
    autoscale_down_depth,
    autoscale_interval_s,
    autoscale_max_devices,
    autoscale_min_devices,
    autoscale_up_depth,
    autoscale_up_latency_ms,
)
from repro.cluster.cluster import (
    cluster_device_count,
    cluster_hedge_ms,
    cluster_max_attempts,
    cluster_replica_count,
)
from repro.errors import ConfigError
from repro.estimator.fidelity import resolve_audit_rate, resolve_fidelity
from repro.knobs import RUNTIME_KNOBS
from repro.matrices.collection import CORPUS_SIZE
from repro.pipeline.store import (
    PIPELINE_CACHE_SIZE,
    SCHEDULE_CACHE_SIZE,
    budget_from_env,
)
from repro.serving.engine import (
    serve_max_batch,
    serve_queue_capacity,
    serve_worker_count,
)
from repro.serving.resident import session_state_budget
from repro.sessions import session_iter_batch, session_max
from repro.telemetry.tracing import resolve_trace_sample
from repro.tenancy import tenant_burn_shed_threshold, tenant_quota_fraction

#: Each numeric knob's public accessor: the consumer's own read.
ACCESSORS = {
    "REPRO_CORPUS_COUNT": lambda: default_corpus_size()[0],
    "REPRO_CORPUS_NNZ_CAP": lambda: default_corpus_size()[1] or 0,
    "REPRO_CORPUS_WORKERS": corpus_worker_count,
    "REPRO_SCHEDULE_CACHE_SIZE": lambda: budget_from_env(
        SCHEDULE_CACHE_SIZE),
    "REPRO_PIPELINE_CACHE_SIZE": lambda: budget_from_env(
        PIPELINE_CACHE_SIZE),
    "REPRO_TRACE_SAMPLE": resolve_trace_sample,
    "REPRO_SERVE_WORKERS": serve_worker_count,
    "REPRO_SERVE_QUEUE": serve_queue_capacity,
    "REPRO_SERVE_BATCH": serve_max_batch,
    "REPRO_AUDIT_RATE": resolve_audit_rate,
    "REPRO_SESSION_MAX": session_max,
    "REPRO_SESSION_STATE_BUDGET": session_state_budget,
    "REPRO_SESSION_ITER_BATCH": session_iter_batch,
    "REPRO_TENANT_QUOTA": tenant_quota_fraction,
    "REPRO_TENANT_BURN_SHED": tenant_burn_shed_threshold,
    "REPRO_CLUSTER_DEVICES": cluster_device_count,
    "REPRO_CLUSTER_REPLICAS": cluster_replica_count,
    "REPRO_CLUSTER_HEDGE_MS": cluster_hedge_ms,
    "REPRO_CLUSTER_RETRIES": cluster_max_attempts,
    "REPRO_AUTOSCALE_MIN": autoscale_min_devices,
    "REPRO_AUTOSCALE_MAX": autoscale_max_devices,
    "REPRO_AUTOSCALE_INTERVAL": autoscale_interval_s,
    "REPRO_AUTOSCALE_UP_DEPTH": autoscale_up_depth,
    "REPRO_AUTOSCALE_DOWN_DEPTH": autoscale_down_depth,
    "REPRO_AUTOSCALE_UP_LATENCY_MS": autoscale_up_latency_ms,
}

NUMERIC = [row for row in RUNTIME_KNOBS if row.kind is not None]


@pytest.fixture(autouse=True)
def _fresh_warnings(monkeypatch):
    for row in RUNTIME_KNOBS:
        monkeypatch.delenv(row.name, raising=False)
    telemetry.reset_warnings()
    yield
    telemetry.reset_warnings()


def _read(row, monkeypatch, raw):
    """``(value, telemetry.warnings keys)`` of one accessor call."""
    monkeypatch.setenv(row.name, raw)
    telemetry.reset_warnings()
    with telemetry.capture() as cap:
        value = ACCESSORS[row.name]()
    keys = [r["attrs"]["key"] for r in cap.records
            if r["name"] == "telemetry.warnings"]
    return value, keys


def _past(bound, kind, direction):
    """The value one step beyond ``bound`` in ``direction``."""
    if kind is int:
        return str(bound + direction)
    return repr(math.nextafter(bound, direction * math.inf))


def test_every_numeric_knob_has_an_accessor():
    assert len(NUMERIC) == 25
    assert set(ACCESSORS) == {row.name for row in NUMERIC}


@pytest.mark.parametrize("row", NUMERIC, ids=lambda row: row.name)
class TestNumericKnobRule:
    def test_unset_and_blank_give_the_parsed_default(self, row,
                                                     monkeypatch):
        default = row.kind(row.default)
        assert row.default_value == default
        assert type(default) is row.kind
        with telemetry.capture() as cap:
            assert ACCESSORS[row.name]() == default
            monkeypatch.setenv(row.name, "  ")
            assert row.current is None
            value = ACCESSORS[row.name]()
        assert value == default and type(value) is row.kind
        assert not [r for r in cap.records
                    if r["name"] == "telemetry.warnings"]

    def test_default_is_inside_the_bounds(self, row):
        assert row.low is None or row.default_value >= row.low
        assert row.high is None or row.default_value <= row.high

    def test_garbage_warns_once_and_gives_the_default(self, row,
                                                      monkeypatch, caplog):
        value, keys = _read(row, monkeypatch, "garbage")
        assert value == row.default_value
        key = "invalid_" + row.name[len("REPRO_"):].lower()
        assert keys == [key]
        # The message names the knob once; a second read stays silent.
        telemetry.reset_warnings()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            ACCESSORS[row.name]()
            ACCESSORS[row.name]()
        assert caplog.text.count(row.name) == 1

    def test_one_step_past_each_bound_clamps(self, row, monkeypatch):
        for bound, direction in ((row.low, -1), (row.high, 1)):
            if bound is None:
                continue
            value, keys = _read(row, monkeypatch, str(bound))
            assert value == bound and keys == []
            value, keys = _read(row, monkeypatch,
                                _past(bound, row.kind, direction))
            assert value == bound and type(value) is row.kind
            assert len(keys) == 1


@pytest.mark.parametrize(
    "row", [row for row in NUMERIC if row.kind is float],
    ids=lambda row: row.name,
)
def test_non_finite_floats_give_the_default(row, monkeypatch):
    for raw in ("nan", "inf", "-inf"):
        value, keys = _read(row, monkeypatch, raw)
        assert value == row.default_value, raw
        assert len(keys) == 1, raw


def test_every_value_is_read_stripped(monkeypatch):
    # One knob at a time: ``REPRO_TELEMETRY=1`` alone would open a trace.
    for row in RUNTIME_KNOBS:
        monkeypatch.setenv(row.name, " \t1 ")
        assert row.current == "1"
        if row.kind is not None:
            assert row.read() == 1
        monkeypatch.delenv(row.name)


def test_corpus_count_bound_is_the_corpus_size():
    row = next(r for r in RUNTIME_KNOBS if r.name == "REPRO_CORPUS_COUNT")
    assert (row.low, row.high) == (1, CORPUS_SIZE)


class TestFixedFaults:
    """Each of these raised, spun or went silent before the knobs had
    one reader."""

    def test_unparsable_corpus_size_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_COUNT", "abc")
        monkeypatch.setenv("REPRO_CORPUS_NNZ_CAP", "lots")
        assert default_corpus_size() == (96, 40_000)

    def test_out_of_range_corpus_count_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_NNZ_CAP", "2000")
        monkeypatch.setenv("REPRO_CORPUS_COUNT", "0")
        assert len(_resolve_corpus_specs(None, None)) == 1
        monkeypatch.setenv("REPRO_CORPUS_COUNT", "801")
        assert len(_resolve_corpus_specs(None, None)) == CORPUS_SIZE

    def test_nan_tenant_quota_warns_and_falls_back(self, monkeypatch,
                                                   caplog):
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "nan")
        with caplog.at_level(logging.WARNING):
            assert tenant_quota_fraction() == 1.0
        assert "REPRO_TENANT_QUOTA" in caplog.text

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_env_interval_keeps_the_loop_paced(
        self, raw, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUTOSCALE_INTERVAL", raw)
        cluster = Cluster(devices=1, replicas=1)
        scaler = Autoscaler(cluster)
        try:
            scaler.start()
            time.sleep(0.3)
            assert scaler._thread.is_alive()
            assert scaler.stats["steps"] <= 1
            assert scaler.interval_s == 1.0
        finally:
            scaler.stop()
            cluster.shutdown(drain=False)

    def test_blank_fidelity_is_unset(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_FIDELITY", " ")
        with caplog.at_level(logging.WARNING):
            assert resolve_fidelity(None, default="estimate") == "estimate"
        assert "REPRO_FIDELITY" not in caplog.text


class TestExplicitAutoscaleInterval:
    def test_below_the_floor_clamps(self):
        cluster = Cluster(devices=1, replicas=1)
        try:
            assert Autoscaler(cluster, interval_s=0).interval_s == 0.01
            assert Autoscaler(cluster, interval_s=0.5).interval_s == 0.5
        finally:
            cluster.shutdown(drain=False)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_raises(self, interval):
        cluster = Cluster(devices=1, replicas=1)
        try:
            with pytest.raises(ConfigError):
                Autoscaler(cluster, interval_s=interval)
        finally:
            cluster.shutdown(drain=False)

    def test_cli_reports_a_non_finite_interval(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"matrix": "CollegeMsg"}\n')
        before = set(threading.enumerate())
        code = main(["cluster", "serve", str(requests), "--devices", "1",
                     "--autoscale", "--autoscale-interval", "nan"])
        assert code == 1
        assert "error: autoscaler interval" in capsys.readouterr().err
        assert not [t for t in threading.enumerate()
                    if t not in before and t.is_alive()]
