"""Tracing, histogram, and SLO burn-rate tests (the observability PR).

The centrepiece is the trace-tree completeness property test: a
fault-injected cluster run (crash + slow device, hedging enabled, ~70 %
duplicate requests so coalescing fires) must leave every fulfilled
response carrying a ``trace_id`` whose records form a *single complete
causal tree* — exactly one root span, every ``parent_span_id`` resolving
to a span of the same trace — with ``trace.link`` events tying coalesced
followers and hedged duplicates to their peers.  The exported Chrome
trace of that run must validate structurally.

Alongside: histogram merge algebra (associative, commutative, identity)
and quantile accuracy within one log bucket of the exact percentiles;
burn-rate windows under a fake clock; the tolerant JSONL loader; the
``REPRO_TRACE_SAMPLE`` knob; and the new CLI surfaces (``telemetry
export``, ``repro top``).
"""

from __future__ import annotations

import json
import logging
from collections import deque

import pytest

from repro import telemetry
from repro.cli import main
from repro.cluster import Cluster, parse_fault_plan
from repro.knobs import knob
from repro.matrices.generators import uniform_random
from repro.serving import ServingEngine, SpMVRequest
from repro.serving.slo import (
    BURN_WINDOWS_S,
    DEFAULT_SLOS,
    WINDOW_BUCKETS,
    OutcomeLedger,
    classify_request,
)
from repro.telemetry import tracing
from repro.telemetry.hist import (
    GROWTH,
    Histogram,
    bucket_index,
    bucket_lower,
    bucket_upper,
    empty_snapshot,
    merge,
    merge_all,
    quantile,
)
from repro.telemetry.export import (
    to_chrome_trace,
    to_prometheus,
    validate_chrome_file,
    write_chrome,
)
from repro.telemetry.manifest import config_hash
from repro.telemetry.schema import (
    load_trace_tolerant,
    validate_file,
    validate_record,
)
from repro.telemetry.summarize import percentile, render_top
from repro.errors import TelemetryError

#: Small in-memory matrices keep the cluster property test sub-second.
MATRICES = [uniform_random(48, 48, 260, seed=seed) for seed in range(4)]

#: The fault plan of the property run: dev1 crashes after two requests
#: (forcing failover + removal), dev2 answers slowly half the time
#: (outlasting the 5 ms hedge threshold, forcing hedges).
FAULT_PLAN = "crash:1:after=2,slow:2:ms=10:p=0.5,seed=11"


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(tracing.TRACE_SAMPLE_ENV, raising=False)
    telemetry.disable()
    telemetry.reset_warnings()
    yield
    telemetry.disable()
    telemetry.reset_warnings()


# -- trace context plumbing --------------------------------------------------


class TestTraceContext:
    def test_child_keeps_trace_id(self):
        root = tracing.start_trace()
        child = root.child("00000000000a")
        assert child.trace_id == root.trace_id
        assert child.span_id == "00000000000a"
        assert root.span_id != child.span_id

    def test_scope_installs_and_restores(self):
        context = tracing.start_trace()
        assert tracing.current() is None
        with tracing.scope(context) as active:
            assert active is context
            assert tracing.current() is context
        assert tracing.current() is None

    def test_scope_none_is_a_no_op(self):
        outer = tracing.start_trace()
        with tracing.scope(outer):
            with tracing.scope(None):
                assert tracing.current() is outer

    def test_disabled_telemetry_never_traces(self):
        assert tracing.maybe_start_trace(7) is None

    def test_enabled_telemetry_traces_by_default(self):
        with telemetry.capture():
            context = tracing.maybe_start_trace(7)
            assert context is not None
            assert len(context.trace_id) == 16

    def test_spans_chain_through_contextvars(self):
        with telemetry.capture() as cap:
            context = tracing.start_trace()
            with tracing.scope(context):
                with telemetry.get().span("outer"):
                    with telemetry.get().span("inner"):
                        pass
        spans = [r for r in cap.records if r["kind"] == "span"]
        by_name = {r["name"].rsplit("/", 1)[-1]: r for r in spans}
        assert by_name["outer"]["parent_span_id"] == context.span_id
        assert (by_name["inner"]["parent_span_id"]
                == by_name["outer"]["span_id"])
        assert {r["trace_id"] for r in spans} == {context.trace_id}
        for record in spans:
            validate_record(record)


class TestTraceSampleKnob:
    def test_invalid_sample_warns_once_and_defaults(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "most of them")
        with caplog.at_level(logging.WARNING):
            assert tracing.resolve_trace_sample() == 1.0
            assert tracing.resolve_trace_sample() == 1.0
        assert caplog.text.count("REPRO_TRACE_SAMPLE") == 1

    def test_non_finite_sample_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "nan")
        assert tracing.resolve_trace_sample() == 1.0

    def test_out_of_range_sample_clamps(self, monkeypatch):
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "5")
        assert tracing.resolve_trace_sample() == 1.0
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "-0.5")
        assert tracing.resolve_trace_sample() == 0.0

    def test_sample_zero_never_starts(self, monkeypatch):
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "0")
        with telemetry.capture():
            assert tracing.maybe_start_trace(3) is None

    def test_draw_is_deterministic_in_request_id(self):
        assert tracing.sample_draw(41) == tracing.sample_draw(41)
        draws = {tracing.sample_draw(i) for i in range(64)}
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(draws) > 32  # spreads, not constant

    def test_tracing_knobs_registered(self):
        for name in ("REPRO_TRACE_SAMPLE", "REPRO_TRACE_CHROME",
                     "REPRO_PROM_FILE"):
            assert knob(name).subsystem == "telemetry"


# -- histograms --------------------------------------------------------------


def _filled(values) -> Histogram:
    hist = Histogram()
    for value in values:
        hist.record(value)
    return hist


class TestHistogram:
    def test_merge_is_associative_and_commutative(self):
        parts = [
            _filled([0.0, 0.4, 1.7, 52.0, 1234.5]).snapshot(),
            _filled([0.02, 3.3, 3.4, 980.0]).snapshot(),
            _filled([7.0, 7.1, 7.2, 0.0]).snapshot(),
        ]
        a, b, c = parts
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
        assert merge(a, b) == merge(b, a)
        assert merge_all(parts) == merge(merge(a, b), c)

    def test_empty_snapshot_is_merge_identity(self):
        snap = _filled([0.5, 9.0, 120.0]).snapshot()
        assert merge(snap, empty_snapshot()) == snap
        assert merge(empty_snapshot(), snap) == snap

    def test_quantiles_within_one_bucket_of_exact(self):
        values = [0.37 * i + 0.05 for i in range(1, 200)]
        snap = _filled(values).snapshot()
        for q in (50.0, 95.0, 99.0):
            exact = percentile(values, q)
            approx = quantile(snap, q)
            index = bucket_index(exact)
            width = bucket_upper(index) - bucket_lower(index)
            assert abs(approx - exact) <= width + 1e-9, (
                f"p{q}: {approx} vs exact {exact} (bucket width {width})"
            )

    def test_quantile_clamped_to_observed_range(self):
        snap = _filled([5.0, 5.0, 5.0]).snapshot()
        assert quantile(snap, 0.0) >= 5.0 * (1 - (GROWTH - 1))
        assert quantile(snap, 100.0) <= 5.0

    def test_telemetry_histogram_records_flush_and_validate(self):
        with telemetry.capture() as cap:
            for value in (1.0, 2.0, 400.0):
                telemetry.get().histogram("latency_ms", value, scheme="x")
        hists = [r for r in cap.records if r["kind"] == "hist"]
        assert len(hists) == 1
        assert hists[0]["value"] == 3
        assert hists[0]["attrs"]["count"] == 3
        validate_record(hists[0])


def _resolve(ledger, slo_class, latency_ms, ok):
    """One resolution as the engine records it (the default tenant)."""
    return ledger.record("default", slo_class, "ok" if ok else "error",
                         latency_ms)


def _reachable_items(obj, seen):
    """Container slots reachable from ``obj`` (the ledger's footprint)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        return len(obj) + sum(_reachable_items(key, seen)
                              + _reachable_items(value, seen)
                              for key, value in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        return len(obj) + sum(_reachable_items(item, seen) for item in obj)
    if type(obj).__module__.startswith("repro."):
        names = list(getattr(obj, "__dict__", {}))
        for klass in type(obj).__mro__:
            names += list(getattr(klass, "__slots__", ()))
        return sum(_reachable_items(getattr(obj, name), seen)
                   for name in names if hasattr(obj, name))
    return 0


class TestBurnRate:
    def test_burn_reflects_bad_fraction_over_budget(self):
        now = [1000.0]
        monitor = OutcomeLedger(clock=lambda: now[0])
        for _ in range(9):
            _resolve(monitor, "interactive", 1.0, ok=True)
        _resolve(monitor, "interactive", 500.0, ok=True)  # over 50 ms: bad
        rates = monitor.burn_rates()["interactive"]
        assert rates["good"] == 9 and rates["bad"] == 1
        budget = DEFAULT_SLOS["interactive"].error_budget
        assert rates["burn_60s"] == pytest.approx(0.1 / budget)

    def test_fast_window_ages_out_slow_window_remembers(self):
        now = [1000.0]
        monitor = OutcomeLedger(clock=lambda: now[0])
        _resolve(monitor, "interactive", 999.0, ok=True)  # bad
        now[0] += 120.0  # past the 60 s window, inside 3600 s
        rates = monitor.burn_rates()["interactive"]
        assert rates["burn_60s"] == 0.0
        assert rates["burn_3600s"] > 0.0

    def test_failed_request_is_bad_regardless_of_latency(self):
        monitor = OutcomeLedger(clock=lambda: 0.0)
        assert _resolve(monitor, "batch", 0.1, ok=False) is False
        assert monitor.burn_rates()["batch"]["bad"] == 1

    def test_unknown_class_falls_back_to_batch_policy(self):
        monitor = OutcomeLedger(clock=lambda: 0.0)
        assert monitor.policy_for("mystery").name == "batch"

    def test_slow_window_is_exact_at_sixty_requests_per_second(self):
        """An hour at 60 req/s whose first half was all bad burns 50x
        over the hour — every resolution counts, not the newest 100k."""
        now = [0.0]
        ledger = OutcomeLedger(clock=lambda: now[0])
        for index in range(216_000):
            now[0] = index / 60.0
            _resolve(ledger, "interactive", 1.0, ok=index >= 108_000)
        rates = ledger.burn_rates()["interactive"]
        assert rates["burn_3600s"] == 50.0
        assert rates["burn_60s"] == 0.0

    def test_memory_stays_fixed_under_sustained_traffic(self):
        now = [0.0]
        ledger = OutcomeLedger(clock=lambda: now[0])
        footprints = []
        for index in range(200_000):
            now[0] = index / 60.0
            slo_class = ("interactive", "batch")[index % 2]
            _resolve(ledger, slo_class, 1.0 + index % 97, ok=index % 5 > 0)
            if index + 1 in (100_000, 200_000):
                footprints.append(_reachable_items(ledger, set()))
        # Nothing grows with traffic, and nothing is kept per resolution.
        assert footprints[0] == footprints[1] < 5_000
        for windows in ledger._windows.values():
            assert len(windows) == len(BURN_WINDOWS_S)
            for window in windows:
                assert len(window.buckets) == WINDOW_BUCKETS

    def test_classification_default(self):
        assert classify_request(0, None) == "batch"
        assert classify_request(2, None) == "interactive"
        assert classify_request(0, 25.0) == "interactive"

    def test_windows_cover_fast_and_slow(self):
        assert len(BURN_WINDOWS_S) >= 2
        assert min(BURN_WINDOWS_S) < max(BURN_WINDOWS_S)


# -- the property test: complete causal trees under faults -------------------


def _trace_records(records):
    """Group span/event records by trace id."""
    by_trace = {}
    for record in records:
        if "trace_id" in record:
            by_trace.setdefault(record["trace_id"], []).append(record)
    return by_trace


def _assert_complete_tree(trace_id, records):
    spans = [r for r in records if r["kind"] == "span"]
    span_ids = {r["span_id"] for r in spans}
    roots = [r for r in spans if "parent_span_id" not in r]
    assert len(roots) == 1, (
        f"trace {trace_id}: {len(roots)} roots "
        f"({[r['name'] for r in roots]})"
    )
    assert roots[0]["name"] in ("cluster.request", "serving.request")
    for record in records:
        parent = record.get("parent_span_id")
        if parent is not None:
            assert parent in span_ids, (
                f"trace {trace_id}: {record['name']} parent {parent} "
                f"missing"
            )


class TestTraceTreeCompleteness:
    @pytest.fixture(scope="class")
    def fault_run(self):
        """One fault-injected cluster run, shared by every assertion."""
        base = [
            (matrix, scheme)
            for matrix in MATRICES
            for scheme in ("crhcs", "pe_aware")
        ]
        # ~70% duplicates: 30 requests cycling over 8 unique workloads.
        requests = [
            SpMVRequest(source=base[i % len(base)][0],
                        scheme=base[i % len(base)][1])
            for i in range(30)
        ]
        with telemetry.capture() as cap:
            cluster = Cluster(
                devices=4,
                replicas=2,
                hedge_ms=5,
                fault_plan=parse_fault_plan(FAULT_PLAN),
            )
            cluster.start()
            try:
                results = cluster.run(requests, clients=8, timeout=30.0)
            finally:
                cluster.shutdown(drain=True)
            status = cluster.status()
        return results, cap.records, status

    def test_faults_actually_fired(self, fault_run):
        results, _records, status = fault_run
        assert all(result.ok for result in results)
        stats = status["stats"]
        assert stats.get("hedges", 0) > 0
        assert stats.get("removed_devices", 0) >= 1

    def test_every_response_carries_a_known_trace(self, fault_run):
        results, records, _status = fault_run
        by_trace = _trace_records(records)
        for result in results:
            assert result.response.trace_id, (
                f"request {result.response.request_id} has no trace_id"
            )
            assert result.response.trace_id in by_trace

    def test_every_trace_is_one_complete_tree(self, fault_run):
        _results, records, _status = fault_run
        by_trace = _trace_records(records)
        assert by_trace
        for trace_id, trace in by_trace.items():
            _assert_complete_tree(trace_id, trace)

    def test_trees_span_route_engine_and_pipeline(self, fault_run):
        _results, records, _status = fault_run
        names = {
            r["name"].rsplit("/", 1)[-1]
            for r in records
            if r["kind"] == "span" and "trace_id" in r
        }
        for expected in ("cluster.request", "cluster.route",
                         "serving.enqueue", "serving.dispatch",
                         "serving.execute"):
            assert expected in names, f"no {expected} span traced"
        assert names & {"pipeline.load", "pipeline.estimate",
                        "estimator.predict"}, (
            "no pipeline/estimator span joined any trace"
        )

    def test_link_events_tie_followers_and_hedges(self, fault_run):
        _results, records, _status = fault_run
        links = [r for r in records
                 if r["kind"] == "event" and r["name"] == "trace.link"]
        kinds = {link["attrs"]["kind"] for link in links}
        assert "coalesce" in kinds
        assert "hedge" in kinds
        for link in links:
            assert link["attrs"]["peer_trace_id"]

    def test_slo_burn_surfaces_in_status(self, fault_run):
        _results, _records, status = fault_run
        slo = status["slo"]
        active = [entry for entry in slo.values()
                  if entry["good"] or entry["bad"]]
        assert active
        for entry in active:
            for window in BURN_WINDOWS_S:
                assert f"burn_{window:g}s" in entry

    def test_chrome_export_of_fault_run_validates(self, fault_run,
                                                  tmp_path):
        _results, records, _status = fault_run
        out = tmp_path / "fault.chrome.json"
        written = write_chrome(str(out), records)
        assert validate_chrome_file(str(out)) == written > 0
        trace = json.loads(out.read_text())
        traced = [e for e in trace["traceEvents"]
                  if e.get("args", {}).get("trace_id")]
        assert traced, "no exported event carries a trace_id"

    def test_prometheus_export_has_histogram_series(self, fault_run):
        _results, records, _status = fault_run
        text = to_prometheus(records)
        assert "# TYPE" in text
        assert "_bucket{" in text and 'le="+Inf"' in text
        assert "_count" in text and "_sum" in text

    def test_top_renders_the_fault_run(self, fault_run):
        _results, records, _status = fault_run
        text = render_top(records)
        assert "repro top" in text
        assert "slo burn rates" in text
        assert "request traces" in text


class TestEngineTracing:
    def test_single_engine_requests_trace_end_to_end(self):
        with telemetry.capture() as cap:
            engine = ServingEngine(workers=0, fidelity="estimate").start()
            # All four submits are in before the first step, so the
            # three repeats coalesce onto the queued leader.
            tickets = [
                engine.submit(SpMVRequest(source=MATRICES[0],
                                          scheme="crhcs"))
                for _ in range(4)
            ]
            engine.shutdown(drain=True)
        responses = [t.result(0) for t in tickets]
        assert all(r.ok for r in responses)
        by_trace = _trace_records(cap.records)
        for response in responses:
            assert response.trace_id in by_trace
        for trace_id, trace in by_trace.items():
            _assert_complete_tree(trace_id, trace)
        links = [r for r in cap.records
                 if r["kind"] == "event" and r["name"] == "trace.link"]
        assert any(l["attrs"]["kind"] == "coalesce" for l in links)

    def test_sampled_out_requests_still_serve(self, monkeypatch):
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "0")
        with telemetry.capture() as cap:
            engine = ServingEngine(workers=1, fidelity="estimate")
            engine.start()
            try:
                response = engine.submit_wait(
                    SpMVRequest(source=MATRICES[1], scheme="crhcs"),
                    timeout=30.0,
                )
            finally:
                engine.shutdown(drain=True)
        assert response.ok
        assert response.trace_id == ""
        assert not any("trace_id" in r for r in cap.records)


# -- tolerant loading and the manifest hash ----------------------------------


class TestTolerantLoading:
    def _write_trace(self, path, junk_lines=0):
        configured = telemetry.configure(str(path))
        with telemetry.get().span("work", k=1):
            telemetry.get().counter("serving.accepted", 1)
            telemetry.get().histogram("serving.latency_ms", 3.25)
        configured.close()
        telemetry.reset()
        telemetry.disable()
        if junk_lines:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"truncated": \n' * junk_lines)

    def test_loader_counts_skipped_lines(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace, junk_lines=2)
        records, skipped = load_trace_tolerant(str(trace))
        assert skipped == 2
        assert all(isinstance(r, dict) for r in records)

    def test_summarize_cli_warns_not_raises(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace, junk_lines=1)
        assert main(["telemetry", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 malformed line" in out

    def test_validate_cli_warns_not_raises(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace, junk_lines=1)
        assert main(["telemetry", "validate", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed line" in captured.err
        assert "validate against the event schema" in captured.out

    def test_schema_breaking_parseable_record_still_fails(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace)
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "span"}) + "\n")
        with pytest.raises(TelemetryError):
            validate_file(str(trace))
        assert main(["telemetry", "validate", str(trace)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_hash_tracks_fidelity_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        monkeypatch.delenv("REPRO_AUDIT_RATE", raising=False)
        monkeypatch.delenv(tracing.TRACE_SAMPLE_ENV, raising=False)
        base = config_hash()
        monkeypatch.setenv("REPRO_FIDELITY", "estimate")
        fidelity = config_hash()
        assert fidelity != base
        monkeypatch.setenv(tracing.TRACE_SAMPLE_ENV, "0.5")
        assert config_hash() not in (base, fidelity)


class TestCliObservability:
    def _make_trace(self, path):
        configured = telemetry.configure(str(path))
        active = telemetry.get()
        with active.span("serving.execute", scheme="crhcs"):
            active.histogram("serving.latency_ms", 4.5, slo_class="batch")
        active.counter("serving.accepted", 2)
        active.gauge("serving.slo.burn_rate", 0.5,
                     slo_class="batch", window_s=60.0)
        configured.close()
        telemetry.reset()
        telemetry.disable()

    def test_export_chrome(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        self._make_trace(trace)
        out = tmp_path / "t.chrome.json"
        assert main(["telemetry", "export", str(trace),
                     "--format", "chrome", "--out", str(out)]) == 0
        assert validate_chrome_file(str(out)) > 0
        assert "trace events" in capsys.readouterr().out

    def test_export_chrome_default_output_path(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._make_trace(trace)
        assert main(["telemetry", "export", str(trace)]) == 0
        assert (tmp_path / "t.jsonl.chrome.json").exists()

    def test_export_prometheus(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        self._make_trace(trace)
        out = tmp_path / "t.prom"
        assert main(["telemetry", "export", str(trace),
                     "--format", "prometheus", "--out", str(out)]) == 0
        text = out.read_text()
        assert "serving_accepted_total" in text
        assert "serving_latency_ms_bucket{" in text

    def test_top_single_shot(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        self._make_trace(trace)
        assert main(["top", str(trace), "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "accepted=2" in out

    def test_top_missing_file_single_shot_errors(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "absent.jsonl"),
                     "--iterations", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_export_knobs_fire_when_trace_closes(self, tmp_path,
                                                 monkeypatch, capsys):
        chrome = tmp_path / "knob.chrome.json"
        prom = tmp_path / "knob.prom"
        monkeypatch.setenv("REPRO_TRACE_CHROME", str(chrome))
        monkeypatch.setenv("REPRO_PROM_FILE", str(prom))
        trace = tmp_path / "run.jsonl"
        assert main(["--telemetry", str(trace), "matrices"]) == 0
        assert validate_chrome_file(str(chrome)) >= 0
        assert prom.exists()

    def test_chrome_trace_shape(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._make_trace(trace)
        records, _ = load_trace_tolerant(str(trace))
        chrome = to_chrome_trace(records)
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert complete and all(e["dur"] >= 0 and e["ts"] >= 0
                                for e in complete)
