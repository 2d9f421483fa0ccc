"""Serving-layer tests: queue policy, coalescing, shedding, lifecycle.

Order-sensitive behaviours (coalescing onto an executing leader,
deadline expiry, displacement, non-graceful shutdown) run on a
worker-less engine the test steps with ``run_once()``; what arrives
mid-execution is submitted by a ``hooks`` callback on the stepping
thread.  "In flight" and "queued" are states the test controls rather
than races it hopes to win.

The two ISSUE-mandated properties live in :class:`TestDeterminism`
(coalesced concurrent responses are byte-identical to isolated serial
runs) and :class:`TestLifecycle` (graceful shutdown drains queued work
while new submissions are shed).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import threading
import time

import pytest

from repro import telemetry
from repro.cli import main
from repro.errors import ConfigError, ServingError
from repro.knobs import RUNTIME_KNOBS, format_knobs, knob
from repro.matrices.generators import uniform_random
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stages import LoadStage
from repro.pipeline.store import (
    PIPELINE_CACHE_SIZE,
    SCHEDULE_CACHE_SIZE,
    budget_from_env,
)
from repro.scheduling.registry import get_scheme
from repro.serving import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    AdmissionQueue,
    ServingClient,
    ServingEngine,
    SpMVRequest,
    request_from_json,
    serve_max_batch,
    serve_queue_capacity,
    serve_request_file,
    serve_worker_count,
)
from repro.telemetry.summarize import (
    percentile,
    summarize_latencies,
    summarize_records,
)

#: Small in-memory matrices keep every engine test sub-second.
MATRICES = [uniform_random(48, 48, 260, seed=seed) for seed in range(3)]


@pytest.fixture(autouse=True)
def _fresh_warnings():
    telemetry.reset_warnings()
    yield
    telemetry.reset_warnings()


def report_bytes(report) -> bytes:
    """Canonical serialisation used for byte-identity assertions."""
    return json.dumps(
        dataclasses.asdict(report), sort_keys=True
    ).encode()


def serial_report(request: SpMVRequest):
    """What one isolated, serial pipeline run answers for ``request``."""
    spec = get_scheme(request.scheme)
    config = request.resolve_config(spec)
    return PipelineRunner().analyze(request.source, spec, config).report


class _Item:
    """Minimal queue entry: priority, seq, optional absolute deadline."""

    def __init__(self, seq, priority=0, deadline_at=None):
        self.seq = seq
        self.priority = priority
        self.deadline_at = deadline_at

    def expired_at(self, now):
        return self.deadline_at is not None and now > self.deadline_at


class TestAdmissionQueue:
    def test_priority_order_fifo_within_level(self):
        queue = AdmissionQueue(capacity=8)
        items = [_Item(seq=0), _Item(seq=1, priority=5), _Item(seq=2),
                 _Item(seq=3, priority=5)]
        for item in items:
            assert queue.push(item, now=0.0) == (True, None, [])
        popped = [queue.pop(timeout=0)[0] for _ in range(4)]
        assert [item.seq for item in popped] == [1, 3, 0, 2]

    def test_full_queue_rejects_equal_priority(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.push(_Item(seq=0), now=0.0)[0]
        assert queue.push(_Item(seq=1), now=0.0)[0]
        admitted, displaced, expired = queue.push(_Item(seq=2), now=0.0)
        assert (admitted, displaced, expired) == (False, None, [])
        assert len(queue) == 2

    def test_higher_priority_displaces_the_tail(self):
        queue = AdmissionQueue(capacity=2)
        low = _Item(seq=0)
        queue.push(low, now=0.0)
        queue.push(_Item(seq=1, priority=3), now=0.0)
        admitted, displaced, _ = queue.push(
            _Item(seq=2, priority=9), now=0.0
        )
        assert admitted and displaced is low
        assert [i.priority for i, _ in
                [queue.pop(timeout=0) for _ in range(2)]] == [9, 3]

    def test_displacement_tie_evicts_newest_of_equals(self):
        """Regression: among equal-priority victims, displacement must
        take the *newest* arrival — evicting an older one would break
        the FIFO promise for entries that queued first."""
        queue = AdmissionQueue(capacity=3)
        equals = [_Item(seq=0), _Item(seq=1), _Item(seq=2)]
        for item in equals:
            assert queue.push(item, now=0.0) == (True, None, [])
        admitted, displaced, expired = queue.push(
            _Item(seq=3, priority=5), now=0.0
        )
        assert admitted and expired == []
        assert displaced is equals[2]  # newest of the tied tail
        popped = [queue.pop(timeout=0)[0] for _ in range(3)]
        assert [item.seq for item in popped] == [3, 0, 1]

    def test_expired_entries_are_purged_to_make_room(self):
        queue = AdmissionQueue(capacity=1)
        stale = _Item(seq=0, deadline_at=1.0)
        queue.push(stale, now=0.0)
        admitted, displaced, expired = queue.push(_Item(seq=1), now=2.0)
        assert admitted and displaced is None and expired == [stale]

    def test_pop_returns_expired_head_for_answering(self):
        queue = AdmissionQueue(capacity=4)
        stale = _Item(seq=0, deadline_at=0.5)
        live = _Item(seq=1)
        queue.push(stale, now=0.0)
        queue.push(live, now=0.0)
        entry, expired = queue.pop(timeout=0)
        assert entry is live and expired == [stale]

    def test_pop_times_out_empty(self):
        assert AdmissionQueue(4).pop(timeout=0.01) == (None, [])

    def test_pop_group_takes_matching_up_to_limit(self):
        queue = AdmissionQueue(capacity=8)
        items = [_Item(seq=i) for i in range(5)]
        for item in items:
            queue.push(item, now=0.0)
        taken = queue.pop_group(lambda i: i.seq % 2 == 0, limit=2)
        assert [i.seq for i in taken] == [0, 2]
        assert len(queue) == 3

    def test_reprioritize_moves_a_queued_entry_forward(self):
        queue = AdmissionQueue(capacity=4)
        first, second = _Item(seq=0), _Item(seq=1)
        queue.push(first, now=0.0)
        queue.push(second, now=0.0)
        assert queue.reprioritize(second, 7)
        assert queue.pop(timeout=0)[0] is second
        # An already-dispatched entry reports False (caller just waits).
        assert not queue.reprioritize(second, 9)


class TestRequest:
    def test_overrides_patch_the_scheme_default(self):
        spec = get_scheme("crhcs")
        request = SpMVRequest(MATRICES[0],
                              config_overrides={"sparse_channels": 2})
        assert request.resolve_config(spec).sparse_channels == 2

    def test_unknown_override_is_a_config_error(self):
        request = SpMVRequest(MATRICES[0],
                              config_overrides={"warp_speed": 9})
        with pytest.raises(ConfigError, match="invalid config override"):
            request.resolve_config(get_scheme("crhcs"))

    def test_fingerprint_ignores_service_params(self):
        base = SpMVRequest(MATRICES[0], priority=0)
        hot = SpMVRequest(MATRICES[0], priority=9, deadline_ms=5.0)
        assert base.work_fingerprint() == hot.work_fingerprint()

    def test_fingerprint_sees_config_overrides(self):
        base = SpMVRequest(MATRICES[0])
        patched = SpMVRequest(MATRICES[0],
                              config_overrides={"sparse_channels": 2})
        assert base.work_fingerprint() != patched.work_fingerprint()

    def test_from_json_roundtrip(self):
        request = request_from_json(
            '{"matrix": "CollegeMsg", "scheme": "pe_aware", '
            '"priority": 2, "deadline_ms": 50, '
            '"config": {"sparse_channels": 2}}'
        )
        assert request.source == "CollegeMsg"
        assert request.scheme == "pe_aware"
        assert request.priority == 2
        assert request.deadline_ms == 50.0
        assert request.config_overrides == {"sparse_channels": 2}

    @pytest.mark.parametrize("line, match", [
        ("not json", "not valid JSON"),
        ('["CollegeMsg"]', "must be a JSON object"),
        ('{"matrix": "a", "priorty": 1}', "unknown request fields"),
        ('{"scheme": "crhcs"}', "needs a 'matrix' field"),
        ('{"matrix": "a", "config": 3}', "must be an object"),
    ])
    def test_from_json_rejects_malformed_lines(self, line, match):
        with pytest.raises(ConfigError, match=match):
            request_from_json(line)


class TestDeterminism:
    def test_coalesced_concurrent_responses_match_serial_bytes(self):
        """ISSUE property: coalescing may change *when* and *how often*
        work runs, never *what* comes back."""
        requests = [
            SpMVRequest(MATRICES[index % len(MATRICES)],
                        scheme=scheme, priority=index % 3)
            for index, scheme in enumerate(
                ["crhcs", "pe_aware", "crhcs", "crhcs",
                 "pe_aware", "crhcs", "crhcs", "pe_aware", "crhcs"]
            )
        ]
        expected = [report_bytes(serial_report(r)) for r in requests]

        with ServingEngine(workers=4, queue_capacity=32) as engine:
            tickets = [None] * len(requests)

            def submit(offset):
                for index in range(offset, len(requests), 3):
                    tickets[index] = engine.submit(requests[index])

            threads = [threading.Thread(target=submit, args=(o,))
                       for o in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            responses = [t.result(timeout=30.0) for t in tickets]

        assert all(r.ok for r in responses)
        assert [report_bytes(r.report) for r in responses] == expected
        total = engine.stats["completed"] + engine.stats["coalesced"]
        assert total >= len(requests)

    def test_followers_share_one_execution(self, hooks):
        engine = ServingEngine(workers=0, queue_capacity=8).start()
        engine.runner = hooks
        followers = []
        hooks.before(MATRICES[0], lambda: followers.extend(
            engine.submit(SpMVRequest(MATRICES[0])) for _ in range(3)
        ))
        leader = engine.submit(SpMVRequest(MATRICES[0]))
        assert engine.run_once()  # the followers arrive mid-execution
        assert not engine.run_once()
        engine.shutdown()
        lead_response = leader.result(0)
        shared = [f.result(0) for f in followers]
        assert engine.stats["completed"] == 1
        assert lead_response.ok and not lead_response.coalesced
        assert all(r.ok and r.coalesced for r in shared)
        assert all(r.cache_status == "coalesced" for r in shared)
        assert {report_bytes(r.report) for r in shared} == {
            report_bytes(lead_response.report)
        }
        assert engine.stats["coalesced"] == 3


class TestLifecycle:
    def test_graceful_shutdown_drains_queued_work_and_sheds_new(self):
        """ISSUE property: drain answers everything admitted, rejects
        everything after."""
        engine = ServingEngine(workers=1, queue_capacity=16)
        engine.start()
        tickets = [engine.submit(SpMVRequest(m)) for m in MATRICES]
        engine.drain()
        late = engine.submit(SpMVRequest(MATRICES[0], priority=5))
        engine.shutdown(drain=True)
        assert all(t.result(timeout=30.0).ok for t in tickets)
        rejected = late.result(timeout=1.0)
        assert rejected.status == STATUS_REJECTED
        assert rejected.detail == "engine is draining"
        assert engine.stats["shed"] == 1

    def test_non_graceful_shutdown_sheds_the_queue(self, hooks):
        """A shutdown during an execution sheds what is queued; the
        execution in flight still finishes."""
        engine = ServingEngine(workers=0, queue_capacity=8).start()
        engine.runner = hooks
        queued = []

        def arrive_then_stop():
            queued.append(engine.submit(SpMVRequest(MATRICES[1])))
            engine.shutdown(drain=False)
            assert queued[0].done()

        hooks.before(MATRICES[0], arrive_then_stop)
        blocker = engine.submit(SpMVRequest(MATRICES[0]))
        assert engine.run_once()
        shed = queued[0].result(0)
        assert shed.status == STATUS_REJECTED
        assert shed.detail == "engine shutdown"
        assert blocker.result(0).ok


    def test_idle_workers_block_until_the_queue_closes(self):
        """An idle worker makes one ``pop`` call and blocks in it (no
        idle poll); shutdown closes the queue and every call returns."""
        engine = ServingEngine(workers=3)
        pops = []
        pop = engine.queue.pop

        def counting_pop(*args, **kwargs):
            pops.append(1)
            return pop(*args, **kwargs)

        engine.queue.pop = counting_pop
        engine.start()
        time.sleep(0.3)
        assert len(pops) == 3
        engine.shutdown(timeout=5.0)
        assert len(pops) == 3
        assert not any(thread.is_alive() for thread in engine._threads)

    def test_shutdown_of_an_idle_engine_returns_at_once(self):
        """The median of five idle four-worker shutdowns is under 10 ms
        (30 ms when idle workers polled the queue every 50 ms)."""
        times = []
        for _ in range(5):
            engine = ServingEngine(workers=4)
            engine.start()
            time.sleep(0.02)
            start = time.perf_counter()
            engine.shutdown(timeout=5.0)
            times.append(time.perf_counter() - start)
            assert not any(thread.is_alive() for thread in engine._threads)
        assert sorted(times)[2] < 0.010

    def test_submit_before_start_raises(self):
        engine = ServingEngine(workers=1)
        with pytest.raises(ServingError, match="not started"):
            engine.submit(SpMVRequest(MATRICES[0]))

    def test_double_start_raises(self):
        engine = ServingEngine(workers=1)
        engine.start()
        try:
            with pytest.raises(ServingError, match="already running"):
                engine.start()
        finally:
            engine.shutdown()

    def test_ticket_timeout_is_a_serving_error(self):
        """A worker-less engine answers nothing until it is stepped; its
        graceful shutdown runs the queue on the caller's thread."""
        engine = ServingEngine(workers=0, queue_capacity=4).start()
        ticket = engine.submit(SpMVRequest(MATRICES[0]))
        with pytest.raises(ServingError, match="did not complete"):
            ticket.result(timeout=0)
        engine.shutdown()
        assert engine._threads == [] and ticket.result(0).ok


class TestTicketHooks:
    """A ticket's completion hook, which wakes the cluster router: called
    when the request resolves, or at once when the ticket is done."""

    def test_a_hook_added_before_resolution_fires_at_resolution(self):
        engine = ServingEngine(workers=0, queue_capacity=4).start()
        ticket = engine.submit(SpMVRequest(MATRICES[0]))
        calls = []
        ticket.add_done_callback(lambda: calls.append(ticket.done()))
        assert calls == []
        assert engine.run_once()
        engine.shutdown()
        assert ticket.result(0).ok
        # Called once, by the step that resolved it, after ``done``
        # turned true.
        assert calls == [True]

    def test_a_hook_added_after_resolution_fires_at_once(self):
        engine = ServingEngine(workers=0, fidelity="exact").start()
        ticket = engine.submit(SpMVRequest(MATRICES[0]))
        engine.shutdown()
        assert ticket.result(0).ok
        calls = []
        ticket.add_done_callback(lambda: calls.append(1))
        assert calls == [1]

    def test_a_hook_on_a_ticket_rejected_at_the_door_fires_at_once(self):
        engine = ServingEngine(workers=1)
        engine.start()
        engine.drain()
        ticket = engine.submit(SpMVRequest(MATRICES[0]))
        engine.shutdown()
        assert ticket.result(timeout=0).status == STATUS_REJECTED
        calls = []
        ticket.add_done_callback(lambda: calls.append(1))
        assert calls == [1]

    def test_no_hook_is_lost_to_a_race_with_resolution(self):
        """Hooks added while four workers resolve their tickets, with
        the interpreter switching threads every few microseconds: each
        fires once or twice, never zero times."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingEngine(workers=4, fidelity="estimate",
                               audit_rate=0.0) as engine:
                fired = []
                for index in range(200):
                    # Executed, coalesced or shed: every path resolves.
                    ticket = engine.submit(
                        SpMVRequest(MATRICES[index % len(MATRICES)])
                    )
                    calls = []
                    ticket.add_done_callback(
                        lambda calls=calls: calls.append(1)
                    )
                    fired.append((ticket, calls))
                for ticket, _calls in fired:
                    ticket.result(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert all(len(calls) in (1, 2) for _ticket, calls in fired)


class TestOverload:
    def test_queue_full_and_displacement_answer_structurally(self):
        engine = ServingEngine(workers=0, queue_capacity=1).start()
        queued = engine.submit(SpMVRequest(MATRICES[1]))
        rejected = engine.submit(SpMVRequest(MATRICES[2])).result(0)
        assert rejected.status == STATUS_REJECTED
        assert "queue full (capacity 1)" in rejected.detail
        urgent = engine.submit(SpMVRequest(MATRICES[2], priority=9))
        displaced = queued.result(0)
        assert displaced.status == STATUS_REJECTED
        assert "displaced" in displaced.detail
        engine.shutdown()
        assert urgent.result(0).ok
        assert engine.stats["shed"] == 2

    def test_deadline_expiry_answers_expired(self):
        engine = ServingEngine(workers=0, queue_capacity=8).start()
        doomed = engine.submit(SpMVRequest(MATRICES[1], deadline_ms=1.0))
        time.sleep(0.002)  # lasts at least 2 ms: the deadline has passed
        assert engine.run_once()
        expired = doomed.result(0)
        assert expired.status == STATUS_EXPIRED
        assert "deadline" in expired.detail
        assert engine.stats["expired"] == 1
        engine.shutdown()

    def test_malformed_work_answers_error_without_executing(self):
        with ServingEngine(workers=1) as engine:
            ticket = engine.submit(SpMVRequest("no-such-matrix"))
            response = ticket.result(timeout=1.0)
        assert response.status == STATUS_ERROR
        assert "unknown matrix" in response.detail
        assert engine.stats["errors"] == 1


class TestClientAndFiles:
    def test_client_blocking_request(self):
        with ServingEngine(workers=2) as engine:
            response = ServingClient(engine).request(
                MATRICES[0], scheme="pe_aware", timeout=30.0
            )
        assert response.ok
        assert response.report.scheme == "pe_aware"

    def test_serve_request_file_coalesces_duplicates(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "# duplicate-heavy workload\n"
            '{"matrix": "CollegeMsg"}\n'
            "\n"
            '{"matrix": "CollegeMsg"}\n'
            '{"matrix": "CollegeMsg", "priority": 3}\n'
            '{"matrix": "bogus"}\n'
        )
        responses, latency, stats = serve_request_file(
            str(path), timeout=60.0
        )
        assert [r.status for r in responses] == [
            STATUS_OK, STATUS_OK, STATUS_OK, STATUS_ERROR,
        ]
        assert stats["coalesced"] >= 1
        assert {report_bytes(r.report) for r in responses[:3]} == {
            report_bytes(responses[0].report)
        }
        assert latency["count"] == 3 and latency["p50_ms"] > 0

    def test_request_file_skips_malformed_lines_naming_the_first(
        self, tmp_path, caplog
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"matrix": "CollegeMsg"}\n{"matrx": "b"}\n'
        )
        with caplog.at_level(logging.WARNING):
            responses, _latency, _stats = serve_request_file(str(path))
        assert len(responses) == 1
        assert "skipped 1 malformed" in caplog.text
        assert "line 2" in caplog.text


class TestKnobs:
    def test_invalid_serve_knobs_fall_back_with_warning(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "many")
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "1e3")
        monkeypatch.setenv("REPRO_SERVE_BATCH", "")
        with caplog.at_level(logging.WARNING):
            assert serve_worker_count() == 4
            assert serve_queue_capacity() == 256
            assert serve_max_batch() == 8
        assert "REPRO_SERVE_WORKERS" in caplog.text
        assert "REPRO_SERVE_QUEUE" in caplog.text

    def test_serve_knobs_clamp_to_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "-2")
        assert serve_worker_count() == 1

    def test_invalid_cache_sizes_fall_back_with_warning(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_PIPELINE_CACHE_SIZE", "banana")
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE_SIZE", "0x10")
        with caplog.at_level(logging.WARNING):
            assert budget_from_env(PIPELINE_CACHE_SIZE) == 64
            assert budget_from_env(SCHEDULE_CACHE_SIZE) == 16
        assert "REPRO_PIPELINE_CACHE_SIZE" in caplog.text
        assert "REPRO_SCHEDULE_CACHE_SIZE" in caplog.text

    def test_registry_covers_the_serving_knobs(self):
        names = {entry.name for entry in RUNTIME_KNOBS}
        assert {"REPRO_SERVE_WORKERS", "REPRO_SERVE_QUEUE",
                "REPRO_SERVE_BATCH", "REPRO_PIPELINE_CACHE_SIZE",
                "REPRO_SCHEDULE_CACHE_SIZE"} <= names
        assert knob("REPRO_SERVE_WORKERS").default == "4"

    def test_format_knobs_marks_explicit_settings(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        rendered = format_knobs()
        line = next(l for l in rendered.splitlines()
                    if "REPRO_SERVE_WORKERS" in l)
        assert "*" in line and "2" in line


class TestTelemetryIntegration:
    def test_serving_spans_and_counters_are_emitted(self):
        with telemetry.capture() as cap:
            with ServingEngine(workers=1) as engine:
                tickets = [engine.submit(SpMVRequest(MATRICES[0]))
                           for _ in range(2)]
                for ticket in tickets:
                    assert ticket.result(timeout=30.0).ok
        spans = {r["name"] for r in cap.records if r["kind"] == "span"}
        assert "serving.enqueue" in spans
        assert any(name.startswith("serving.dispatch") for name in spans)
        assert any(name.startswith("serving.execute") for name in spans)
        counters = {r["name"] for r in cap.records
                    if r["kind"] == "counter"}
        assert {"serving.accepted", "serving.completed"} <= counters
        gauges = {r["name"] for r in cap.records if r["kind"] == "gauge"}
        assert "serving.queue_depth" in gauges
        assert "serving.latency.p95_ms" in gauges

    def test_summarize_has_latency_percentile_section(self):
        with telemetry.capture() as cap:
            for _ in range(3):
                with cap.span("serving.execute"):
                    pass
        table = summarize_latencies(cap.records)
        assert "p50" in table and "serving.execute" in table
        assert "latency percentiles" in summarize_records(cap.records)

    def test_percentile_math(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCLI:
    def test_info_lists_runtime_knobs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "runtime knobs" in out
        assert "REPRO_SERVE_WORKERS" in out

    def test_serve_writes_jsonl_responses(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"matrix": "CollegeMsg"}\n{"matrix": "CollegeMsg"}\n'
        )
        out_path = tmp_path / "responses.jsonl"
        assert main(["serve", str(requests), "--out", str(out_path),
                     "--workers", "2"]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        assert all(p["status"] == "ok" for p in payloads)
        summary = capsys.readouterr().out
        assert "served 2/2" in summary and "p95" in summary

    def test_serve_rejects_zero_workers_at_the_parser(self, tmp_path,
                                                      capsys):
        """A usage error, not a hang: no worker would answer (and
        ``--timeout`` bounds the wait of a parser that let 0 through)."""
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"matrix": "CollegeMsg"}\n')
        with pytest.raises(SystemExit) as exited:
            main(["serve", str(requests), "--workers", "0",
                  "--timeout", "1"])
        assert exited.value.code == 2
        assert "--workers: expected an integer >= 1" in \
            capsys.readouterr().err

    def test_submit_single_request(self, capsys):
        assert main(["submit", "CollegeMsg", "--scheme", "pe_aware",
                     "--set", "sparse_channels=2"]) == 0
        out = capsys.readouterr().out
        assert '"status":"ok"' in out

    def test_submit_bad_override_fails_structurally(self, capsys):
        assert main(["submit", "CollegeMsg",
                     "--set", "warp_speed=9"]) == 1
        out = capsys.readouterr().out
        assert '"status":"error"' in out
