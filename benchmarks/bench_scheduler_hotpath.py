#!/usr/bin/env python
"""Scheduler hot-path smoke benchmark (array fast path vs legacy builders).

Times PE-aware and CrHCS scheduling over a fixed seeded corpus subset —
the inner loop of every Fig. 3/11/14 sweep — for both the vectorized
array-backed path and the legacy slot-at-a-time reference, verifies the
two produce byte-identical survey metrics (stall fractions, stream cycle
counts, and CrHCS's per-matrix migration counts and RAW skips), and
writes ``BENCH_schedulers.json`` so future changes have a perf
trajectory to regress against.  Beside time it records CrHCS's work
counts, which do not drift with host speed: ``migrated`` and
``raw_skips`` for both paths, the array walk's
``scheduler.crhcs.jumped_holes`` (holes it skips in bulk because a
full candidate scan would fail at each), and ``tile_layouts``, the
tiles the survey's accounting lays out (``scheduler.layout.tiles``; 0,
as it reads only list lengths and element counts).

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler_hotpath.py [--quick]

``--quick`` shrinks the matrix set for CI and exits non-zero if the array
path is more than 5× slower than the legacy path (a gross-slowdown guard;
the expected state is the array path being several times *faster*).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import telemetry
from repro.config import DEFAULT_CHASON, DEFAULT_SERPENS
from repro.matrices.collection import corpus_specs
from repro.metrics import pe_underutilization_percent_batch
from repro.scheduling.crhcs import MigrationReport, schedule_crhcs
from repro.scheduling.legacy import (
    legacy_schedule_crhcs,
    legacy_schedule_pe_aware,
)
from repro.scheduling.pe_aware import schedule_pe_aware
from repro.telemetry import write_manifest

#: Gross-slowdown guard for --quick mode (CI).
MAX_QUICK_SLOWDOWN = 5.0


def _timed_pass(schedule_fn, matrices, with_report=False):
    """One survey pass: schedule, extract metrics, drop the schedule.

    Schedules are not retained — exactly like the corpus sweeps, which
    keep per-matrix metrics only — so the timing reflects the scheduling
    hot path rather than allocator pressure from dozens of live grids.
    """
    metrics = {
        "stall_fractions": [],
        "stream_cycles": [],
    }
    if with_report:
        metrics["migration_counts"] = []
        metrics["raw_skips"] = []
    start = time.perf_counter()
    for matrix in matrices:
        if with_report:
            report = MigrationReport()
            schedule = schedule_fn(matrix, report=report)
            metrics["migration_counts"].append(report.migrated)
            metrics["raw_skips"].append(report.raw_skips)
        else:
            schedule = schedule_fn(matrix)
        metrics["stall_fractions"].append(schedule.underutilization)
        metrics["stream_cycles"].append(schedule.stream_cycles)
    elapsed = time.perf_counter() - start
    return elapsed, metrics


def _captured_work(schedule_fn, matrices):
    """Holes the CrHCS walk jumps over and tiles laid out in one untimed
    run of the timed survey pass."""
    with telemetry.capture() as cap:
        _timed_pass(schedule_fn, matrices)
    totals = {"scheduler.crhcs.jumped_holes": 0, "scheduler.layout.tiles": 0}
    for record in cap.records:
        if record["name"] in totals:
            totals[record["name"]] += record["value"]
    return {
        "jumped_holes": totals["scheduler.crhcs.jumped_holes"],
        "tile_layouts": totals["scheduler.layout.tiles"],
    }


def _work(metrics):
    return {
        "migrated": sum(metrics["migration_counts"]),
        "raw_skips": sum(metrics["raw_skips"]),
    }


def _timed_survey(schedule_fn, matrices):
    """The Fig. 3 survey computation: schedule + Eq. 4 batch per matrix."""
    start = time.perf_counter()
    stalls = []
    nnzs = []
    for matrix in matrices:
        schedule = schedule_fn(matrix)
        stalls.append(schedule.total_stalls)
        nnzs.append(schedule.nnz)
    fractions = pe_underutilization_percent_batch(stalls, nnzs)
    elapsed = time.perf_counter() - start
    return elapsed, fractions


def run(quick: bool, output: Path) -> int:
    count, nnz_cap = (6, 10_000) if quick else (24, 40_000)
    specs = corpus_specs(count=count, nnz_cap=nnz_cap)
    matrices = [spec.generate() for spec in specs]
    nnz_total = sum(matrix.nnz for matrix in matrices)

    passes = {
        "pe_aware": (
            lambda m: schedule_pe_aware(m, DEFAULT_SERPENS),
            lambda m: legacy_schedule_pe_aware(m, DEFAULT_SERPENS),
            False,
        ),
        "crhcs": (
            lambda m, report=None: schedule_crhcs(
                m, DEFAULT_CHASON, report=report
            ),
            lambda m, report=None: legacy_schedule_crhcs(
                m, DEFAULT_CHASON, report=report
            ),
            True,
        ),
    }

    results = {}
    mismatches = []
    for scheme, (fast_fn, legacy_fn, with_report) in passes.items():
        fast_s, fast_metrics = _timed_pass(fast_fn, matrices, with_report)
        legacy_s, legacy_metrics = _timed_pass(
            legacy_fn, matrices, with_report
        )
        if fast_metrics != legacy_metrics:
            mismatches.append(scheme)
        results[scheme] = {
            "wall_clock_s": round(fast_s, 6),
            "elements_per_s": round(nnz_total / fast_s, 1),
            "legacy_wall_clock_s": round(legacy_s, 6),
            "legacy_elements_per_s": round(nnz_total / legacy_s, 1),
            "speedup_vs_legacy": round(legacy_s / fast_s, 3),
            "metrics_identical": fast_metrics == legacy_metrics,
        }
        print(
            f"{scheme:>9s}: array {fast_s:7.3f}s "
            f"({nnz_total / fast_s / 1e6:6.2f} Mnnz/s)  "
            f"legacy {legacy_s:7.3f}s  "
            f"speedup {legacy_s / fast_s:5.2f}x  "
            f"metrics {'identical' if fast_metrics == legacy_metrics else 'MISMATCH'}"
        )
        if with_report:
            work = _work(fast_metrics)
            work.update(_captured_work(fast_fn, matrices))
            results[scheme]["work"] = work
            results[scheme]["legacy_work"] = _work(legacy_metrics)
            print(
                f"{scheme:>9s}: migrated {work['migrated']}, raw skips "
                f"{work['raw_skips']} (legacy "
                f"{results[scheme]['legacy_work']['raw_skips']}), "
                f"jumped holes {work['jumped_holes']}, "
                f"tile layouts {work['tile_layouts']}"
            )

    # The acceptance workload: a Fig. 3-style stall survey over the
    # REPRO_CORPUS_COUNT=100 corpus (12 matrices in --quick mode),
    # timed end to end on pre-generated matrices so the measurement is
    # scheduling + Eq. 4 rather than shared matrix-generation fixture
    # cost.
    survey_count = 12 if quick else 100
    survey_specs = corpus_specs(count=survey_count, nnz_cap=nnz_cap)
    survey_matrices = [spec.generate() for spec in survey_specs]
    survey_nnz = sum(matrix.nnz for matrix in survey_matrices)
    fast_s, fast_fractions = _timed_survey(
        lambda m: schedule_pe_aware(m, DEFAULT_SERPENS), survey_matrices
    )
    legacy_s, legacy_fractions = _timed_survey(
        lambda m: legacy_schedule_pe_aware(m, DEFAULT_SERPENS),
        survey_matrices,
    )
    if fast_fractions != legacy_fractions:
        mismatches.append("survey_fig03")
    results["survey_fig03"] = {
        "matrices": survey_count,
        "wall_clock_s": round(fast_s, 6),
        "elements_per_s": round(survey_nnz / fast_s, 1),
        "legacy_wall_clock_s": round(legacy_s, 6),
        "legacy_elements_per_s": round(survey_nnz / legacy_s, 1),
        "speedup_vs_legacy": round(legacy_s / fast_s, 3),
        "metrics_identical": fast_fractions == legacy_fractions,
    }
    print(
        f"   survey: array {fast_s:7.3f}s "
        f"({survey_nnz / fast_s / 1e6:6.2f} Mnnz/s)  "
        f"legacy {legacy_s:7.3f}s  "
        f"speedup {legacy_s / fast_s:5.2f}x  "
        f"metrics "
        f"{'identical' if fast_fractions == legacy_fractions else 'MISMATCH'}"
        f"  [{survey_count} matrices]"
    )

    payload = {
        "quick": quick,
        "matrices": count,
        "nnz_cap": nnz_cap,
        "nnz_total": nnz_total,
        "schemes": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    manifest = write_manifest(output, extra={"bench": "scheduler_hotpath",
                                            "quick": quick})
    print(f"wrote {manifest}")

    if mismatches:
        print(
            f"FAIL: metric or work-count mismatch vs legacy path: "
            f"{mismatches}"
        )
        return 1
    if quick:
        slow = [
            scheme
            for scheme, entry in results.items()
            if entry["speedup_vs_legacy"] < 1.0 / MAX_QUICK_SLOWDOWN
        ]
        if slow:
            print(
                f"FAIL: array path >{MAX_QUICK_SLOWDOWN:.0f}x slower than "
                f"legacy for {slow}"
            )
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small matrix set + >5x slowdown guard (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_schedulers.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.output)


if __name__ == "__main__":
    sys.exit(main())
