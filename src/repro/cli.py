"""Command-line interface.

``python -m repro <command>`` gives quick access to the reproduction
without writing a script::

    python -m repro info
    python -m repro compare wiki-Vote
    python -m repro schedule CollegeMsg --scheme pe_aware
    python -m repro corpus --count 16 --cap 20000
    python -m repro generate CollegeMsg --out /tmp/cm.mtx
    python -m repro --telemetry /tmp/run.jsonl corpus --count 32
    python -m repro telemetry summarize /tmp/run.jsonl
    python -m repro estimate wiki-Vote --scheme crhcs --compare
    python -m repro serve requests.jsonl --out responses.jsonl
    python -m repro submit wiki-Vote --scheme crhcs --priority 2
    python -m repro cluster serve requests.jsonl --devices 4
    python -m repro cluster status
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from . import __version__
from . import telemetry as telemetry_mod
from .analysis.characterize import characterize
from .analysis.experiments import compare_on_corpus
from .analysis.report import format_table, format_table1
from .analysis.stats import describe
from .baselines.serpens import SerpensAccelerator
from .config import DEFAULT_CHASON, DEFAULT_SERPENS
from .core.chason import ChasonAccelerator
from .errors import ReproError
from .formats.io import save_matrix_market
from .knobs import format_knobs, knob
from .matrices.named import NAMED_MATRICES, generate_named
from .matrices.stats import matrix_stats
from .power.fpga import chason_power_breakdown
from .resources.model import chason_resources, serpens_resources
from .core.spmm import chason_spmm_report, sextans_spmm_report
from .pipeline import PipelineRunner, global_artifact_store
from .scheduling import schedule_stats
from .scheduling.registry import get_scheme, iter_schemes
from .serving import (
    ServingClient,
    ServingEngine,
    serve_request_file,
)
from .cluster import Cluster, format_status, serve_request_file_clustered
from .sessions import SessionManager, solver_programs


def _scheme_lines() -> List[str]:
    """One line per registered scheme, for ``info``/``--list-schemes``."""
    return [
        f"  {spec.name:<14s} v{spec.version}  "
        f"{spec.accelerator_name:<8s} @ {spec.clock_mhz:.0f} MHz"
        f"{'  ' + spec.description if spec.description else ''}"
        for spec in iter_schemes()
    ]


def _cmd_info(_args) -> int:
    print(f"Chasoň reproduction v{__version__}\n")
    for config in (DEFAULT_CHASON, DEFAULT_SERPENS):
        print(
            f"{config.name}: {config.sparse_channels} channels x "
            f"{config.pes_per_channel} PEs @ {config.frequency_mhz:.0f} MHz, "
            f"RAW distance {config.accumulator_latency}, "
            f"W = {config.column_window}"
        )
    print("\nregistered schemes:")
    for line in _scheme_lines():
        print(line)
    print("\nscheme pass pipelines:")
    for spec in iter_schemes():
        if spec.passes:
            print(f"  {spec.name:<14s} {' -> '.join(spec.passes)}")
    print()
    print(format_table1([serpens_resources(), chason_resources()]))
    breakdown = chason_power_breakdown()
    print(f"\nestimated Chasoň power: {breakdown.total:.2f} W "
          f"(HBM {breakdown.hbm:.2f} W)")
    print("\nruntime knobs (REPRO_* environment variables):")
    print(format_knobs())
    return 0


def _cmd_matrices(_args) -> int:
    rows = [
        [spec.matrix_id, name, spec.collection, str(spec.nnz),
         f"{spec.density_pct:.4g}%"]
        for name, spec in sorted(NAMED_MATRICES.items())
    ]
    print(format_table(["ID", "Dataset", "Collection", "NNZ", "Density"],
                       rows, title="Table 2 matrices"))
    return 0


def _cmd_schedule(args) -> int:
    if args.list_schemes:
        print("registered schemes:")
        for line in _scheme_lines():
            print(line)
        return 0
    if args.list_passes:
        from .scheduling.passes import known_pass_names

        print("registered schedule passes:")
        for name in known_pass_names():
            print(f"  {name}")
        print("\nscheme pass pipelines:")
        for spec in iter_schemes():
            if spec.passes:
                print(f"  {spec.name:<14s} {' -> '.join(spec.passes)}")
        return 0
    if args.matrix is None:
        print("error: a matrix name is required (or --list-schemes / "
              "--list-passes)", file=sys.stderr)
        return 1
    spec = get_scheme(args.scheme)
    matrix = generate_named(args.matrix)
    print("matrix:", matrix_stats(matrix).as_row())
    # No artifact store: a CLI invocation is single-shot, and an always-
    # fresh build keeps the scheduler's own telemetry in the trace.
    runner = PipelineRunner()
    stats = schedule_stats(runner.schedule(args.matrix, spec).schedule)
    print(
        f"scheme {stats.scheme}: underutilization "
        f"{stats.underutilization_pct:.1f}%, {stats.stream_cycles} stream "
        f"cycles, {stats.words_per_channel} words/channel, "
        f"{stats.traffic_bytes / 1e6:.2f} MB traffic, "
        f"{stats.migrated} migrated"
    )
    return 0


def _cmd_reschedule(args) -> int:
    import numpy as np

    from .scheduling.passes import schedules_identical

    spec = get_scheme(args.scheme)
    if spec.plan is None:
        print(f"error: scheme {spec.name!r} declares no pass pipeline",
              file=sys.stderr)
        return 1
    if args.edits < 1:
        print("error: --edits must be >= 1", file=sys.stderr)
        return 1
    matrix = generate_named(args.matrix)
    print("matrix:", matrix_stats(matrix).as_row())
    runner = PipelineRunner()
    kwargs = {"max_rows_per_pass": args.tile_rows}

    start = time.perf_counter()
    runner.reschedule(matrix, spec, **kwargs)
    cold_seconds = time.perf_counter() - start
    cold_stats = runner.last_reschedule_stats

    rng = np.random.default_rng(args.seed)
    for site in rng.integers(0, matrix.nnz, args.edits):
        matrix.values[int(site)] += float(rng.standard_normal()) or 1.0

    start = time.perf_counter()
    warm = runner.reschedule(matrix, spec, **kwargs)
    warm_seconds = time.perf_counter() - start
    warm_stats = runner.last_reschedule_stats

    fresh = PipelineRunner().schedule(matrix, spec, **kwargs)
    identical = schedules_identical(warm.schedule, fresh.schedule)

    n_tiles = len(warm.schedule.tiles)
    print(f"scheme {spec.name}: {n_tiles} tile(s), "
          f"pipeline {' -> '.join(spec.passes)}")
    print(f"cold schedule: {cold_seconds * 1e3:8.1f} ms, "
          f"{cold_stats.executed_total} tile-passes")
    print(f"reschedule after {args.edits} edit(s): "
          f"{warm_seconds * 1e3:8.1f} ms, "
          f"{warm_stats.executed_total} tile-passes executed, "
          f"{warm_stats.skipped_total} resumed from cache")
    for token in sorted(set(warm_stats.executed) | set(warm_stats.skipped)):
        print(f"  {token:<18s} executed {warm_stats.executed.get(token, 0):>4d}"
              f"  resumed {warm_stats.skipped.get(token, 0):>4d}")
    print(f"byte-identical to a cold schedule: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def _cmd_compare(args) -> int:
    matrix = generate_named(args.matrix)
    print("matrix:", matrix_stats(matrix).as_row())
    chason_report = ChasonAccelerator().analyze(matrix)
    serpens_report = SerpensAccelerator().analyze(matrix)
    print(chason_report.as_table_row())
    print(serpens_report.as_table_row())
    print(
        f"speedup {serpens_report.latency_ms / chason_report.latency_ms:.2f}x, "
        f"transfer reduction "
        f"{serpens_report.traffic_bytes / chason_report.traffic_bytes:.2f}x"
    )
    return 0


def _cmd_corpus(args) -> int:
    result = compare_on_corpus(count=args.count, nnz_cap=args.cap or None)
    serpens_summary = describe(result.serpens_underutilization)
    chason_summary = describe(result.chason_underutilization)
    print(f"corpus sweep over {result.count} matrices")
    print(
        f"serpens underutilization: mean {serpens_summary['mean']:.1f}% "
        f"range {serpens_summary['min']:.1f}-{serpens_summary['max']:.1f}%"
    )
    print(
        f"chason  underutilization: mean {chason_summary['mean']:.1f}% "
        f"range {chason_summary['min']:.1f}-{chason_summary['max']:.1f}%"
    )
    print(f"geomean speedup over serpens: {result.geomean_speedup:.2f}x")
    return 0


def _cmd_characterize(args) -> int:
    matrix = generate_named(args.matrix)
    character = characterize(matrix)
    print("matrix:", matrix_stats(matrix).as_row())
    print(
        f"row-length cv {character.row_cv:.2f}, gini "
        f"{character.gini:.2f}, empty rows "
        f"{100 * character.empty_row_fraction:.1f}%"
    )
    print(
        f"predicted underutilization: serpens "
        f"{character.predicted_serpens_underutilization:.0f}%, chason "
        f"{character.predicted_chason_underutilization:.0f}% "
        f"(improvement {character.predicted_improvement:.0f} pp)"
    )
    verdict = "yes" if character.migration_worthwhile else "marginal"
    print(f"cross-channel migration worthwhile: {verdict}")
    return 0


def _cmd_spmm(args) -> int:
    matrix = generate_named(args.matrix)
    chason = chason_spmm_report(matrix, args.bcols)
    sextans = sextans_spmm_report(matrix, args.bcols)
    print("matrix:", matrix_stats(matrix).as_row())
    print(
        f"chason  SpMM: {chason.latency_ms:.4f} ms, "
        f"{chason.throughput_gflops:.2f} GFLOPS "
        f"({args.bcols} B columns)"
    )
    print(
        f"sextans SpMM: {sextans.latency_ms:.4f} ms, "
        f"{sextans.throughput_gflops:.2f} GFLOPS"
    )
    print(f"speedup {sextans.latency_ms / chason.latency_ms:.2f}x")
    return 0


def _cmd_generate(args) -> int:
    matrix = generate_named(args.matrix, seed=args.seed)
    save_matrix_market(matrix, args.out)
    print(f"wrote {matrix.nnz} non-zeros to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    matrix = generate_named(args.matrix)
    print("matrix:", matrix_stats(matrix).as_row())
    runner = PipelineRunner()
    result = runner.estimate(args.matrix, args.scheme)
    predicted = result.predicted
    artifact = result.estimate_artifact
    print(
        f"scheme {predicted.scheme}: predicted {predicted.cycles.total} "
        f"cycles (stream {predicted.stream_cycles}, raw "
        f"{predicted.raw_stream_cycles}), {predicted.migrated} migrated, "
        f"calibrated tolerance ±{100 * artifact.tolerance:.1f}%"
    )
    print(result.report.as_table_row())
    if args.compare:
        exact = runner.analyze(args.matrix, args.scheme, fidelity="exact")
        exact_total = exact.cycles.total
        rel = abs(predicted.cycles.total - exact_total) / max(exact_total, 1)
        print(exact.report.as_table_row())
        print(
            f"exact {exact_total} cycles, relative error {100 * rel:.2f}% "
            f"({'within' if rel <= artifact.tolerance else 'OUTSIDE'} "
            f"tolerance)"
        )
        return 0 if rel <= artifact.tolerance else 1
    return 0


def _cmd_serve(args) -> int:
    engine = ServingEngine(
        workers=args.workers,
        queue_capacity=args.queue,
        max_batch=args.batch,
        fidelity=args.fidelity,
    )
    engine.start()
    try:
        responses, latency, stats = serve_request_file(
            args.requests, engine=engine, timeout=args.timeout
        )
    finally:
        engine.shutdown(drain=True)
    lines = [response.to_json() for response in responses]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} responses to {args.out}")
    else:
        for line in lines:
            print(line)
    served = [r for r in responses if r.ok]
    print(
        f"served {len(served)}/{len(responses)} requests  "
        f"(accepted {stats['accepted']}, coalesced {stats['coalesced']}, "
        f"shed {stats['shed']}, expired {stats['expired']}, "
        f"errors {stats['errors']})"
    )
    audit = engine.audit_summary()
    if audit["sampled"]:
        demoted = (f", demoted: {', '.join(audit['demoted'])}"
                   if audit["demoted"] else "")
        print(
            f"audit ({audit['fidelity']} tier): sampled "
            f"{audit['sampled']}, violations {audit['violations']}, "
            f"max rel error {100 * audit['max_rel_error']:.2f}%{demoted}"
        )
    if latency.get("count"):
        print(
            f"latency p50 {latency['p50_ms']:.3f} ms  "
            f"p95 {latency['p95_ms']:.3f} ms  "
            f"p99 {latency['p99_ms']:.3f} ms  "
            f"(mean {latency['mean_ms']:.3f} ms over "
            f"{latency['count']} served)"
        )
    tenants = engine.tenant_summary()
    if len(tenants) > 1 or (tenants and "default" not in tenants):
        print("per-tenant:")
        for tenant in sorted(tenants):
            row = tenants[tenant]
            tail = ""
            tenant_latency = row.get("latency") or {}
            if tenant_latency.get("count"):
                tail = f"  p99 {tenant_latency['p99_ms']:.3f} ms"
            print(
                f"  {tenant}: accepted {row.get('accepted', 0)}, "
                f"completed {row.get('completed', 0)}, "
                f"shed {row.get('shed', 0)}, "
                f"expired {row.get('expired', 0)}, "
                f"errors {row.get('errors', 0)}{tail}"
            )
    return 0


def _cmd_submit(args) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            print(f"error: --set expects field=value, got {item!r}",
                  file=sys.stderr)
            return 1
        key, _eq, raw = item.partition("=")
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    engine = ServingEngine(workers=1, fidelity=args.fidelity)
    engine.start()
    try:
        response = ServingClient(engine).request(
            args.matrix,
            scheme=args.scheme,
            config_overrides=overrides or None,
            priority=args.priority,
            deadline_ms=args.deadline_ms,
            timeout=args.timeout,
        )
    finally:
        engine.shutdown(drain=True)
    print(response.to_json())
    if response.ok:
        print(response.report.as_table_row())
    return 0 if response.ok else 1


def _cmd_cluster(args) -> int:
    if args.cluster_command == "status":
        cluster = Cluster(
            devices=args.devices,
            replicas=args.replicas,
            routing=args.routing,
        )
        print(format_status(cluster.status()))
        print("\nfault plan (REPRO_CLUSTER_FAULTS):")
        print(cluster.fault_plan.describe())
        return 0
    # serve
    cluster = Cluster(
        devices=args.devices,
        replicas=args.replicas,
        hedge_ms=args.hedge_ms,
        routing=args.routing,
        fidelity=args.fidelity,
    )
    autoscaler = None
    if getattr(args, "autoscale", False):
        from .cluster import Autoscaler

        # Built before the fleet starts: an invalid interval raises
        # ConfigError with no device thread left running.
        autoscaler = Autoscaler(
            cluster,
            min_devices=args.autoscale_min,
            max_devices=args.autoscale_max,
            interval_s=args.autoscale_interval,
        )
    cluster.start()
    if autoscaler is not None:
        autoscaler.start()
    try:
        results, status = serve_request_file_clustered(
            args.requests,
            cluster=cluster,
            clients=args.clients,
            timeout=args.timeout,
        )
    finally:
        if autoscaler is not None:
            autoscaler.stop()
        cluster.shutdown(drain=True)
        status = cluster.status()
    lines = [result.to_json() for result in results]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} responses to {args.out}")
    else:
        for line in lines:
            print(line)
    print()
    print(format_status(status))
    if autoscaler is not None:
        snap = autoscaler.snapshot()
        print(
            f"\nautoscaler: devices={snap['alive']} "
            f"(min {snap['min_devices']}, max {snap['max_devices']})  "
            f"ups={snap['ups']} downs={snap['downs']} "
            f"steps={snap['steps']}"
        )
        if snap["actions"]:
            rendered = "  ".join(
                f"{direction}:{device}"
                for direction, device in snap["actions"]
            )
            print(f"  actions: {rendered}")
    served = sum(1 for result in results if result.ok)
    return 0 if served == len(results) else 1


def _cmd_session(args) -> int:
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    matrix = generate_named(args.matrix)
    params = {}
    if args.solver in ("cg", "jacobi"):
        rng = np.random.default_rng(args.seed)
        params["b"] = rng.normal(size=matrix.n_rows)
        if args.solver == "jacobi":
            params["omega"] = args.omega
    else:
        params["seed"] = args.seed

    engine = cluster = None
    if args.devices:
        cluster = Cluster(devices=args.devices).start()
    else:
        engine = ServingEngine().start()
    try:
        manager = SessionManager(engine=engine, cluster=cluster)

        def solve(index: int):
            with manager.open(
                args.matrix,
                solver=args.solver,
                scheme=args.scheme,
                tolerance=args.tolerance,
                max_iterations=args.max_iterations,
                params=params,
                priority=args.priority,
                deadline_ms=args.deadline_ms,
            ) as session:
                result = session.run(timeout=args.timeout)
                return session, result

        workers = max(min(args.sessions, 32), 1)
        with ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-session-client",
        ) as pool:
            outcomes = list(pool.map(solve, range(args.sessions)))
    finally:
        if cluster is not None:
            cluster.shutdown(drain=True)
        if engine is not None:
            engine.shutdown(drain=True)

    print(f"{'session':<10s} {'device':<8s} {'iters':>5s} "
          f"{'residual':>12s} {'conv':>5s} {'failover':>8s} "
          f"{'remat':>5s}")
    for session, result in outcomes:
        device = (session.device.device_id
                  if session.device is not None else "-")
        print(
            f"{session.session_id:<10s} {device:<8s} "
            f"{result.iterations:>5d} {result.residual:>12.3e} "
            f"{str(result.converged):>5s} {session.failovers:>8d} "
            f"{session.rematerializations:>5d}"
        )
    stats = manager.snapshot()
    print(
        f"\nsessions {stats['opened']} opened, {stats['closed']} closed; "
        f"{stats['iterations']} iterations in {stats['steps']} steps; "
        f"{stats['failovers']} failovers, "
        f"{stats['rematerializations']} re-materializations"
    )
    if engine is not None:
        resident = engine.resident.snapshot()
        print(
            f"resident store: {resident['sessions']} sessions, "
            f"{resident['bytes']} bytes, {resident['hits']} hits, "
            f"{resident['misses']} misses, "
            f"{resident['evictions']} evictions"
        )
    solved = sum(1 for _s, result in outcomes if result.converged)
    print(f"converged {solved}/{len(outcomes)}")
    return 0 if all(s.finished for s, _r in outcomes) else 1


def _cmd_telemetry(args) -> int:
    if args.telemetry_command == "summarize":
        print(telemetry_mod.summarize_file(args.trace))
        if args.validate:
            count = telemetry_mod.validate_file(args.trace)
            print(f"\n{count} records validate against the event schema")
    elif args.telemetry_command == "validate":
        _records, skipped = telemetry_mod.load_trace_tolerant(args.trace)
        if skipped:
            print(f"warning: skipped {skipped} malformed line(s)",
                  file=sys.stderr)
        count = telemetry_mod.validate_file(args.trace)
        print(f"{count} records validate against the event schema")
    elif args.telemetry_command == "export":
        records, skipped = telemetry_mod.load_trace_tolerant(args.trace)
        if skipped:
            print(f"warning: skipped {skipped} malformed line(s)",
                  file=sys.stderr)
        if args.format == "chrome":
            out = args.out or args.trace + ".chrome.json"
            count = telemetry_mod.write_chrome(out, records)
            telemetry_mod.validate_chrome_file(out)
            print(f"wrote {count} trace events to {out}")
        else:  # prometheus
            out = args.out or args.trace + ".prom"
            count = telemetry_mod.write_prometheus(out, records)
            print(f"wrote {count} exposition lines to {out}")
    else:  # schema
        from .telemetry.summarize import schema_json

        print(schema_json())
    return 0


def _cmd_top(args) -> int:
    from .telemetry.summarize import render_top

    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                records, skipped = telemetry_mod.load_trace_tolerant(
                    args.trace
                )
            except OSError as error:
                if args.iterations == 1:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                print(f"(waiting for trace: {error})")
                time.sleep(args.interval)
                continue
            if args.iterations != 1:
                # Redraw in place like top(1); a single-shot render (CI,
                # piping to a file) keeps plain sequential output.
                print("\x1b[2J\x1b[H", end="")
            print(render_top(records))
            if skipped:
                print(f"warning: skipped {skipped} malformed line(s)")
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _serve_workers(text: str) -> int:
    """``--workers``: a command line cannot step a worker-less engine."""
    value, low = int(text), knob("REPRO_SERVE_WORKERS").low
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chasoň (MICRO 2025) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write a JSONL telemetry trace of this invocation to PATH "
             "('-' = stderr); equivalent to REPRO_TELEMETRY",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "info", help="configurations, resources, power"
    ).set_defaults(func=_cmd_info)
    commands.add_parser(
        "matrices", help="list the Table 2 matrices"
    ).set_defaults(func=_cmd_matrices)

    schedule = commands.add_parser("schedule",
                                   help="schedule one named matrix")
    schedule.add_argument("matrix", nargs="?", default=None,
                          choices=sorted(NAMED_MATRICES))
    schedule.add_argument(
        "--scheme", default="crhcs", metavar="SCHEME",
        help="a registered scheme (see --list-schemes)",
    )
    schedule.add_argument(
        "--list-schemes", action="store_true",
        help="list the registered schemes and exit",
    )
    schedule.add_argument(
        "--list-passes", action="store_true",
        help="list the registered schedule passes and each scheme's "
             "pass pipeline, then exit",
    )
    schedule.set_defaults(func=_cmd_schedule)

    reschedule = commands.add_parser(
        "reschedule",
        help="incremental rescheduling demo: edit a matrix in place and "
             "re-run only the invalidated passes",
    )
    reschedule.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    reschedule.add_argument(
        "--scheme", default="crhcs", metavar="SCHEME",
        help="a pass-based registered scheme",
    )
    reschedule.add_argument(
        "--edits", type=int, default=4,
        help="number of random in-place value edits between runs",
    )
    reschedule.add_argument("--seed", type=int, default=0,
                            help="edit-site RNG seed")
    reschedule.add_argument(
        "--tile-rows", type=int, default=0, metavar="N",
        help="cap rows per scheduling pass (0 = the config's row window);"
             " smaller caps mean more tiles and finer invalidation",
    )
    reschedule.set_defaults(func=_cmd_reschedule)

    compare = commands.add_parser("compare",
                                  help="Chasoň vs Serpens on one matrix")
    compare.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    compare.set_defaults(func=_cmd_compare)

    corpus = commands.add_parser("corpus", help="corpus sweep summary")
    corpus.add_argument("--count", type=int, default=16)
    corpus.add_argument("--cap", type=int, default=20_000,
                        help="non-zero cap (0 = uncapped)")
    corpus.set_defaults(func=_cmd_corpus)

    character = commands.add_parser(
        "characterize", help="predict CrHCS benefit from matrix stats"
    )
    character.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    character.set_defaults(func=_cmd_characterize)

    spmm = commands.add_parser("spmm", help="SpMM extension report (§7.2)")
    spmm.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    spmm.add_argument("--bcols", type=int, default=16)
    spmm.set_defaults(func=_cmd_spmm)

    generate = commands.add_parser(
        "generate", help="write a named matrix as MatrixMarket"
    )
    generate.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    generate.add_argument("--out", required=True)
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=_cmd_generate)

    estimate = commands.add_parser(
        "estimate",
        help="predict one matrix's report analytically (no simulation)",
    )
    estimate.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    estimate.add_argument("--scheme", default="crhcs", metavar="SCHEME",
                          help="a registered scheme (see schedule "
                               "--list-schemes)")
    estimate.add_argument(
        "--compare", action="store_true",
        help="also run the exact simulator and report the relative "
             "cycle error (exit 1 if outside the calibrated tolerance)",
    )
    estimate.set_defaults(func=_cmd_estimate)

    serve = commands.add_parser(
        "serve",
        help="run a JSONL request file through the serving engine",
    )
    serve.add_argument("requests", help="JSONL request file "
                       '(lines like {"matrix": "wiki-Vote", '
                       '"scheme": "crhcs", "priority": 1})')
    serve.add_argument("--out", default=None,
                       help="write responses as JSONL here "
                            "(default: stdout)")
    serve.add_argument("--workers", type=_serve_workers, default=None,
                       help="worker threads (default REPRO_SERVE_WORKERS)")
    serve.add_argument("--queue", type=int, default=None,
                       help="admission queue capacity "
                            "(default REPRO_SERVE_QUEUE)")
    serve.add_argument("--batch", type=int, default=None,
                       help="micro-batch limit (default REPRO_SERVE_BATCH)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request wait in seconds (default: none)")
    serve.add_argument("--fidelity", choices=("exact", "estimate", "auto"),
                       default=None,
                       help="fidelity tier (default REPRO_FIDELITY, "
                            "else estimate)")
    serve.set_defaults(func=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit one request to an in-process engine"
    )
    submit.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    submit.add_argument("--scheme", default="crhcs", metavar="SCHEME",
                        help="a registered scheme (see schedule "
                             "--list-schemes)")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline-ms", type=float, default=None)
    submit.add_argument("--set", action="append", metavar="FIELD=VALUE",
                        help="override a config field "
                             "(repeatable, e.g. --set column_window=512)")
    submit.add_argument("--timeout", type=float, default=None)
    submit.add_argument("--fidelity", choices=("exact", "estimate", "auto"),
                        default=None,
                        help="fidelity tier (default REPRO_FIDELITY, "
                             "else estimate)")
    submit.set_defaults(func=_cmd_submit)

    cluster = commands.add_parser(
        "cluster",
        help="run request files on a sharded multi-device cluster",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_serve = cluster_commands.add_parser(
        "serve",
        help="run a JSONL request file through a device cluster",
    )
    cluster_serve.add_argument(
        "requests", help="JSONL request file (the `repro serve` format)"
    )
    cluster_serve.add_argument(
        "--devices", type=int, default=None,
        help="device count (default REPRO_CLUSTER_DEVICES)",
    )
    cluster_serve.add_argument(
        "--replicas", type=int, default=None,
        help="replica-set size (default REPRO_CLUSTER_REPLICAS)",
    )
    cluster_serve.add_argument(
        "--hedge-ms", type=int, default=None,
        help="hedge threshold in ms (default REPRO_CLUSTER_HEDGE_MS)",
    )
    cluster_serve.add_argument(
        "--routing", choices=("affinity", "round_robin"),
        default="affinity",
        help="placement policy (round_robin is the no-affinity "
             "ablation)",
    )
    cluster_serve.add_argument(
        "--clients", type=int, default=8,
        help="concurrent closed-loop client threads",
    )
    cluster_serve.add_argument(
        "--out", default=None,
        help="write responses as JSONL here (default: stdout)",
    )
    cluster_serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request routing budget in seconds",
    )
    cluster_serve.add_argument(
        "--fidelity", choices=("exact", "estimate", "auto"),
        default=None,
        help="fidelity tier for every device engine "
             "(default REPRO_FIDELITY, else estimate)",
    )
    cluster_serve.add_argument(
        "--autoscale", action="store_true",
        help="run the autoscaler control loop while serving "
             "(grow/drain devices by queue depth and latency EWMA)",
    )
    cluster_serve.add_argument(
        "--autoscale-min", type=int, default=None,
        help="fleet floor (default REPRO_AUTOSCALE_MIN)",
    )
    cluster_serve.add_argument(
        "--autoscale-max", type=int, default=None,
        help="fleet ceiling (default REPRO_AUTOSCALE_MAX)",
    )
    cluster_serve.add_argument(
        "--autoscale-interval", type=float, default=None,
        help="seconds between autoscaler evaluations "
             "(default REPRO_AUTOSCALE_INTERVAL)",
    )
    cluster_serve.set_defaults(func=_cmd_cluster)
    cluster_status = cluster_commands.add_parser(
        "status",
        help="show device table, router config, and the fault plan",
    )
    cluster_status.add_argument("--devices", type=int, default=None)
    cluster_status.add_argument("--replicas", type=int, default=None)
    cluster_status.add_argument(
        "--routing", choices=("affinity", "round_robin"),
        default="affinity",
    )
    cluster_status.set_defaults(func=_cmd_cluster)

    session = commands.add_parser(
        "session",
        help="iterative-solver sessions with device-resident state",
    )
    session_commands = session.add_subparsers(
        dest="session_command", required=True
    )
    session_run = session_commands.add_parser(
        "run",
        help="run concurrent solver sessions over an engine or cluster",
    )
    session_run.add_argument("matrix", choices=sorted(NAMED_MATRICES))
    session_run.add_argument(
        "--solver", choices=solver_programs(),
        default="power_iteration",
    )
    session_run.add_argument("--scheme", default="crhcs", metavar="SCHEME",
                             help="a registered scheme (see schedule "
                                  "--list-schemes)")
    session_run.add_argument(
        "--sessions", type=int, default=4,
        help="concurrent sessions to run (default 4)",
    )
    session_run.add_argument(
        "--devices", type=int, default=0,
        help="cluster device count (0 = one in-process engine; "
             "a cluster honours REPRO_CLUSTER_FAULTS)",
    )
    session_run.add_argument("--tolerance", type=float, default=1e-6)
    session_run.add_argument("--max-iterations", type=int, default=200)
    session_run.add_argument("--priority", type=int, default=0)
    session_run.add_argument("--deadline-ms", type=float, default=None)
    session_run.add_argument(
        "--seed", type=int, default=0,
        help="start-vector / right-hand-side seed",
    )
    session_run.add_argument(
        "--omega", type=float, default=1.0,
        help="Jacobi damping factor",
    )
    session_run.add_argument("--timeout", type=float, default=60.0)
    session_run.set_defaults(func=_cmd_session)

    telemetry = commands.add_parser(
        "telemetry", help="inspect JSONL telemetry traces"
    )
    telemetry_commands = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize = telemetry_commands.add_parser(
        "summarize", help="render the span tree and counter tables"
    )
    summarize.add_argument("trace", help="a JSONL trace file")
    summarize.add_argument(
        "--validate", action="store_true",
        help="also validate every record against the event schema",
    )
    validate = telemetry_commands.add_parser(
        "validate", help="validate a trace against the event schema"
    )
    validate.add_argument("trace", help="a JSONL trace file")
    export = telemetry_commands.add_parser(
        "export",
        help="export a trace as Chrome trace-event JSON or Prometheus text",
    )
    export.add_argument("trace", help="a JSONL trace file")
    export.add_argument(
        "--format", choices=("chrome", "prometheus"), default="chrome",
        help="chrome: load in chrome://tracing or ui.perfetto.dev; "
             "prometheus: text exposition of counters/gauges/histograms",
    )
    export.add_argument(
        "--out", default=None,
        help="output path (default: TRACE.chrome.json / TRACE.prom)",
    )
    telemetry_commands.add_parser(
        "schema", help="print the JSONL event record schema"
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    top = commands.add_parser(
        "top",
        help="live SLO/latency/trace dashboard over a JSONL trace",
    )
    top.add_argument("trace", help="the JSONL trace file a serving or "
                     "cluster run is appending to")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between redraws")
    top.add_argument("--iterations", type=int, default=0,
                     help="render this many frames then exit "
                          "(0 = until interrupted; 1 = single-shot)")
    top.set_defaults(func=_cmd_top)
    return parser


def _export_on_close(trace_path: str) -> None:
    """Honour the export knobs once the CLI's telemetry trace has closed.

    ``REPRO_TRACE_CHROME`` / ``REPRO_PROM_FILE`` name output paths; both
    need the finished JSONL trace on disk, so a ``-`` (stderr) trace
    warns instead of exporting.
    """
    chrome = knob(telemetry_mod.TRACE_CHROME_ENV).current
    prom = knob(telemetry_mod.PROM_FILE_ENV).current
    if chrome is None and prom is None:
        return
    if trace_path == "-":
        telemetry_mod.warn_once(
            "trace_export_stderr",
            "REPRO_TRACE_CHROME/REPRO_PROM_FILE need a file trace; "
            "--telemetry - streams to stderr, skipping export",
        )
        return
    try:
        # The JSONL sink opens lazily: a run that emitted no records
        # leaves no file, which exports as an empty (but valid) view.
        if os.path.exists(trace_path):
            records, _skipped = telemetry_mod.load_trace_tolerant(
                trace_path
            )
        else:
            records = []
        if chrome:
            count = telemetry_mod.write_chrome(chrome, records)
            print(f"wrote {count} trace events to {chrome}",
                  file=sys.stderr)
        if prom:
            count = telemetry_mod.write_prometheus(prom, records)
            print(f"wrote {count} exposition lines to {prom}",
                  file=sys.stderr)
    except OSError as error:
        print(f"warning: trace export failed: {error}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configured = None
    if args.telemetry:
        configured = telemetry_mod.configure(args.telemetry)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if configured is not None:
            configured.close()
            telemetry_mod.reset()
            _export_on_close(args.telemetry)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
