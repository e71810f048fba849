"""Command-line interface: ``repro-bench`` / ``python -m repro``.

Every serving command constructs its engines through the
:class:`~repro.service.GraphService` façade — one configuration surface
(:class:`~repro.service.ServiceConfig`), one planner, one set of flags.
``--alpha``/``--executor``/``--workers`` are uniform across ``run``,
``batch``, ``update`` and ``shard``: same names, defaults and validation,
sourced from the shared argparse parent
(:func:`repro.service.service_flag_parent`).

Subcommands
-----------
``list``
    Show the available experiments and datasets.
``run EXPERIMENT [...]``
    Run one or more experiments (``all`` for every one) and print their
    tables; ``--scale full`` uses the larger surrogates, ``--output`` writes
    the report to a file as well; ``--alpha`` overrides the scale profile's
    sweep values; ``--executor``/``--workers`` route the resource-bounded
    batches through the service (answers are identical for every choice).
``datasets``
    Print the profile of each registered dataset surrogate.
``batch``
    Answer a batch of queries through the service — sample a workload (or
    read reachability pairs from a file), let the planner route it, and
    report throughput and cache behaviour, plus accuracy against the exact
    oracle for sampled *reachability* workloads (pattern workloads skip the
    exact matchers — running them would dwarf the batch being measured).
``update``
    Replay a generated delta stream through ``GraphService.update``,
    interleaving query batches, and report update throughput (ops/s),
    per-delta staleness, the planner's patch/rebuild decisions and cache
    retention; ``--verify`` additionally checks every batch against a
    freshly opened service (the rebuild-equivalence contract).
``subscribe``
    Register a sampled workload as *standing queries*, replay a generated
    churn stream through ``GraphService.update`` and report how the
    maintenance pass behaves: affected/skipped fractions per batch, answer
    deltas pushed, maintenance wall time; ``--confine`` restricts churn to a
    trailing fraction of the node space (localised churn is where standing
    queries win), ``--verify`` checks every maintained answer against a
    freshly opened service and replays each pushed delta log.
``trace``
    Record a traced batch through the service with the flight recorder on,
    resolve the p99 latency exemplar to its assembled cross-process
    timeline, print it as a waterfall with the critical path marked, and
    optionally export Chrome trace-event JSON (``--export``) loadable in
    ``chrome://tracing`` or Perfetto.
``shard``
    Partition a dataset into ``k`` shards and answer a sampled workload
    through the service's sharded backend (scatter policy: the full PR 4
    scatter–gather routing), reporting the cut, per-shard routing counts,
    spillover and throughput; ``--compare-unsharded`` also answers the
    batch on a single-graph service and reports answer agreement plus
    relative speed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.harness import available_experiments, run_all, run_experiment
from repro.experiments.reporting import format_many, summary_claims
from repro.graph.statistics import summarize_for_report
from repro.service.config import SCATTER, ServiceConfig, config_from_args, service_flag_parent
from repro.service.reporting import (
    accuracy_summary,
    answers_identical,
    load_reach_queries,
    print_accuracy,
    sample_requests,
    warn_unknown_nodes,
    write_json_report,
)
from repro.workloads.datasets import available_datasets, load_dataset


def _prepare_kwargs(kind: str, alpha: float) -> dict:
    """Map a CLI query kind to the matching ``prepare`` keyword."""
    if kind == "reach":
        return {"reach_alphas": [alpha]}
    if kind == "sim":
        return {"pattern_alphas": [alpha]}
    return {"subgraph_alphas": [alpha]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of 'Querying Big Graphs within Bounded Resources'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    service_flags = service_flag_parent()

    subparsers.add_parser("list", help="list available experiments and datasets")

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments", parents=[service_flags]
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. fig8c table2), or 'all'",
    )
    run_parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--output", type=Path, default=None, help="also write the report to this file")

    datasets_parser = subparsers.add_parser("datasets", help="print dataset surrogate profiles")
    datasets_parser.add_argument(
        "--backend",
        choices=["digraph", "csr"],
        default="digraph",
        help="graph backend to build the surrogates on (csr = numpy compressed-sparse-row)",
    )

    batch_parser = subparsers.add_parser(
        "batch",
        help="answer a batch of queries through the service and report throughput",
        parents=[service_flags],
    )
    batch_parser.add_argument("--dataset", default="youtube-small", help="dataset the service serves")
    batch_parser.add_argument(
        "--kind",
        choices=["reach", "sim", "sub"],
        default="reach",
        help="query class: RBReach reachability, RBSim simulation or RBSub subgraph patterns",
    )
    batch_parser.add_argument("--count", type=int, default=200, help="sampled workload size")
    batch_parser.add_argument(
        "--queries",
        type=Path,
        default=None,
        help="reach only: file of 'source target' lines to answer instead of sampling",
    )
    batch_parser.add_argument(
        "--shape",
        default="4,8",
        help="pattern shape '|Vp|,|Ep|' for sampled pattern workloads (default 4,8)",
    )
    batch_parser.add_argument("--seed", type=int, default=0)
    batch_parser.add_argument(
        "--repeat", type=int, default=1, help="answer the same batch N times (shows the LRU cache)"
    )
    batch_parser.add_argument(
        "--compare-serial",
        action="store_true",
        help="also run the serial path and report parity plus speedup",
    )
    batch_parser.add_argument("--output", type=Path, default=None, help="write a JSON report here")

    update_parser = subparsers.add_parser(
        "update",
        help="replay a delta stream through the service and report update throughput",
        parents=[service_flags],
    )
    update_parser.add_argument("--dataset", default="youtube-small", help="dataset the service serves")
    update_parser.add_argument("--batches", type=int, default=10, help="number of delta batches")
    update_parser.add_argument("--ops", type=int, default=50, help="mutations per delta batch")
    update_parser.add_argument(
        "--mix",
        choices=["growth", "uniform"],
        default="growth",
        help="churn pattern: growth (attachment churn) or uniform (random rewiring)",
    )
    update_parser.add_argument(
        "--queries", type=int, default=100, help="reachability queries answered between deltas"
    )
    update_parser.add_argument("--seed", type=int, default=0)
    update_parser.add_argument(
        "--verify",
        action="store_true",
        help="after every delta, compare answers against a freshly opened service",
    )
    update_parser.add_argument("--output", type=Path, default=None, help="write a JSON report here")

    subscribe_parser = subparsers.add_parser(
        "subscribe",
        help="register standing queries, replay a churn stream and report maintenance",
        parents=[service_flags],
    )
    subscribe_parser.add_argument("--dataset", default="youtube-small", help="dataset the service serves")
    subscribe_parser.add_argument(
        "--kind",
        choices=["reach", "sim", "sub", "mixed"],
        default="mixed",
        help="standing-query class (mixed = half reachability, half simulation patterns)",
    )
    subscribe_parser.add_argument(
        "--count", type=int, default=32, help="number of standing subscriptions"
    )
    subscribe_parser.add_argument(
        "--shape",
        default="3,3",
        help="pattern shape '|Vp|,|Ep|' for sampled pattern subscriptions (default 3,3)",
    )
    subscribe_parser.add_argument("--batches", type=int, default=8, help="number of delta batches")
    subscribe_parser.add_argument("--ops", type=int, default=20, help="mutations per delta batch")
    subscribe_parser.add_argument(
        "--mix",
        choices=["growth", "uniform"],
        default="growth",
        help="churn pattern: growth (attachment churn) or uniform (random rewiring)",
    )
    subscribe_parser.add_argument(
        "--confine",
        type=float,
        default=None,
        metavar="FRACTION",
        help="confine churn to the trailing FRACTION of node ids (0 < f <= 1); "
        "localised churn is where maintenance beats re-answering",
    )
    subscribe_parser.add_argument("--seed", type=int, default=0)
    subscribe_parser.add_argument(
        "--verify",
        action="store_true",
        help="after every delta, check maintained answers against a freshly "
        "opened service; at the end, replay every pushed delta log",
    )
    subscribe_parser.add_argument("--output", type=Path, default=None, help="write a JSON report here")

    shard_parser = subparsers.add_parser(
        "shard",
        help="partition a dataset and answer a workload through the sharded backend",
        parents=[service_flags],
    )
    shard_parser.add_argument("--dataset", default="youtube-small", help="dataset to partition and serve")
    shard_parser.add_argument("--shards", "-k", type=int, default=4, help="number of shards k")
    shard_parser.add_argument(
        "--method",
        choices=["greedy", "hash"],
        default="greedy",
        help="partitioner: seeded BFS-grown greedy edge-cut minimiser, or the hash baseline",
    )
    shard_parser.add_argument(
        "--halo-depth",
        type=int,
        default=None,
        help="ghost-region depth (default 3 = the pattern-parity margin; "
        "1 gives thinner halos for reach-only serving and stronger update locality)",
    )
    shard_parser.add_argument(
        "--kind",
        choices=["reach", "sim", "sub"],
        default="reach",
        help="query class: RBReach reachability, RBSim simulation or RBSub subgraph patterns",
    )
    shard_parser.add_argument("--count", type=int, default=200, help="sampled workload size")
    shard_parser.add_argument(
        "--shape",
        default="4,8",
        help="pattern shape '|Vp|,|Ep|' for sampled pattern workloads (default 4,8)",
    )
    shard_parser.add_argument("--seed", type=int, default=0)
    shard_parser.add_argument(
        "--compare-unsharded",
        action="store_true",
        help="also answer the batch on a single-graph service and report agreement + speedup",
    )
    shard_parser.add_argument("--output", type=Path, default=None, help="write a JSON report here")

    trace_parser = subparsers.add_parser(
        "trace",
        help="record a traced batch and print its cross-process waterfall timeline",
        parents=[service_flags],
    )
    trace_parser.add_argument("--dataset", default="youtube-small", help="dataset the service serves")
    trace_parser.add_argument("--count", type=int, default=200, help="sampled workload size")
    trace_parser.add_argument(
        "--batches", type=int, default=3, help="batches to record (later ones exercise the cache)"
    )
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-query log threshold in milliseconds (default 100)",
    )
    trace_parser.add_argument(
        "--export",
        type=Path,
        default=None,
        help="write Chrome trace-event JSON of the selected timeline here "
        "(load in chrome://tracing or Perfetto)",
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="pretty-print a metrics registry snapshot (from --metrics-json, or a fresh sample run)",
        parents=[service_flags],
    )
    stats_parser.add_argument(
        "--input",
        type=Path,
        default=None,
        help="a JSON snapshot written by --metrics-json; omitted = answer a "
        "sampled batch and print the live registry",
    )
    stats_parser.add_argument("--dataset", default="youtube-small", help="dataset for the sample run")
    stats_parser.add_argument("--count", type=int, default=200, help="sampled workload size")
    stats_parser.add_argument("--seed", type=int, default=0)
    return parser


def _command_list() -> int:
    print("experiments:")
    for experiment_id in available_experiments():
        print(f"  {experiment_id}")
    print("datasets:")
    for dataset in available_datasets():
        print(f"  {dataset}")
    return 0


def _command_datasets(backend: str = "digraph") -> int:
    for name in available_datasets():
        graph = load_dataset(name, backend=backend)
        stats = summarize_for_report(graph, name)
        print(
            f"{name}: |V|={stats['nodes']} |E|={stats['edges']} |G|={stats['size']} "
            f"labels={stats['labels']} max_degree={stats['max_degree']} avg_degree={stats['avg_degree']} "
            f"backend={type(graph).__name__}"
        )
    return 0


def _command_batch(args) -> int:
    from repro.service import GraphService, ReachRequest

    config = config_from_args(args)
    alpha = config.alpha
    # The seed selects the surrogate graph too, mirroring the `run` command,
    # so batch numbers are comparable with experiment runs at the same seed.
    graph = load_dataset(args.dataset, seed=args.seed)
    truth = None
    pairs = None
    if args.kind == "reach" and args.queries is not None:
        pairs = load_reach_queries(args.queries)
        # RBReach answers False for nodes outside the graph, which would
        # read as a healthy all-unreachable report — flag it instead.
        warn_unknown_nodes(graph, pairs, args.dataset)
        requests = [ReachRequest(source, target) for source, target in pairs]
    else:
        if args.queries is not None:
            raise SystemExit("--queries files are only supported for --kind reach")
        requests, pairs, truth = sample_requests(
            graph, args.kind, args.count, args.shape, args.seed
        )

    # The context manager stops any daemons the batch started.
    with GraphService(graph, config) as service:
        started = time.perf_counter()
        service.prepare(**_prepare_kwargs(args.kind, alpha))
        prepare_seconds = time.perf_counter() - started

        print(
            f"batch: kind={args.kind} dataset={args.dataset} n={len(requests)} alpha={alpha} "
            f"executor={config.executor} workers={config.workers or 'auto'}"
        )
        print(f"engine: backend={service.backend} prepare={prepare_seconds:.3f}s (once per graph)")

        runs = []
        answers = None
        plan = None
        for run_number in range(1, max(1, args.repeat) + 1):
            report = service.run_batch(requests)
            answers = report.answers
            plan = report.plan
            runs.append(report)
            print(
                f"run {run_number}: wall={report.wall_seconds:.3f}s "
                f"throughput={report.throughput:.1f} q/s "
                f"cache hits={report.cache_hits} misses={report.cache_misses} "
                f"chunks={report.chunks}"
            )
        print(f"plan: backend={plan.backend} executor={plan.executor} ({plan.reason})")

        payload = {
            "dataset": args.dataset,
            "kind": args.kind,
            "alpha": alpha,
            "executor": config.executor,
            "workers": config.workers,
            "backend": service.backend,
            "plan_backend": plan.backend,
            "plan_executor": plan.executor,
            "num_queries": len(requests),
            "prepare_seconds": prepare_seconds,
            "runs": [
                {
                    "wall_seconds": report.wall_seconds,
                    "throughput_qps": report.throughput,
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                }
                for report in runs
            ],
        }

        if truth is not None:
            summary = accuracy_summary(pairs, answers, truth)
            payload["accuracy_f_measure"] = summary["accuracy_f_measure"]
            print_accuracy(summary)

        exit_code = 0
        if args.compare_serial:
            if plan.executor == "serial":
                print(
                    "note: --compare-serial skipped — the planned executor already "
                    "is the serial reference path",
                    file=sys.stderr,
                )
            else:
                engine = service.engine
                engine.clear_cache()
                serial_report = engine.run_batch(
                    [request.to_query() for request in requests], alpha, executor="serial"
                )
                identical = answers_identical(args.kind, answers, serial_report.answers)
                speedup = (
                    serial_report.wall_seconds / runs[0].wall_seconds
                    if runs[0].wall_seconds > 0
                    else 0.0
                )
                payload["serial_wall_seconds"] = serial_report.wall_seconds
                payload["parallel_speedup"] = speedup
                payload["parity"] = identical
                print(
                    f"parity vs serial: {'identical answers' if identical else 'MISMATCH'}; "
                    f"speedup {speedup:.2f}x"
                )
                if not identical:
                    exit_code = 1  # still write the report: it documents the mismatch

    write_json_report(args.output, payload)
    return exit_code


def _command_update(args) -> int:
    from repro.service import GraphService, ReachRequest, ServiceConfig
    from repro.workloads.deltas import generate_delta_stream
    from repro.workloads.queries import sample_mixed_pairs

    config = config_from_args(args)
    alpha = config.alpha
    graph = load_dataset(args.dataset, seed=args.seed)
    stream = generate_delta_stream(
        graph, batches=args.batches, ops_per_batch=args.ops, mix=args.mix, seed=args.seed
    )
    pairs = sample_mixed_pairs(graph, args.queries, seed=args.seed)
    requests = [ReachRequest(source, target) for source, target in pairs]

    service = GraphService(graph, config)
    started = time.perf_counter()
    service.prepare(reach_alphas=[alpha])
    prepare_seconds = time.perf_counter() - started
    print(
        f"update: dataset={args.dataset} |V|={graph.num_nodes()} |E|={graph.num_edges()} "
        f"alpha={alpha} mix={args.mix} batches={len(stream)} ops/batch={args.ops}"
    )
    print(f"engine: backend={service.backend} prepare={prepare_seconds:.3f}s (once, before the stream)")

    service.run_batch(requests)

    modes: dict = {}
    staleness: List[float] = []
    compactions = 0
    evicted = retained = 0
    verify_failures = 0
    for batch_number, delta in enumerate(stream, start=1):
        report = service.update(delta)
        staleness.append(report.wall_seconds)
        modes[report.mode] = modes.get(report.mode, 0) + 1
        compactions += int(report.engine_report.summary.compacted)
        evicted += report.cache_evicted
        retained = report.cache_retained
        query_report = service.run_batch(requests)
        line = (
            f"batch {batch_number}: ops={delta.size()} mode={report.mode} "
            f"plan={report.plan.action} "
            f"staleness={report.wall_seconds * 1000:.1f}ms "
            f"updates/s={report.ops_per_second:.0f} "
            f"queries/s={query_report.throughput:.0f} "
            f"cache evicted={report.cache_evicted} retained={report.cache_retained}"
        )
        if args.verify:
            fresh = GraphService(
                service.graph,
                ServiceConfig(executor="serial", cache_size=0, mirror="never"),
            )
            fresh_answers = fresh.run_batch(requests, alpha=alpha).answers
            identical = answers_identical("reach", query_report.answers, fresh_answers)
            line += f" verify={'ok' if identical else 'MISMATCH'}"
            if not identical:
                verify_failures += 1
        print(line)

    total_ops = stream.total_ops()
    total_update_seconds = sum(staleness)
    print(
        f"stream: {total_ops} ops in {total_update_seconds:.3f}s "
        f"({total_ops / total_update_seconds:.0f} ops/s) "
        f"modes={modes} compactions={compactions} "
        f"mean staleness={1000 * total_update_seconds / max(1, len(staleness)):.1f}ms"
    )
    payload = {
        "dataset": args.dataset,
        "alpha": alpha,
        "mix": args.mix,
        "batches": len(stream),
        "ops_per_batch": args.ops,
        "total_ops": total_ops,
        "prepare_seconds": prepare_seconds,
        "update_seconds": total_update_seconds,
        "updates_per_second": total_ops / total_update_seconds if total_update_seconds else 0.0,
        "mean_staleness_ms": 1000 * total_update_seconds / max(1, len(staleness)),
        "modes": modes,
        "compactions": compactions,
        "cache_evicted_total": evicted,
        "cache_retained_final": retained,
        "verified": bool(args.verify),
        "verify_failures": verify_failures,
    }
    write_json_report(args.output, payload)
    return 1 if verify_failures else 0


def _command_subscribe(args) -> int:
    from repro.service import GraphService, ServiceConfig, replay
    from repro.subscribe import answer_signature
    from repro.workloads.deltas import generate_delta_stream

    if args.count < 1:
        raise SystemExit(f"--count must be >= 1, got {args.count}")
    if args.confine is not None and not 0.0 < args.confine <= 1.0:
        raise SystemExit(f"--confine must be in (0, 1], got {args.confine}")
    config = config_from_args(args)
    alpha = config.alpha
    graph = load_dataset(args.dataset, seed=args.seed)

    if args.kind == "mixed":
        reach_count = args.count - args.count // 2
        requests = sample_requests(graph, "reach", reach_count, args.shape, args.seed)[0]
        if args.count // 2:
            requests += sample_requests(
                graph, "sim", args.count // 2, args.shape, args.seed
            )[0]
    else:
        requests = sample_requests(graph, args.kind, args.count, args.shape, args.seed)[0]

    confined = None
    if args.confine is not None:
        ordered = sorted(graph.nodes())
        keep = max(1, int(len(ordered) * args.confine))
        confined = ordered[len(ordered) - keep :]
    stream = generate_delta_stream(
        graph,
        batches=args.batches,
        ops_per_batch=args.ops,
        mix=args.mix,
        seed=args.seed,
        confine_nodes=confined,
    )

    service = GraphService(graph, config)
    started = time.perf_counter()
    logs: dict = {}
    subscriptions = []
    for request in requests:
        log: list = []
        subscription = service.subscribe(request, sink=log.append)
        logs[subscription.id] = log
        subscriptions.append(subscription)
    register_seconds = time.perf_counter() - started

    print(
        f"subscribe: dataset={args.dataset} kind={args.kind} standing={len(subscriptions)} "
        f"alpha={alpha} mix={args.mix} batches={len(stream)} ops/batch={args.ops}"
        + (f" confine={args.confine:.0%} of nodes" if args.confine is not None else "")
    )
    print(
        f"registered: {len(subscriptions)} subscriptions in {register_seconds:.3f}s "
        f"(answers materialised; epoch-0 snapshots pushed)"
    )

    affected = skipped = changed = 0
    maintenance_seconds = 0.0
    churn: dict = {}
    verify_failures = 0
    for batch_number, delta in enumerate(stream, start=1):
        report = service.update(delta)
        pass_report = report.maintenance
        affected += pass_report.affected
        skipped += pass_report.skipped
        changed += pass_report.changed
        maintenance_seconds += pass_report.wall_seconds
        for op_kind, count in delta.ops_by_kind().items():
            churn[op_kind] = churn.get(op_kind, 0) + count
        line = (
            f"batch {batch_number}: ops={delta.size()} mode={report.mode} "
            f"affected={pass_report.affected}/{pass_report.subscriptions} "
            f"({pass_report.affected_fraction:.0%}) deltas={pass_report.changed} "
            f"maintain={pass_report.wall_seconds * 1000:.1f}ms"
        )
        if args.verify:
            fresh = GraphService(
                service.graph,
                ServiceConfig(executor="serial", cache_size=0, mirror="never"),
            )
            fresh_answers = fresh.run_batch(requests, alpha=alpha).answers
            identical = all(
                subscription.signature()
                == answer_signature(subscription.kind, answer)
                for subscription, answer in zip(subscriptions, fresh_answers)
            )
            line += f" verify={'ok' if identical else 'MISMATCH'}"
            if not identical:
                verify_failures += 1
        print(line)

    evaluations = len(subscriptions) * max(1, len(stream))
    replay_ok = None
    if args.verify:
        replay_ok = all(
            answer_signature(subscription.kind, replay(logs[subscription.id]))
            == subscription.signature()
            for subscription in subscriptions
        )
        if not replay_ok:
            verify_failures += 1
    pushed = sum(len(log) for log in logs.values())
    print(
        f"stream: churn={churn or '{}'} affected={affected}/{evaluations} "
        f"({affected / evaluations:.0%}) skipped={skipped} "
        f"answer deltas={changed} (+{len(subscriptions)} snapshots, {pushed} pushed) "
        f"maintenance={maintenance_seconds * 1000:.1f}ms total"
    )
    if replay_ok is not None:
        print(f"replay: {'every pushed log replays to the live answer' if replay_ok else 'MISMATCH'}")

    payload = {
        "dataset": args.dataset,
        "kind": args.kind,
        "alpha": alpha,
        "mix": args.mix,
        "confine": args.confine,
        "subscriptions": len(subscriptions),
        "batches": len(stream),
        "ops_per_batch": args.ops,
        "churn_ops": churn,
        "register_seconds": register_seconds,
        "affected": affected,
        "skipped": skipped,
        "affected_fraction": affected / evaluations,
        "answer_deltas": changed,
        "deltas_pushed": pushed,
        "maintenance_seconds": maintenance_seconds,
        "verified": bool(args.verify),
        "verify_failures": verify_failures,
        "replay_parity": replay_ok,
    }
    write_json_report(args.output, payload)
    return 1 if verify_failures else 0


def _command_shard(args) -> int:
    from repro.service import GraphService, ServiceConfig

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    config = config_from_args(
        args,
        num_shards=args.shards,
        shard_method=args.method,
        shard_policy=SCATTER,
        **({"halo_depth": args.halo_depth} if args.halo_depth is not None else {}),
    )
    alpha = config.alpha
    graph = load_dataset(args.dataset, seed=args.seed)
    requests, pairs, truth = sample_requests(
        graph, args.kind, args.count, args.shape, args.seed
    )

    started = time.perf_counter()
    service = GraphService(graph, config)
    service.prepare(**_prepare_kwargs(args.kind, alpha))
    prepare_seconds = time.perf_counter() - started
    profile = service.shard_profile()

    print(
        f"shard: dataset={args.dataset} k={args.shards} method={args.method} "
        f"halo_depth={config.halo_depth} kind={args.kind} n={len(requests)} alpha={alpha} "
        f"executor={config.executor} workers={config.workers or 'auto'}"
    )
    print(
        f"partition: nodes/shard={profile['shard_nodes']} "
        f"cut={profile['cut_edges']} ({profile['cut_fraction']:.1%} of edges) "
        f"boundary={profile['boundary_fraction']:.1%} of nodes"
    )
    print(
        f"boundary graph: {profile['boundary_supernodes']} supernodes, "
        f"{profile['boundary_edges']} edges, routes={profile['cross_shard_routes'] or '{}'}"
    )
    print(f"prepare: {prepare_seconds:.3f}s (partition + per-shard indexes + boundary)")

    report = service.run_batch(requests)
    print(
        f"batch: wall={report.wall_seconds:.3f}s throughput={report.throughput:.1f} q/s "
        f"chunks={report.chunks}"
    )
    print(f"routing: per-shard={dict(sorted(report.per_shard.items()))}")
    print(
        f"spillover: cross-shard={report.cross_reach} local-miss-composed={report.miss_composed} "
        f"pattern-spilled={report.pattern_spilled} "
        f"({report.spillover_fraction:.1%} of the batch)"
    )

    payload = {
        "dataset": args.dataset,
        "kind": args.kind,
        "alpha": alpha,
        "num_shards": args.shards,
        "method": args.method,
        "halo_depth": config.halo_depth,
        "executor": config.executor,
        "workers": config.workers,
        "num_queries": len(requests),
        "prepare_seconds": prepare_seconds,
        "partition": profile,
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput,
        "per_shard": {str(shard): count for shard, count in sorted(report.per_shard.items())},
        "cross_reach": report.cross_reach,
        "miss_composed": report.miss_composed,
        "pattern_contained": report.pattern_contained,
        "pattern_spilled": report.pattern_spilled,
        "spillover_fraction": report.spillover_fraction,
    }

    if truth is not None:
        summary = accuracy_summary(pairs, report.answers, truth)
        payload["accuracy_f_measure"] = summary["accuracy_f_measure"]
        payload["false_positives"] = summary["false_positives"]
        print_accuracy(summary, contract_note=True)

    # A false positive breaks the hard contract: fail the command (the
    # report is still written so the violation is documented).
    exit_code = 1 if payload.get("false_positives") else 0
    if args.compare_unsharded:
        single = GraphService(
            graph, ServiceConfig(executor="serial", cache_size=0, alpha=alpha)
        )
        single.prepare(**_prepare_kwargs(args.kind, alpha))
        single_report = single.run_batch(requests)
        if args.kind == "reach":
            agree = sum(
                1
                for mine, theirs in zip(report.answers, single_report.answers)
                if mine.reachable == theirs.reachable
            )
            sharded_fp = sum(
                1
                for mine, theirs in zip(report.answers, single_report.answers)
                if mine.reachable and not theirs.reachable
            )
        else:
            agree = sum(
                1
                for mine, theirs in zip(report.answers, single_report.answers)
                if mine.answer == theirs.answer
            )
            sharded_fp = 0
        speedup = (
            single_report.wall_seconds / report.wall_seconds
            if report.wall_seconds > 0
            else 0.0
        )
        payload["unsharded_wall_seconds"] = single_report.wall_seconds
        payload["sharded_speedup"] = speedup
        payload["agreement"] = agree / max(1, len(requests))
        print(
            f"vs unsharded: agreement={agree}/{len(requests)} "
            f"positives-not-in-unsharded={sharded_fp} speedup={speedup:.2f}x"
        )

    write_json_report(args.output, payload)
    return exit_code


def _command_trace(args) -> int:
    from repro.obs import flight
    from repro.service import GraphService

    config = config_from_args(args)
    graph = load_dataset(args.dataset, seed=args.seed)
    requests, _, _ = sample_requests(graph, "reach", args.count, "4,8", args.seed)
    with GraphService(graph, config) as service:
        service.prepare(reach_alphas=[config.alpha])
        slow_ms = args.slow_ms if args.slow_ms is not None else flight.DEFAULT_SLOW_MS
        service.enable_tracing(
            capacity=max(flight.DEFAULT_CAPACITY, args.batches), slow_ms=slow_ms
        )
        try:
            print(
                f"trace: dataset={args.dataset} n={len(requests)} batches={args.batches} "
                f"executor={config.executor} workers={config.workers or 'auto'}"
            )
            for number in range(1, max(1, args.batches) + 1):
                report = service.run_batch(requests)
                print(
                    f"batch {number}: wall={report.wall_seconds * 1000:.1f}ms "
                    f"trace={report.trace_id}"
                )
            trace_id, timeline = service.trace_for_percentile("service.batch.seconds", 0.99)
            if timeline is None:
                # Exemplar evicted or missing: fall back to the slowest
                # recorded timeline so the command still shows something.
                recent = service.recent_traces()
                timeline = max(recent, key=lambda tl: tl.wall_ms) if recent else None
            if timeline is None:
                print("no completed timelines were recorded", file=sys.stderr)
                return 1
            print(f"\np99 exemplar: trace {trace_id or timeline.trace_id}")
            slow = service.slow_traces()
            if slow:
                print(
                    "slow-query log (>= %.1fms): %s"
                    % (slow_ms, ", ".join(f"{tl.trace_id} ({tl.wall_ms:.1f}ms)" for tl in slow))
                )
            print()
            print(flight.format_waterfall(timeline))
            if args.export is not None:
                flight.write_chrome_trace(timeline, args.export)
                print(
                    f"(chrome trace written to {args.export} — load in "
                    "chrome://tracing or Perfetto)"
                )
        finally:
            service.disable_tracing()
    return 0


def _command_stats(args) -> int:
    import json

    from repro import obs
    from repro.service import GraphService

    if args.input is not None:
        try:
            snapshot = json.loads(args.input.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"could not read metrics snapshot {args.input}: {exc}")
        print(obs.format_snapshot(snapshot))
        return 0

    # No snapshot given: answer a small sampled batch so the registry has
    # something to show, then print the live registry.
    config = config_from_args(args)
    graph = load_dataset(args.dataset, seed=args.seed)
    requests, _, _ = sample_requests(graph, "reach", args.count, "4,8", args.seed)
    with GraphService(graph, config) as service:
        service.prepare(reach_alphas=[config.alpha])
        service.run_batch(requests)
        service.run_batch(requests)  # second pass shows the cache counters
    print(obs.format_snapshot(obs.snapshot()))
    return 0


def _command_run(
    experiments: List[str],
    scale: str,
    seed: int,
    output: Optional[Path],
    executor: str = "auto",
    workers: Optional[int] = None,
    alpha: Optional[float] = None,
) -> int:
    if len(experiments) == 1 and experiments[0] == "all":
        results = run_all(scale=scale, seed=seed, executor=executor, workers=workers, alpha=alpha)
    else:
        results = [
            run_experiment(
                experiment_id, scale=scale, seed=seed, executor=executor, workers=workers, alpha=alpha
            )
            for experiment_id in experiments
        ]
    report = format_many(results)
    claims = summary_claims(results)
    text = report + "\n\nSummary:\n" + "\n".join(f"  {claim}" for claim in claims) + "\n"
    print(text)
    if output is not None:
        output.write_text(text, encoding="utf-8")
        print(f"(report written to {output})")
    return 0


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "datasets":
        return _command_datasets(backend=args.backend)
    if args.command == "run":
        return _command_run(
            args.experiments,
            args.scale,
            args.seed,
            args.output,
            args.executor,
            args.workers,
            args.alpha,
        )
    if args.command == "batch":
        return _command_batch(args)
    if args.command == "update":
        return _command_update(args)
    if args.command == "subscribe":
        return _command_subscribe(args)
    if args.command == "shard":
        return _command_shard(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "stats":
        return _command_stats(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    exit_code = _dispatch(parser, args)
    # Every service-flag command accepts --metrics-json: dump the process
    # registry after the command ran (including daemon-worker snapshots that
    # merged back over the pipes), readable with `repro-bench stats --input`.
    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path is not None:
        from repro import obs

        obs.write_snapshot(metrics_path)
        print(f"(metrics written to {metrics_path})")
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
