#!/usr/bin/env python
"""Machine-readable benchmark reports plus the CI regression gate.

Runs eight quick smoke suites and writes one JSON report each:

* ``BENCH_engine.json`` — the batched query engine: serial vs
  warm-daemon-pool throughput on an RBReach batch, the daemon-backed
  parallel speedup, LRU-cache behaviour;
* ``BENCH_backend.json`` — DiGraph vs CSRGraph on the BFS-heavy traversal
  suite and the end-to-end RBReach experiment loop;
* ``BENCH_updates.json`` — incremental ``QueryEngine.update`` vs a full
  re-prepare on ≤1% delta batches, plus update throughput;
* ``BENCH_shard.json`` — the sharded serving layer: contract witnesses
  (never-false-positive, k=1 bit-parity), greedy-vs-hash cut quality and
  scatter–gather throughput vs the unsharded engine;
* ``BENCH_service.json`` — the ``GraphService`` façade: ≤5% overhead vs
  the raw engine on warm batches, planner-vs-naive-serial speedup, and the
  bit-parity witnesses of the routing contract;
* ``BENCH_latency.json`` — open-loop tail latency (p50/p99/p999) of the
  async front-end under seeded Poisson and burst arrival schedules;
* ``BENCH_kernels.json`` — the word-parallel bitset kernel tier: one
  multi-source ``reach_batch`` sweep vs a per-source ``reach_mask`` loop,
  plain and absorbing (landmark-style stop sets), with bit-parity gated;
* ``BENCH_subscriptions.json`` — standing-query maintenance: the shared
  invalidation oracle re-evaluating only affected subscriptions vs naively
  re-answering all of them per delta, with both parity witnesses gated.

Each report carries a ``gates`` table naming the metrics CI guards.  Gated
metrics are deliberately *relative* (speedups, hit rates, 0/1 correctness
witnesses): they transfer across runner generations, unlike absolute wall
times, which are recorded for information only — with one exception: the
latency suite gates absolute p99 milliseconds, because tail latency *is*
its deliverable (the committed ceilings are hand-relaxed well above any
healthy runner's numbers).  A report may also carry a ``skipped`` table
(metric → reason): metrics a runner physically cannot exhibit — pool
speedups on a 1–2 core box — are recorded for the trajectory but excluded
from gating, instead of letting a <1x "speedup" read as a regression.
``--check`` compares the
fresh numbers against the committed baselines in ``benchmarks/baselines/``
and fails when any gated metric regresses by more than ``--tolerance``
(default 30%).  After an intentional performance change, refresh the
baselines with ``--update`` — which also *creates* a baseline file that
does not exist yet (the bootstrap path for a newly registered suite).

Usage:
    python tools/bench_report.py                 # run suites, write reports
    python tools/bench_report.py --check         # ... and enforce the gate
    python tools/bench_report.py --update        # ... and rewrite baselines
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DEFAULT_OUTPUT_DIR = ROOT / "benchmarks" / "_reports"
DEFAULT_BASELINE_DIR = ROOT / "benchmarks" / "baselines"
DEFAULT_TOLERANCE = 0.30

SEED = 7
ENGINE_ALPHA = 0.1
ENGINE_QUERIES = 1500
BACKEND_TRAVERSAL_SOURCES = 8
BACKEND_RBREACH_QUERIES = 200


def _cores() -> int:
    from repro.engine import default_workers

    return default_workers()


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cores": _cores(),
    }


# --------------------------------------------------------------------------- #
# Suites
# --------------------------------------------------------------------------- #
def engine_suite() -> dict:
    """Serial vs warm-daemon batched answering plus cache behaviour."""
    from repro.engine import QueryEngine, ReachQuery
    from repro.workloads.datasets import load_dataset
    from repro.workloads.queries import sample_mixed_pairs

    graph = load_dataset("yahoo-small", seed=SEED)
    queries = [
        ReachQuery(source, target)
        for source, target in sample_mixed_pairs(graph, ENGINE_QUERIES, seed=SEED)
    ]

    engine = QueryEngine(graph, cache_size=0)
    started = time.perf_counter()
    engine.prepare(reach_alphas=[ENGINE_ALPHA])
    prepare_seconds = time.perf_counter() - started

    serial = engine.run_batch(queries, ENGINE_ALPHA)
    workers = min(4, max(2, _cores()))
    # Warm the daemon pool first (one-off spawn + shared-state publication),
    # then time a steady-state batch: this is the path the auto planner
    # routes large batches through, so parallel_speedup is daemon-backed.
    engine.run_batch(queries[: len(queries) // 4], ENGINE_ALPHA, executor="daemon", workers=workers)
    daemon = engine.run_batch(queries, ENGINE_ALPHA, executor="daemon", workers=workers)
    engine.close()
    if [a.reachable for a in serial.answers] != [a.reachable for a in daemon.answers]:
        raise SystemExit("engine suite: daemon executor diverged from serial answers")
    daemon_speedup = (
        daemon.throughput / serial.throughput if serial.throughput > 0 else 0.0
    )
    parallel_speedup = daemon_speedup

    cached = QueryEngine(graph, cache_size=len(queries) + 1)
    cached.prepare(reach_alphas=[ENGINE_ALPHA])
    cold = cached.run_batch(queries, ENGINE_ALPHA)
    warm = cached.run_batch(queries, ENGINE_ALPHA)
    cache_speedup = (
        cold.wall_seconds / warm.wall_seconds if warm.wall_seconds > 0 else float("inf")
    )
    cache_hit_rate = warm.cache_hits / max(1, len(queries))

    report = {
        "suite": "engine",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": "yahoo-small",
            "alpha": ENGINE_ALPHA,
            "queries": ENGINE_QUERIES,
            "workers": workers,
        },
        "metrics": {
            "prepare_seconds": round(prepare_seconds, 4),
            "serial_wall_seconds": round(serial.wall_seconds, 4),
            "serial_qps": round(serial.throughput, 1),
            "daemon_wall_seconds": round(daemon.wall_seconds, 4),
            "daemon_qps": round(daemon.throughput, 1),
            "daemon_speedup": round(daemon_speedup, 3),
            "parallel_speedup": round(parallel_speedup, 3),
            "cache_warm_wall_seconds": round(warm.wall_seconds, 5),
            "cache_speedup": round(min(cache_speedup, 1000.0), 1),
            "cache_hit_rate": round(cache_hit_rate, 3),
        },
        # Relative metrics only: absolute q/s depends on the runner and is
        # informational.  parallel_speedup (the warm daemon pool — the auto
        # planner's parallel route) is gated against a conservative committed
        # floor so faster CI runners only ever raise the bar.
        "gates": {
            "parallel_speedup": "higher",
            "daemon_speedup": "higher",
            "cache_speedup": "higher",
            "cache_hit_rate": "higher",
        },
    }
    cores = _cores()
    if cores < 4:
        # A 1–2 core runner physically cannot exhibit a pool speedup.  The
        # raw values still go to the trajectory, but tagged as skipped and
        # dropped from the gates, so a <1x "speedup" is never read as a
        # regression (the answers-parity checks above ran regardless).
        reason = "single-core" if cores == 1 else f"only {cores} cores"
        report["skipped"] = {
            "parallel_speedup": reason,
            "daemon_speedup": reason,
        }
        for metric in report["skipped"]:
            report["gates"].pop(metric, None)
    return report


def backend_suite() -> dict:
    """DiGraph vs CSRGraph on traversal and the RBReach experiment loop."""
    from repro.graph import traversal as tr
    from repro.graph.csr import CSRGraph
    from repro.reachability.rbreach import RBReach
    from repro.workloads.datasets import yahoo_like
    from repro.workloads.queries import generate_reachability_workload

    digraph = yahoo_like(seed=SEED)
    csr = CSRGraph.from_digraph(digraph)
    rng = random.Random(SEED)
    nodes = list(digraph.nodes())
    sources = [rng.choice(nodes) for _ in range(BACKEND_TRAVERSAL_SOURCES)]
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(20)]

    def traversal_suite(graph):
        levels = [tr.bfs_levels(graph, source) for source in sources]
        upstream = [tr.ancestors(graph, source) for source in sources]
        oracle = [tr.bidirectional_reachable(graph, s, t) for s, t in pairs]
        return levels, upstream, oracle

    def timed(fn, rounds=2):
        best = float("inf")
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return result, best

    traversal_suite(digraph)
    traversal_suite(csr)  # warm both paths before timing
    base_result, digraph_traversal = timed(lambda: traversal_suite(digraph))
    csr_result, csr_traversal = timed(lambda: traversal_suite(csr))
    if base_result != csr_result:
        raise SystemExit("backend suite: traversal results diverged between backends")
    traversal_speedup = digraph_traversal / csr_traversal if csr_traversal > 0 else 0.0

    def rbreach_loop(graph):
        workload = generate_reachability_workload(
            graph, count=BACKEND_RBREACH_QUERIES, seed=SEED
        )
        matcher = RBReach.from_graph(graph, alpha=0.01)
        answers = {pair: matcher.query(*pair).reachable for pair in workload.pairs}
        return sum(1 for pair, truth in workload.truth.items() if answers[pair] == truth)

    base_correct, digraph_rbreach = timed(lambda: rbreach_loop(digraph))
    csr_correct, csr_rbreach = timed(lambda: rbreach_loop(csr))
    if base_correct != csr_correct:
        raise SystemExit("backend suite: RBReach answers diverged between backends")
    rbreach_speedup = digraph_rbreach / csr_rbreach if csr_rbreach > 0 else 0.0

    return {
        "suite": "backend",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": "yahoo-like",
            "traversal_sources": BACKEND_TRAVERSAL_SOURCES,
            "rbreach_queries": BACKEND_RBREACH_QUERIES,
        },
        "metrics": {
            "digraph_traversal_seconds": round(digraph_traversal, 4),
            "csr_traversal_seconds": round(csr_traversal, 4),
            "csr_traversal_speedup": round(traversal_speedup, 3),
            "digraph_rbreach_seconds": round(digraph_rbreach, 4),
            "csr_rbreach_seconds": round(csr_rbreach, 4),
            "csr_rbreach_speedup": round(rbreach_speedup, 3),
        },
        "gates": {
            "csr_traversal_speedup": "higher",
            "csr_rbreach_speedup": "higher",
        },
    }


def updates_suite() -> dict:
    """Incremental update maintenance vs full re-preparation."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_updates_incremental import measure_incremental_update

    metrics = measure_incremental_update(seed=SEED)
    return {
        "suite": "updates",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": metrics["dataset"],
            "alpha": metrics["alpha"],
            "delta_fraction": metrics["delta_fraction"],
            "ops_per_batch": metrics["ops_per_batch"],
            "batches": metrics["batches"],
        },
        "metrics": {
            "initial_prepare_seconds": metrics["initial_prepare_seconds"],
            "bootstrap_update_seconds": metrics["bootstrap_update_seconds"],
            "warm_update_seconds": metrics["warm_update_seconds"],
            "full_prepare_seconds": metrics["full_prepare_seconds"],
            "incremental_speedup": metrics["incremental_speedup"],
            "updates_per_second": metrics["updates_per_second"],
            "patched_batches": metrics["modes"].get("patched", 0),
            "rebuild_equivalent": int(metrics["rebuild_equivalent"]),
        },
        # incremental_speedup is the headline relative metric;
        # rebuild_equivalent is a hard 0/1 correctness witness (any drop
        # below 1 fails the gate outright at every tolerance).
        "gates": {
            "incremental_speedup": "higher",
            "rebuild_equivalent": "higher",
        },
    }


def shard_suite() -> dict:
    """Sharded scatter–gather serving vs the single-graph engine."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_shard_scatter import measure_shard_scatter

    metrics = measure_shard_scatter(seed=SEED)
    report = {
        "suite": "shard",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": metrics["dataset"],
            "alpha": metrics["alpha"],
            "num_shards": metrics["num_shards"],
            "queries": metrics["queries"],
        },
        "metrics": {
            "greedy_cut_fraction": metrics["greedy_cut_fraction"],
            "hash_cut_fraction": metrics["hash_cut_fraction"],
            "cut_improvement": metrics["cut_improvement"],
            "same_shard_fraction": metrics["same_shard_fraction"],
            "spillover_fraction": metrics["spillover_fraction"],
            "unsharded_qps": metrics["unsharded_qps"],
            "sharded_serial_qps": metrics["sharded_serial_qps"],
            "sharded_daemon_qps": metrics["sharded_daemon_qps"],
            "sharded_serial_speedup": metrics["sharded_serial_speedup"],
            "shard_speedup": metrics["shard_speedup"],
            "k1_parity": metrics["k1_parity"],
            "no_false_positives": metrics["no_false_positives"],
        },
        # The two 0/1 witnesses are hard correctness gates (any drop fails at
        # every tolerance); cut_improvement and the *serial* shard speedup
        # are relative and runner-independent.  The daemon-backed
        # shard_speedup is informational only — it depends on the runner's
        # core count, which bench_shard_scatter gates separately (with a skip
        # below 4 cores).
        "gates": {
            "no_false_positives": "higher",
            "k1_parity": "higher",
            "cut_improvement": "higher",
            "sharded_serial_speedup": "higher",
        },
    }
    if metrics["cores"] < 4:
        # Informational, never gated — but tag them so the trajectory does
        # not read this runner's <1x pool numbers as a performance story.
        reason = (
            "single-core" if metrics["cores"] == 1 else f"only {metrics['cores']} cores"
        )
        report["skipped"] = {"shard_speedup": reason}
    return report


def service_suite() -> dict:
    """The GraphService façade vs the raw engine, plus planner quality."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_service_facade import measure_service_facade

    metrics = measure_service_facade(seed=SEED)
    return {
        "suite": "service",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": metrics["dataset"],
            "alpha": metrics["alpha"],
            "queries": metrics["queries"],
        },
        "metrics": {
            "direct_wall_seconds": metrics["direct_wall_seconds"],
            "service_wall_seconds": metrics["service_wall_seconds"],
            "facade_overhead": metrics["facade_overhead"],
            "facade_efficiency": metrics["facade_efficiency"],
            "cache_hit_overhead": metrics["cache_hit_overhead"],
            "metrics_overhead": metrics["metrics_overhead"],
            "planner_speedup": metrics["planner_speedup"],
            "facade_parity": metrics["facade_parity"],
            "planner_parity": metrics["planner_parity"],
        },
        # The two parity witnesses are hard 0/1 correctness gates.
        # facade_efficiency (direct/service wall, ~1.0 when the façade is
        # free) and planner_speedup (naive serial / planner choice) are the
        # relative, runner-independent floors; the raw walls and the
        # cache-hit-path overhead are informational.  The hard ≤5% overhead
        # bar itself is asserted by bench_service_facade.py in bench-smoke.
        "gates": {
            "facade_parity": "higher",
            "planner_parity": "higher",
            "facade_efficiency": "higher",
            "planner_speedup": "higher",
        },
    }


def kernels_suite() -> dict:
    """Multi-source batched bitset BFS vs the per-source reach_mask loop."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_kernels_batched import measure_kernels_batched

    metrics = measure_kernels_batched(seed=SEED)
    return {
        "suite": "kernels",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": metrics["dataset"],
            "num_sources": metrics["num_sources"],
            "num_nodes": metrics["num_nodes"],
        },
        "metrics": {
            "batched_parity": metrics["batched_parity"],
            "batched_speedup": metrics["batched_speedup"],
            "batched_loop_seconds": metrics["batched_loop_seconds"],
            "batched_batch_seconds": metrics["batched_batch_seconds"],
            "absorbing_parity": metrics["absorbing_parity"],
            "absorbing_speedup": metrics["absorbing_speedup"],
            "absorbing_loop_seconds": metrics["absorbing_loop_seconds"],
            "absorbing_batch_seconds": metrics["absorbing_batch_seconds"],
        },
        # The two parity witnesses are hard 0/1 correctness gates (any drop
        # fails at every tolerance): a fast-but-wrong sweep must never pass.
        # The speedups are single-process and word-parallel — no pool, no
        # core-count dependence — so they gate on every runner.
        "gates": {
            "batched_parity": "higher",
            "absorbing_parity": "higher",
            "batched_speedup": "higher",
            "absorbing_speedup": "higher",
        },
    }


def latency_suite() -> dict:
    """Open-loop tail latency of the async front-end under arrival schedules."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_service_latency import measure_service_latency

    metrics = measure_service_latency(seed=SEED)
    return {
        "suite": "latency",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "dataset": metrics["dataset"],
            "alpha": metrics["alpha"],
            "duration_seconds": metrics["duration_seconds"],
            "rates": metrics["rates"],
        },
        "metrics": {
            key: value
            for key, value in metrics.items()
            if key.startswith(("poisson_", "burst_"))
        },
        # The one suite gating absolute wall time: tail latency in
        # milliseconds *is* the deliverable, and the measurement is open-loop
        # (latency from the scheduled arrival, so backlog counts).  The
        # committed ceilings are hand-relaxed far above a healthy runner's
        # numbers — see the baseline's note — so only a real serving
        # regression (or a pathological runner) trips them.
        "gates": {
            "poisson_50_p99_ms": "lower",
            "poisson_200_p99_ms": "lower",
        },
    }


def subscriptions_suite() -> dict:
    """Standing-query maintenance vs naive per-delta re-answering."""
    import sys as _sys

    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in _sys.path:
        _sys.path.insert(0, bench_dir)
    from bench_subscriptions import measure_subscriptions

    metrics = measure_subscriptions(seed=SEED)
    return {
        "suite": "subscriptions",
        "schema_version": 1,
        "environment": _environment(),
        "config": {
            "alpha": metrics["alpha"],
            "graph_size": metrics["graph_size"],
            "subscriptions": metrics["subscriptions"],
            "batches": metrics["batches"],
            "ops_per_batch": metrics["ops_per_batch"],
        },
        "metrics": {
            "affected_fraction": metrics["affected_fraction"],
            "maintenance_seconds": metrics["maintenance_seconds"],
            "naive_seconds": metrics["naive_seconds"],
            "maintenance_speedup": metrics["maintenance_speedup"],
            "changed": metrics["changed"],
            "parity": int(metrics["parity"]),
            "replay_parity": int(metrics["replay_parity"]),
        },
        # maintenance_speedup is the headline relative metric;
        # affected_fraction is gated *lower* (over-invalidation erodes the
        # skip rate long before it breaks correctness); the two parity
        # witnesses are hard 0/1 gates — any drop below 1 fails outright.
        "gates": {
            "maintenance_speedup": "higher",
            "affected_fraction": "lower",
            "parity": "higher",
            "replay_parity": "higher",
        },
    }


SUITES = {
    "engine": engine_suite,
    "backend": backend_suite,
    "updates": updates_suite,
    "shard": shard_suite,
    "service": service_suite,
    "latency": latency_suite,
    "kernels": kernels_suite,
    "subscriptions": subscriptions_suite,
}


# --------------------------------------------------------------------------- #
# Gate
# --------------------------------------------------------------------------- #
class BaselineError(RuntimeError):
    """A committed baseline file is missing or unusable."""


def load_baseline(path: Path) -> dict:
    """Parse a committed baseline, raising a *clear* error when unusable.

    A missing, syntactically broken or structurally wrong baseline file must
    fail the gate with an actionable message (and a non-zero exit), not a
    raw traceback: the fix is always the same — rerun with ``--update``.
    """
    if not path.exists():
        raise BaselineError(f"no committed baseline at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BaselineError(f"baseline {path} is unreadable or malformed JSON: {error}") from error
    if not isinstance(payload, dict) or not isinstance(payload.get("metrics"), dict):
        raise BaselineError(
            f"baseline {path} has no 'metrics' table; regenerate it with --update"
        )
    if not isinstance(payload.get("gates", {}), dict):
        raise BaselineError(f"baseline {path} has a malformed 'gates' table")
    return payload


def check_against_baseline(report: dict, baseline: dict, tolerance: float) -> list:
    """Failure messages for every gated metric that regressed past tolerance."""
    failures = []
    skipped = report.get("skipped", {})
    for metric, direction in baseline.get("gates", {}).items():
        if metric in skipped:
            # The fresh report marked this metric unachievable on the
            # current runner (e.g. a pool speedup below 4 cores): recorded
            # for the trajectory, excluded from gating.
            continue
        base_value = baseline["metrics"].get(metric)
        current = report["metrics"].get(metric)
        if base_value is None:
            continue
        if current is None:
            failures.append(f"{report['suite']}: gated metric {metric!r} missing from report")
            continue
        if direction == "higher":
            floor = base_value * (1.0 - tolerance)
            if current < floor:
                failures.append(
                    f"{report['suite']}.{metric}: {current:.3f} regressed below "
                    f"{floor:.3f} (baseline {base_value:.3f}, tolerance {tolerance:.0%})"
                )
        else:  # "lower": smaller is better (reserved for wall-time gates)
            ceiling = base_value * (1.0 + tolerance)
            if current > ceiling:
                failures.append(
                    f"{report['suite']}.{metric}: {current:.3f} regressed above "
                    f"{ceiling:.3f} (baseline {base_value:.3f}, tolerance {tolerance:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", type=Path, default=DEFAULT_OUTPUT_DIR)
    parser.add_argument("--baseline-dir", type=Path, default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--check", action="store_true", help="fail on gated regressions")
    parser.add_argument("--update", action="store_true", help="rewrite the committed baselines")
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
        help="run a single suite (default: all)",
    )
    args = parser.parse_args(argv)

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    args.output_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    for name in names:
        print(f"[bench_report] running {name} suite ...", flush=True)
        report = SUITES[name]()
        output_path = args.output_dir / f"BENCH_{name}.json"
        output_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        gated = {metric: report["metrics"][metric] for metric in report["gates"]}
        print(f"[bench_report] {name}: {gated} -> {output_path}")
        if report.get("skipped"):
            print(f"[bench_report] {name}: not gated on this runner: {report['skipped']}")

        if args.update:
            args.baseline_dir.mkdir(parents=True, exist_ok=True)
            baseline_path = args.baseline_dir / f"BENCH_{name}.json"
            merged = dict(report)
            if baseline_path.exists():
                # Gated metrics are conservative *floors*: --update only ever
                # lowers them (a fast workstation must not bake in a bar that
                # a shared CI runner can never clear).  Raising a floor after
                # an intentional improvement is a deliberate act — edit the
                # baseline file by hand.
                try:
                    previous = load_baseline(baseline_path)
                except BaselineError as error:
                    print(f"[bench_report] replacing unusable baseline: {error}")
                    previous = {}
                if "note" in previous:
                    merged["note"] = previous["note"]
                for metric, direction in merged.get("gates", {}).items():
                    old_value = previous.get("metrics", {}).get(metric)
                    if old_value is not None:
                        # "higher"-is-better gates keep the lower floor;
                        # "lower"-is-better gates keep the higher ceiling.
                        relax = min if direction == "higher" else max
                        merged["metrics"] = dict(merged["metrics"])
                        merged["metrics"][metric] = relax(merged["metrics"][metric], old_value)
            baseline_path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
            print(
                f"[bench_report] baseline updated: {baseline_path} "
                "(gated floors only ratchet down; raise them by editing the file)"
            )
        elif args.check:
            baseline_path = args.baseline_dir / f"BENCH_{name}.json"
            try:
                baseline = load_baseline(baseline_path)
            except BaselineError as error:
                failures.append(f"{name}: {error} (regenerate with --update)")
                continue
            failures.extend(check_against_baseline(report, baseline, args.tolerance))

    if failures:
        print("[bench_report] REGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  - {failure}")
        print("[bench_report] intentional change? refresh with: python tools/bench_report.py --update")
        return 1
    if args.check:
        print("[bench_report] regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
