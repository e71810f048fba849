"""Benchmark: sharded scatter–gather serving vs the single-graph engine.

The workload is the one partitioned serving is built for — a community-
structured graph (low conductance clusters, a few bridges) with a mixed
reachability batch whose positive pairs mostly stay inside a community.
Asserted:

* **contract, always**: the sharded engine never answers a false positive
  (checked against the exact oracle), answers are identical across the
  sharded executors (serial and the warm daemon pool), and ``k = 1`` is
  bit-identical to the unsharded engine;
* **cut quality, always**: the seeded greedy partitioner beats the hash
  baseline's edge cut on the clustered topology;
* **throughput, on capable machines**: at ``k = 4`` with daemon-backed
  shards the batch throughput must reach >= 2x the unsharded serial
  engine.  The claim combines two effects — shard-parallel evaluation and
  the smaller per-shard ``alpha``-budget share — but the parallel half
  physically needs >= 4 schedulable cores, so (like
  ``bench_engine_parallel``) the throughput assertion alone is skipped
  below 4 cores with an explicit reason; the contract checks run
  everywhere.

``measure_shard_scatter`` packages the same run for ``tools/bench_report.py``
(the ``shard`` suite with the committed ``BENCH_shard.json`` baseline).

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_shard_scatter.py -q
"""

from __future__ import annotations

import random

import pytest

from conftest import BENCH_SEED, REPORT_DIR

MIN_SHARD_SPEEDUP = 2.0
MIN_WORKERS = 4
NUM_SHARDS = 4
ALPHA = 0.1
QUERIES = 6000
CLUSTERS = 4
CLUSTER_SIZE = 1000
PARITY_QUERIES = 300


def clustered_graph(seed: int):
    """Community-structured surrogate: deep DAG clusters plus a few bridges.

    Forward chains with random forward jumps keep every cluster a deep DAG
    (no giant SCC), so positive queries force real drill-down/roll-up work
    on the landmark index instead of an O(1) same-component hit — the
    regime where per-query cost, and therefore the scatter–gather speedup,
    is actually measurable.
    """
    from repro.graph.digraph import DiGraph

    rng = random.Random(seed)
    graph = DiGraph()
    for cluster in range(CLUSTERS):
        for i in range(CLUSTER_SIZE):
            graph.add_node(cluster * CLUSTER_SIZE + i, rng.choice("ABCDE"))
    for cluster in range(CLUSTERS):
        base = cluster * CLUSTER_SIZE
        for i in range(CLUSTER_SIZE - 1):
            graph.add_edge(base + i, base + i + 1)
            for _ in range(2):
                jump = i + rng.randint(2, 60)
                if jump < CLUSTER_SIZE:
                    graph.add_edge(base + i, base + jump)
    for cluster in range(CLUSTERS):
        other = (cluster + 1) % CLUSTERS
        for _ in range(4):
            graph.add_edge(
                cluster * CLUSTER_SIZE + rng.randrange(CLUSTER_SIZE),
                other * CLUSTER_SIZE + rng.randrange(CLUSTER_SIZE),
            )
    return graph


def _report(lines):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / "shard_scatter.txt"
    with path.open("a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _signatures(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


def _cores() -> int:
    from repro.engine import default_workers

    return default_workers()


def measure_shard_scatter(seed: int = BENCH_SEED) -> dict:
    """One full measurement: contract witnesses plus throughput numbers."""
    from repro.engine import QueryEngine, ReachQuery
    from repro.graph.traversal import is_reachable
    from repro.shard import ShardedEngine, greedy_partition, hash_partition
    from repro.workloads.queries import sample_mixed_pairs

    graph = clustered_graph(seed)
    queries = [
        ReachQuery(source, target)
        for source, target in sample_mixed_pairs(graph, QUERIES, seed=seed)
    ]

    unsharded = QueryEngine(graph, cache_size=0)
    unsharded.prepare(reach_alphas=[ALPHA])
    sharded = ShardedEngine(graph, num_shards=NUM_SHARDS, seed=seed)
    sharded.prepare(reach_alphas=[ALPHA])

    greedy_cut = sharded.partition.cut_fraction()
    hash_cut = hash_partition(graph, NUM_SHARDS).cut_fraction()

    # Contract witnesses -------------------------------------------------- #
    single = ShardedEngine(graph, num_shards=1, seed=seed)
    k1 = _signatures(single.answer_batch(queries[:PARITY_QUERIES], ALPHA))
    reference = _signatures(unsharded.answer_batch(queries[:PARITY_QUERIES], ALPHA))
    k1_parity = int(k1 == reference)

    sharded_answers = sharded.answer_batch(queries, ALPHA)
    false_positives = sum(
        1
        for query, answer in zip(queries, sharded_answers)
        if answer.reachable and not is_reachable(graph, query.source, query.target)
    )

    # Throughput ---------------------------------------------------------- #
    def best_of(run, rounds=2):
        best = None
        for _ in range(rounds):
            report = run()
            if best is None or report.throughput > best.throughput:
                best = report
        return best

    unsharded_report = best_of(lambda: unsharded.run_batch(queries, ALPHA))
    sharded_serial = best_of(lambda: sharded.run_batch(queries, ALPHA))
    # Warm the daemon pool before timing: the first batch pays the one-off
    # spawn + shared-state publication, later batches reuse attached workers.
    sharded.run_batch(queries[:PARITY_QUERIES], ALPHA, executor="daemon", workers=MIN_WORKERS)
    sharded_daemon = best_of(
        lambda: sharded.run_batch(queries, ALPHA, executor="daemon", workers=MIN_WORKERS)
    )
    sharded.close()  # release the daemon pool + shared segments
    speedup = (
        sharded_daemon.throughput / unsharded_report.throughput
        if unsharded_report.throughput > 0
        else 0.0
    )
    serial_speedup = (
        sharded_serial.throughput / unsharded_report.throughput
        if unsharded_report.throughput > 0
        else 0.0
    )

    same_shard = sharded_serial.local_reach / max(1, len(queries))
    return {
        "dataset": f"clustered-{CLUSTERS}x{CLUSTER_SIZE}",
        "alpha": ALPHA,
        "num_shards": NUM_SHARDS,
        "queries": len(queries),
        "cores": _cores(),
        "greedy_cut_fraction": round(greedy_cut, 4),
        "hash_cut_fraction": round(hash_cut, 4),
        "cut_improvement": round(hash_cut / greedy_cut, 3) if greedy_cut > 0 else 999.0,
        "same_shard_fraction": round(same_shard, 3),
        "spillover_fraction": round(sharded_serial.spillover_fraction, 3),
        "unsharded_qps": round(unsharded_report.throughput, 1),
        "sharded_serial_qps": round(sharded_serial.throughput, 1),
        "sharded_daemon_qps": round(sharded_daemon.throughput, 1),
        "sharded_serial_speedup": round(serial_speedup, 3),
        "shard_speedup": round(speedup, 3),
        "k1_parity": k1_parity,
        "no_false_positives": int(false_positives == 0),
        "false_positives": false_positives,
    }


@pytest.fixture(scope="module")
def metrics():
    return measure_shard_scatter(seed=BENCH_SEED)


def test_contract_no_false_positives(metrics):
    """A sharded True always certifies a real path (any core count)."""
    assert metrics["no_false_positives"] == 1, (
        f"sharded engine produced {metrics['false_positives']} false positives"
    )


def test_contract_k1_bit_parity(metrics):
    """k=1 sharded answers are field-identical to the unsharded engine."""
    assert metrics["k1_parity"] == 1


def test_greedy_partitioner_beats_hash(metrics):
    """The BFS-grown greedy cut must beat the hash baseline on clusters."""
    assert metrics["greedy_cut_fraction"] < metrics["hash_cut_fraction"], metrics


def test_sharded_executor_parity():
    """Sharded answers are identical across executors and worker counts."""
    from repro.engine import ReachQuery
    from repro.shard import ShardedEngine
    from repro.workloads.queries import sample_mixed_pairs

    graph = clustered_graph(BENCH_SEED)
    queries = [
        ReachQuery(source, target)
        for source, target in sample_mixed_pairs(graph, PARITY_QUERIES, seed=BENCH_SEED)
    ]
    with ShardedEngine(graph, num_shards=NUM_SHARDS, seed=BENCH_SEED) as engine:
        serial = _signatures(engine.answer_batch(queries, ALPHA))
        for workers in (2, MIN_WORKERS):
            answers = engine.answer_batch(queries, ALPHA, executor="daemon", workers=workers)
            assert _signatures(answers) == serial, (
                f"daemon executor with {workers} workers diverged from serial"
            )
            # The pool fixes its size on first use: close it so the next
            # worker count gets a pool (and chunking) of its own.
            engine.close()
    _report([f"parity: serial == daemon on {len(queries)} queries (2/4 workers)"])


def test_scatter_gather_throughput(metrics):
    """>= 2x batch throughput at k=4 with daemon-backed shards (>= 4 cores)."""
    cores = metrics["cores"]
    _report(
        [
            f"throughput ({metrics['queries']} queries, alpha={ALPHA}, cores={cores}, "
            f"same-shard={metrics['same_shard_fraction']:.0%}): "
            f"unsharded={metrics['unsharded_qps']:.0f} q/s "
            f"sharded-serial={metrics['sharded_serial_qps']:.0f} q/s "
            f"sharded-daemon[{MIN_WORKERS}]={metrics['sharded_daemon_qps']:.0f} q/s "
            f"speedup={metrics['shard_speedup']:.2f}x "
            f"(cut: greedy={metrics['greedy_cut_fraction']:.1%} "
            f"hash={metrics['hash_cut_fraction']:.1%})"
        ]
    )
    if cores < MIN_WORKERS:
        pytest.skip(
            f"only {cores} schedulable core(s): the >= {MIN_SHARD_SPEEDUP}x / "
            f"{MIN_WORKERS}-worker scatter-gather throughput claim needs >= "
            f"{MIN_WORKERS} cores (the contract checks ran above; "
            "BENCH_shard.json marks the speedup metrics 'skipped' on such runners)"
        )
    assert metrics["shard_speedup"] >= MIN_SHARD_SPEEDUP, (
        f"sharded daemon throughput only {metrics['shard_speedup']:.2f}x the "
        f"unsharded serial engine at k={NUM_SHARDS} on {cores} cores"
    )
