"""Property tests for the sharded serving layer (``repro.shard``).

The contract under test:

* **never a false positive** — a sharded reachability answer of ``True``
  always certifies a real path in the full graph, for every ``k``, every
  partitioner and every executor;
* **bit-identical when shard-contained** — whenever a query's ball stays
  inside its home shard's core (always at ``k = 1``), the sharded answer is
  field-for-field identical to the single-graph ``QueryEngine``'s, for every
  executor and worker count;
* **updates route to the owning shards** — confined churn takes the
  incremental per-shard path, wider churn rebuilds exactly the affected
  shards, and both preserve the two properties above.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import PatternQuery, QueryEngine, ReachQuery
from repro.exceptions import ShardError
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.traversal import is_reachable
from repro.shard import (
    Partition,
    ShardedEngine,
    build_shards,
    greedy_partition,
    hash_partition,
    hash_shard,
    partition_graph,
)
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_pattern_workload, sample_mixed_pairs

ALPHA = 0.1
KS = (1, 2, 4)
EXECUTORS = ("serial", "daemon")


def clustered_graph(clusters=4, size=60, chords=2, bridges=3, seed=1) -> DiGraph:
    """Ring-of-chords clusters joined by a few bridges.

    Low conductance and large intra-cluster diameter: the greedy partitioner
    aligns shards with clusters, halos stay thin, and small pattern balls
    fit inside one core — the workload shape sharding is built for.
    """
    rng = random.Random(seed)
    graph = DiGraph()
    for cluster in range(clusters):
        for i in range(size):
            graph.add_node(cluster * size + i, rng.choice("ABCDE"))
    for cluster in range(clusters):
        base = cluster * size
        for i in range(size):
            graph.add_edge(base + i, base + (i + 1) % size)
            graph.add_edge(base + (i + 1) % size, base + i)
        for _ in range(chords * size // 4):
            left, right = rng.randrange(size), rng.randrange(size)
            if left != right:
                graph.add_edge(base + left, base + right)
    for cluster in range(clusters):
        other = (cluster + 1) % clusters
        for _ in range(bridges):
            graph.add_edge(
                cluster * size + rng.randrange(size), other * size + rng.randrange(size)
            )
    return graph


def reach_signature(answers):
    return [(a.reachable, a.visited, a.met_at, a.exhausted) for a in answers]


def pattern_signature(answer):
    return (
        frozenset(answer.answer),
        tuple(answer.subgraph.nodes()) if answer.subgraph is not None else (),
        tuple(answer.subgraph.edges()) if answer.subgraph is not None else (),
        answer.subgraph_size,
    )


@pytest.fixture(scope="module")
def graph():
    return clustered_graph()


@pytest.fixture(scope="module")
def reach_queries(graph):
    return [ReachQuery(s, t) for s, t in sample_mixed_pairs(graph, 80, seed=3)]


@pytest.fixture(scope="module")
def baseline(graph, reach_queries):
    engine = QueryEngine(graph, cache_size=0)
    engine.prepare(reach_alphas=[ALPHA])
    return engine


@pytest.fixture(scope="module")
def sharded_engines(graph):
    engines = {k: ShardedEngine(graph, num_shards=k, seed=7) for k in KS}
    yield engines
    for engine in engines.values():
        engine.close()  # daemon pools + their shared segments


# --------------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------------- #
class TestPartition:
    def test_every_node_assigned_once(self, graph):
        for method in ("hash", "greedy"):
            partition = partition_graph(graph, 4, method=method, seed=5)
            assert set(partition.assignment) == set(graph.nodes())
            assert sum(partition.shard_sizes()) == graph.num_nodes()
            assert all(0 <= shard < 4 for shard in partition.assignment.values())

    def test_same_seed_identical(self, graph):
        first = greedy_partition(graph, 4, seed=11)
        second = greedy_partition(graph, 4, seed=11)
        assert first.assignment == second.assignment
        assert first.boundary == second.boundary
        assert first.cut_edges == second.cut_edges

    def test_hash_partition_matches_hash_rule(self, graph):
        partition = hash_partition(graph, 4)
        for node in graph.nodes():
            assert partition.assignment[node] == hash_shard(node, 4)

    def test_greedy_beats_hash_on_clustered_graph(self, graph):
        greedy = greedy_partition(graph, 4, seed=7)
        hashed = hash_partition(graph, 4)
        assert greedy.cut_fraction() < hashed.cut_fraction()

    def test_cut_statistics_consistent(self, graph):
        partition = greedy_partition(graph, 4, seed=7)
        cut = sum(
            1
            for source, target in graph.edges()
            if partition.assignment[source] != partition.assignment[target]
        )
        assert partition.cut_edges == cut
        assert partition.total_edges == graph.num_edges()
        for shard, members in partition.boundary.items():
            for node in members:
                assert partition.assignment[node] == shard
                assert any(
                    partition.assignment[neighbor] != shard
                    for neighbor in graph.neighbors(node)
                )

    def test_single_shard_has_no_boundary(self, graph):
        partition = partition_graph(graph, 1)
        assert partition.cut_edges == 0
        assert all(not members for members in partition.boundary.values())

    def test_round_trip_through_json(self, graph):
        partition = greedy_partition(graph, 3, seed=2)
        loaded = Partition.from_json(partition.to_json())
        assert loaded.assignment == partition.assignment
        assert loaded.boundary == partition.boundary
        assert (loaded.num_shards, loaded.method, loaded.seed) == (3, "greedy", 2)
        assert (loaded.cut_edges, loaded.total_edges) == (
            partition.cut_edges,
            partition.total_edges,
        )

    def test_invalid_configurations(self, graph):
        with pytest.raises(ShardError):
            partition_graph(graph, 0)
        with pytest.raises(ShardError):
            partition_graph(graph, graph.num_nodes() + 1, method="greedy")
        with pytest.raises(ShardError):
            partition_graph(graph, 2, method="metis")
        with pytest.raises(ShardError):
            Partition.from_json("{not json")


# --------------------------------------------------------------------------- #
# Shard graphs
# --------------------------------------------------------------------------- #
class TestShardGraphs:
    def test_k1_reproduces_the_csr_mirror(self, graph):
        from repro.graph.csr import CSRGraph

        shards = build_shards(graph, partition_graph(graph, 1))
        shard = shards[0]
        mirror = CSRGraph.from_digraph(graph)
        assert list(shard.graph.nodes()) == list(mirror.nodes())
        assert list(shard.graph.edges()) == list(mirror.edges())
        assert shard.graph.labels() == mirror.labels()
        assert [shard.graph.degree(n) for n in graph.nodes()] == [
            mirror.degree(n) for n in graph.nodes()
        ]
        assert not shard.halo
        assert shard.core_size == graph.size()

    def test_core_adjacency_is_complete_and_ordered(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition)
        for shard in shards.values():
            for node in shard.core_list[:20]:
                assert list(shard.graph.successors(node)) == list(graph.successors(node))
                assert list(shard.graph.predecessors(node)) == list(graph.predecessors(node))
                assert shard.graph.degree(node) == graph.degree(node)
                assert shard.graph.label(node) == graph.label(node)

    def test_core_sizes_split_the_global_budget(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition)
        assert sum(shard.core_size for shard in shards.values()) == graph.size()

    def test_halo_is_within_depth(self, graph):
        partition = partition_graph(graph, 4, seed=7)
        shards = build_shards(graph, partition, halo_depth=2)
        for shard in shards.values():
            for node in list(shard.halo)[:20]:
                # within 2 undirected hops of some core node
                frontier = {node}
                found = False
                for _ in range(2):
                    frontier = {
                        neighbor
                        for current in frontier
                        for neighbor in graph.neighbors(current)
                    }
                    if frontier & shard.core:
                        found = True
                        break
                assert found

    def test_halo_depth_zero_rejected(self, graph):
        with pytest.raises(ShardError):
            build_shards(graph, partition_graph(graph, 2), halo_depth=0)


# --------------------------------------------------------------------------- #
# The parity contract
# --------------------------------------------------------------------------- #
class TestReachParity:
    @pytest.mark.parametrize("k", KS)
    def test_never_false_positive(self, graph, reach_queries, sharded_engines, k):
        answers = sharded_engines[k].answer_batch(reach_queries, ALPHA)
        for query, answer in zip(reach_queries, answers):
            if answer.reachable:
                assert is_reachable(graph, query.source, query.target), (
                    f"k={k}: sharded engine invented {query.source}->{query.target}"
                )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_k1_bit_identical_to_unsharded(
        self, baseline, reach_queries, sharded_engines, executor
    ):
        expected = reach_signature(baseline.answer_batch(reach_queries, ALPHA))
        answers = sharded_engines[1].answer_batch(
            reach_queries, ALPHA, executor=executor, workers=2
        )
        assert reach_signature(answers) == expected

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executor_parity(self, reach_queries, sharded_engines, k, executor):
        serial = reach_signature(sharded_engines[k].answer_batch(reach_queries, ALPHA))
        for workers in (1, 2):
            answers = sharded_engines[k].answer_batch(
                reach_queries, ALPHA, executor=executor, workers=workers
            )
            assert reach_signature(answers) == serial, (
                f"{executor}[{workers}] diverged from serial at k={k}"
            )
            # A daemon pool fixes its size on first use: close it so the
            # next worker count gets a pool (and chunking) of its own.
            sharded_engines[k].close()

    def test_unknown_endpoints_answer_unreachable(self, graph, sharded_engines):
        queries = [ReachQuery("ghost", 0), ReachQuery(0, "ghost")]
        for k in KS:
            answers = sharded_engines[k].answer_batch(queries, ALPHA)
            assert [a.reachable for a in answers] == [False, False]

    def test_cross_shard_positive_is_found(self):
        # Two chains joined by one bridge; with full budgets the boundary
        # graph must compose the cross-shard path.
        graph = DiGraph()
        for i in range(8):
            graph.add_node(("a", i), "A")
            graph.add_node(("b", i), "B")
        for i in range(7):
            graph.add_edge(("a", i), ("a", i + 1))
            graph.add_edge(("b", i), ("b", i + 1))
        graph.add_edge(("a", 7), ("b", 0))
        assignment = {node: 0 if node[0] == "a" else 1 for node in graph.nodes()}
        partition = Partition(num_shards=2, method="manual", seed=0, assignment=assignment)
        from repro.shard.partition import refresh_partition_statistics

        refresh_partition_statistics(graph, partition)
        engine = ShardedEngine(graph, partition=partition)
        answers = engine.answer_batch(
            [ReachQuery(("a", 0), ("b", 7)), ReachQuery(("b", 0), ("a", 0))], 1.0
        )
        assert answers[0].reachable and answers[0].met_at is not None
        assert not answers[1].reachable


class TestPatternParity:
    @pytest.fixture(scope="class")
    def pattern_queries(self, graph):
        workload = generate_pattern_workload(graph, shape=(3, 4), count=8, seed=11)
        simulation = [PatternQuery(q.pattern, q.personalized_match) for q in workload]
        subgraph = [
            PatternQuery(q.pattern, q.personalized_match, semantics="subgraph")
            for q in workload
        ]
        return simulation + subgraph

    @pytest.fixture(scope="class")
    def expected(self, baseline, pattern_queries):
        return [
            pattern_signature(a) for a in baseline.answer_batch(pattern_queries, ALPHA)
        ]

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_contained_balls_bit_identical(
        self, sharded_engines, pattern_queries, expected, k, executor
    ):
        engine = sharded_engines[k]
        report = engine.run_batch(pattern_queries, ALPHA, executor=executor, workers=2)
        contained = 0
        for query, answer, want in zip(pattern_queries, report.answers, expected):
            home = engine.partition.shard_of(query.personalized_match)
            if engine.shards[home].ball_in_core(
                query.personalized_match, query.pattern.diameter()
            ):
                contained += 1
                assert pattern_signature(answer) == want, (
                    f"k={k}/{executor}: contained ball diverged for "
                    f"vp={query.personalized_match!r}"
                )
        if k == 1:
            assert contained == len(pattern_queries)
        else:
            # The clustered fixture must actually exercise the contained
            # path, or the contract above is tested vacuously.
            assert contained > 0, "fixture produced no shard-contained balls"

    @pytest.mark.parametrize("k", (2, 4))
    def test_spilled_balls_still_match_reference(
        self, sharded_engines, pattern_queries, expected, k
    ):
        # Not contractual (the contract covers contained balls), but the
        # region assembly preserves every read the matchers make, so spilled
        # answers should reproduce the single-graph reference too.
        report = sharded_engines[k].run_batch(pattern_queries, ALPHA)
        for answer, want in zip(report.answers, expected):
            assert pattern_signature(answer) == want

    def test_absent_personalized_match_answers_empty(self, sharded_engines):
        from repro.patterns.pattern import GraphPattern

        pattern = GraphPattern(
            labels={"u": "A", "v": "B"}, edges=(("u", "v"),), personalized="u", output="v"
        )
        for k in KS:
            answers = sharded_engines[k].answer_batch(
                [PatternQuery(pattern, "ghost")], ALPHA
            )
            assert answers[0].answer == set()
            assert answers[0].subgraph_size == 0


# --------------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------------- #
class TestReports:
    def test_batch_report_telemetry(self, graph, reach_queries, sharded_engines):
        report = sharded_engines[4].run_batch(reach_queries, ALPHA)
        assert len(report.answers) == len(reach_queries)
        assert report.kinds == {"reach": len(reach_queries)}
        assert report.local_reach + report.cross_reach == len(reach_queries)
        assert report.throughput > 0
        assert 0.0 <= report.spillover_fraction <= 1.0
        assert sum(report.per_shard.values()) >= report.local_reach

    def test_describe_reports_partition_and_boundary(self, sharded_engines):
        profile = sharded_engines[4].describe()
        assert profile["num_shards"] == 4
        assert sum(profile["shard_nodes"]) == sum(
            len(shard.core) for shard in sharded_engines[4].shards.values()
        )
        assert profile["cut_edges"] >= 0
        assert profile["boundary_supernodes"] >= 0

    def test_alpha_validation(self, sharded_engines, reach_queries):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            sharded_engines[2].run_batch(reach_queries, 0.0)


# --------------------------------------------------------------------------- #
# Updates
# --------------------------------------------------------------------------- #
class TestShardedUpdates:
    def test_k1_update_stays_bit_identical(self, graph, reach_queries):
        for mix in ("growth", "uniform"):
            single = QueryEngine(graph.copy(), cache_size=0)
            sharded = ShardedEngine(graph, num_shards=1, seed=7)
            stream = generate_delta_stream(
                graph, batches=3, ops_per_batch=20, mix=mix, seed=13
            )
            for delta in stream:
                single.update(delta)
                sharded.update(delta)
                assert reach_signature(
                    sharded.answer_batch(reach_queries, ALPHA)
                ) == reach_signature(single.answer_batch(reach_queries, ALPHA)), mix

    def test_daemon_parity_across_update(self, graph, reach_queries):
        """Warm daemons track sharded updates: scatter answers stay serial-identical."""
        with ShardedEngine(graph.copy(), num_shards=2, seed=7) as engine:
            stream = generate_delta_stream(graph, batches=2, ops_per_batch=15, mix="growth", seed=29)
            for delta in stream:
                serial = reach_signature(engine.answer_batch(reach_queries, ALPHA))
                daemon = reach_signature(
                    engine.run_batch(reach_queries, ALPHA, executor="daemon", workers=2).answers
                )
                assert daemon == serial
                engine.update(delta)
            serial = reach_signature(engine.answer_batch(reach_queries, ALPHA))
            daemon = reach_signature(
                engine.run_batch(reach_queries, ALPHA, executor="daemon", workers=2).answers
            )
            assert daemon == serial

    def test_confined_churn_takes_the_local_path(self, graph, reach_queries):
        engine = ShardedEngine(graph, num_shards=4, seed=7, halo_depth=1)
        engine.answer_batch(reach_queries, ALPHA)
        shard_id = 0
        core = set(engine.shards[shard_id].core)
        visible = set()
        for other, shard in engine.shards.items():
            if other != shard_id:
                visible |= shard.node_set & core
        pool = core - visible
        assert len(pool) >= 2, "fixture is not locality-friendly enough"
        stream = generate_delta_stream(
            graph, batches=3, ops_per_batch=12, mix="growth", seed=21, confine_nodes=pool
        )
        for delta in stream:
            report = engine.update(delta)
            assert report.mode == "local"
            assert set(report.shard_reports) == {shard_id}
            assert not report.rebuilt_shards
        mutated = stream.final_graph
        for query, answer in zip(
            reach_queries, engine.answer_batch(reach_queries, ALPHA)
        ):
            if answer.reachable:
                assert is_reachable(mutated, query.source, query.target)

    def test_unconfined_churn_rebuilds_affected_shards(self, graph, reach_queries):
        engine = ShardedEngine(graph, num_shards=4, seed=7)
        engine.answer_batch(reach_queries, ALPHA)
        stream = generate_delta_stream(graph, batches=2, ops_per_batch=25, mix="uniform", seed=5)
        rebuilt = False
        for delta in stream:
            report = engine.update(delta)
            if report.mode == "rebuilt":
                rebuilt = True
                assert report.rebuilt_shards
        assert rebuilt
        mutated = stream.final_graph
        for query, answer in zip(
            reach_queries, engine.answer_batch(reach_queries, ALPHA)
        ):
            if answer.reachable:
                assert is_reachable(mutated, query.source, query.target)

    def test_node_removal_routes_to_rebuild(self, graph, reach_queries):
        from repro.updates.delta import GraphDelta

        engine = ShardedEngine(graph, num_shards=2, seed=7)
        engine.answer_batch(reach_queries, ALPHA)
        victim = next(iter(engine.shards[0].core))
        report = engine.update(GraphDelta().remove_node(victim))
        assert report.mode == "rebuilt"
        assert engine.partition.shard_of(victim) is None
        answers = engine.answer_batch(reach_queries, ALPHA)
        working = engine._working
        for query, answer in zip(reach_queries, answers):
            if answer.reachable:
                assert query.source in working and query.target in working
                assert is_reachable(working, query.source, query.target)

    def test_failing_delta_keeps_engine_consistent(self, graph, reach_queries):
        from repro.exceptions import ReproError
        from repro.updates.delta import GraphDelta

        engine = ShardedEngine(graph, num_shards=2, seed=7)
        engine.answer_batch(reach_queries, ALPHA)
        nodes = list(graph.nodes())
        delta = GraphDelta().add_node("fresh-node", label="A")
        delta.add_edge("fresh-node", nodes[0])
        delta.remove_edge("fresh-node", "missing-node")  # invalid: raises mid-delta
        with pytest.raises(ReproError):
            engine.update(delta)
        # The applied prefix is live; answers must still be sound against it.
        working = engine._working
        assert "fresh-node" in working
        for query, answer in zip(
            reach_queries, engine.answer_batch(reach_queries, ALPHA)
        ):
            if answer.reachable:
                assert is_reachable(working, query.source, query.target)


# --------------------------------------------------------------------------- #
# Confined delta workloads (locality experiments)
# --------------------------------------------------------------------------- #
class TestConfinedDeltaWorkload:
    def test_ops_stay_inside_the_pool(self, graph):
        pool = set(list(graph.nodes())[:50])
        stream = generate_delta_stream(
            graph, batches=4, ops_per_batch=15, mix="uniform", seed=3, confine_nodes=pool
        )
        allowed = set(pool)
        for delta in stream:
            for op in delta.ops:
                assert op.node in allowed
                if op.target is not None:
                    assert op.target in allowed

    def test_growth_newcomers_join_the_pool(self, graph):
        pool = set(list(graph.nodes())[:50])
        stream = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="growth", seed=3, confine_nodes=pool
        )
        allowed = set(pool)
        for delta in stream:
            for op in delta.ops:
                if op.kind == "add_node":
                    allowed.add(op.node)
                else:
                    assert op.node in allowed
                    if op.target is not None:
                        assert op.target in allowed

    def test_confinement_is_deterministic(self, graph):
        pool = set(list(graph.nodes())[:40])

        def ops(stream):
            return [
                [(op.kind, op.node, op.target, op.label) for op in delta]
                for delta in stream
            ]

        first = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="uniform", seed=4, confine_nodes=pool
        )
        second = generate_delta_stream(
            graph, batches=3, ops_per_batch=10, mix="uniform", seed=4, confine_nodes=pool
        )
        assert ops(first) == ops(second)

    def test_confinement_validation(self, graph):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            generate_delta_stream(graph, confine_nodes={"nope"})
        with pytest.raises(WorkloadError):
            generate_delta_stream(graph, confine_nodes=set(list(graph.nodes())[:2]) | {"nope"})


# --------------------------------------------------------------------------- #
# Cross-partitioner sanity on a second topology
# --------------------------------------------------------------------------- #
class TestHashPartitionServing:
    def test_hash_partition_contract_holds(self):
        graph = preferential_attachment_graph(
            num_nodes=250, edges_per_node=2, seed=5, back_edge_probability=0.15
        )
        queries = [ReachQuery(s, t) for s, t in sample_mixed_pairs(graph, 50, seed=3)]
        engine = ShardedEngine(graph, num_shards=3, method="hash", seed=0)
        for query, answer in zip(queries, engine.answer_batch(queries, ALPHA)):
            if answer.reachable:
                assert is_reachable(graph, query.source, query.target)
